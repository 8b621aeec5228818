"""From-scratch numpy autograd engine.

This package plays the role that PyTorch's autograd library plays in the
paper (Section 4.1): a differentiable NN backend with opaque,
hardware-optimisable operators.  NeutronStar's contribution is to
decouple distributed dependency management from these in-worker NN
operations; everything in :mod:`repro.core` builds on the primitives
defined here.

Public surface:

- :class:`Tensor` -- the autograd tensor.
- :mod:`repro.tensor.nn` -- ``Module``, ``Parameter``, ``Linear``,
  ``Dropout``.
- :mod:`repro.tensor.optim` -- the ``Adam`` optimiser.
"""

from repro.tensor.tensor import Tensor, no_grad
from repro.tensor import functional
from repro.tensor import init
from repro.tensor import nn
from repro.tensor import optim

__all__ = [
    "Tensor",
    "no_grad",
    "functional",
    "init",
    "nn",
    "optim",
]
