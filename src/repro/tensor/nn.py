"""Minimal neural-network module system on top of the autograd engine.

``Module`` mirrors PyTorch's: parameters are discovered recursively from
attributes, ``zero_grad``/``parameters``/``state_dict`` behave as
expected, and the GNN layers in :mod:`repro.core.layers` subclass it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.tensor import functional as F
from repro.tensor import init
from repro.tensor.tensor import Tensor


class Parameter(Tensor):
    """A tensor registered as a trainable leaf of a :class:`Module`."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class with recursive parameter discovery."""

    def __init__(self):
        self.training = True

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._child_modules():
            module.train(mode)
        return self

    def _child_modules(self) -> Iterator["Module"]:
        for value in vars(self).values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        stored = {name: np.asarray(state[name]) for name in own}
        for name, p in own.items():
            if p.data.shape != stored[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{p.data.shape} vs {stored[name].shape}"
                )
            check_dtype(name, stored[name], p.data)
        for name, p in own.items():
            p.data = stored[name].copy()


def check_dtype(name: str, stored: np.ndarray, own: np.ndarray) -> None:
    """Reject a checkpoint array whose dtype differs from ``own``'s.

    Training never changes a parameter's dtype, so a mismatch means the
    checkpoint belongs to another model; adopting it would silently
    change the precision of every later step.
    """
    if stored.dtype != own.dtype:
        raise ValueError(
            f"{name}: checkpoint has {stored.dtype}, parameter is {own.dtype}"
        )


class Linear(Module):
    """Fully connected layer ``y = x @ W + b``.

    Weights are stored ``(in_features, out_features)`` so forward is a
    plain matmul without a transpose, matching the paper's pseudocode.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear needs positive feature sizes")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng=rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def flops(self, rows: int) -> int:
        """Multiply-add FLOPs to push ``rows`` rows through this layer."""
        flops = 2 * rows * self.in_features * self.out_features
        if self.bias is not None:
            flops += rows * self.out_features
        return flops


class Dropout(Module):
    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.p = p
        self.rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, p=self.p, training=self.training, rng=self.rng)
