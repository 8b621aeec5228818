"""The multi-layer GNN model and its factory helpers.

A :class:`GNNModel` is a stack of :class:`~repro.core.layers.GNNLayer`
objects (layer ``l`` maps ``h^{l-1} -> h^l``) whose final layer emits
class logits.  In distributed training every worker drives the *same*
model replica (data parallelism with synchronous all-reduce makes the
replicas bit-identical, so the reproduction shares one instance and
lets gradient accumulation play the role of the all-reduce sum; the
all-reduce's *time* is still charged by the trainer).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.layers import GNNLayer, LAYER_TYPES
from repro.tensor import nn


class GNNModel(nn.Module):
    """A stack of GNN layers ending in class logits."""

    def __init__(self, layers: Sequence[GNNLayer]):
        super().__init__()
        if not layers:
            raise ValueError("a GNN needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(
                    f"layer dims do not chain: {a.out_dim} -> {b.in_dim}"
                )
        self.layers = list(layers)
        # Only layer 1 reads the raw features (see GCNConv's host order).
        for i, layer in enumerate(self.layers):
            layer.reads_features = i == 0

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def layer(self, l: int) -> GNNLayer:
        """1-based layer access matching the paper's notation."""
        return self.layers[l - 1]

    def dims(self) -> List[int]:
        """``[d^(0), d^(1), ..., d^(L)]`` -- the cost model's d(k)."""
        return [self.layers[0].in_dim] + [layer.out_dim for layer in self.layers]

    def parameter_bytes(self) -> int:
        return sum(p.data.nbytes for p in self.parameters())

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        arch: str,
        in_dim: int,
        hidden_dim: int,
        num_classes: int,
        num_layers: int = 2,
        seed: int = 0,
    ) -> "GNNModel":
        """Build a 2-layer (or deeper) GCN / GIN / GAT.

        Hidden layers use the architecture's default activation; the
        final layer emits raw logits (activation disabled) for the
        softmax cross-entropy loss.
        """
        arch = arch.lower()
        if arch not in LAYER_TYPES:
            known = ", ".join(sorted(LAYER_TYPES))
            raise ValueError(f"unknown architecture {arch!r}; known: {known}")
        if num_layers < 1:
            raise ValueError("num_layers must be positive")
        rng = np.random.default_rng(seed)
        layer_cls = LAYER_TYPES[arch]
        dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [num_classes]
        layers = []
        for l in range(num_layers):
            activation = "relu" if l < num_layers - 1 else "none"
            layers.append(
                layer_cls(dims[l], dims[l + 1], activation=activation, rng=rng)
            )
        return cls(layers)

    @classmethod
    def gcn(cls, in_dim, hidden_dim, num_classes, num_layers=2, seed=0):
        return cls.build("gcn", in_dim, hidden_dim, num_classes, num_layers, seed)

    @classmethod
    def gat(cls, in_dim, hidden_dim, num_classes, num_layers=2, seed=0):
        return cls.build("gat", in_dim, hidden_dim, num_classes, num_layers, seed)
