"""The Adam optimiser, on an :class:`Optimizer` base.

``state_dict``/``load_state_dict`` round-trip the *full* training state
(moments and step count): a restored snapshot then reproduces the exact
parameter trajectory of an uninterrupted run, which the
rollback-restart recovery path (:mod:`repro.training.resilient`)
relies on.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.tensor.nn import check_dtype
from repro.tensor.tensor import Tensor


class Optimizer:
    """Base optimiser holding a parameter list."""

    state_kind = "base"

    def __init__(self, params: Iterable[Tensor]):
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        for p in self.params:
            if not p.requires_grad:
                raise ValueError("optimizer received a non-trainable tensor")

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """Serialisable optimiser state (arrays + scalars, copied)."""
        return {"kind": self.state_kind, "arrays": {}, "scalars": {}}

    def load_state_dict(self, state: Dict) -> None:
        """Restore state produced by :meth:`state_dict`."""
        if state.get("kind") != self.state_kind:
            raise ValueError(
                "optimizer state kind mismatch: checkpoint has "
                f"{state.get('kind')!r}, optimizer is {self.state_kind!r}"
            )

    def _check_array(self, name: str, value: np.ndarray, index: int) -> np.ndarray:
        value = np.asarray(value)
        own = self.params[index].data
        if value.shape != own.shape:
            raise ValueError(
                f"optimizer state {name!r} has shape {value.shape}, "
                f"parameter {index} expects {own.shape}"
            )
        check_dtype(f"optimizer state {name!r}", value, own)
        return value.copy()


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    state_kind = "adam"
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: Iterable[Tensor], lr: float = 0.001):
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * grad * grad
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        arrays = {}
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            arrays[f"m_{i}"] = m.copy()
            arrays[f"v_{i}"] = v.copy()
        return {
            "kind": self.state_kind,
            "arrays": arrays,
            "scalars": {"step_count": self._step_count},
        }

    def load_state_dict(self, state: Dict) -> None:
        super().load_state_dict(state)
        arrays = state.get("arrays", {})
        expected = {f"{tag}_{i}" for tag in ("m", "v") for i in range(len(self.params))}
        if set(arrays) != expected:
            raise ValueError(
                f"Adam state mismatch: checkpoint has {sorted(arrays)}, "
                f"optimizer expects {sorted(expected)}"
            )
        # Both lists are checked before either is assigned.
        self._m, self._v = (
            [self._check_array(f"{tag}_{i}", arrays[f"{tag}_{i}"], i)
             for i in range(len(self.params))]
            for tag in ("m", "v")
        )
        self._step_count = int(state.get("scalars", {}).get("step_count", 0))
