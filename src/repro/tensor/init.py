"""Weight initialisers (Glorot/Xavier uniform, zeros, ones)."""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("cannot compute fans of a scalar shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[0] * receptive
    fan_out = shape[1] * receptive
    return fan_in, fan_out


def xavier_uniform(
    shape: Tuple[int, ...], rng: np.random.Generator = None
) -> np.ndarray:
    """Glorot & Bengio (2010) uniform initialisation (gain 1)."""
    rng = rng or np.random.default_rng()
    fan_in, fan_out = _fan_in_out(shape)
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)
