"""Flat index arithmetic shared by the vectorized hot paths."""

from __future__ import annotations

import numpy as np


def expand_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices covering ``[starts[i], starts[i]+lengths[i])`` per group,
    i.e. ``concatenate([arange(s, s + n) for s, n in zip(starts, lengths)])``."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    offsets = np.repeat(starts - (ends - lengths), lengths)
    return np.arange(total, dtype=np.int64) + offsets


def sorted_unique(ids: np.ndarray) -> np.ndarray:
    """``np.unique(ids)`` for a 1-D id array by sort + adjacent-diff
    (no hash table, no O(id range) mask: the cost is the ids seen)."""
    if len(ids) < 2:
        return ids
    ids = np.sort(ids)
    keep = np.empty(len(ids), dtype=bool)
    keep[0] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]
