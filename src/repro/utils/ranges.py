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


def stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative ``keys <
    bound``.  Keys that fit 16 bits take numpy's uint16 radix sort in
    one pass (~12x faster than the int64 merge sort); keys that fit 32
    bits take two stable 16-bit passes, low half first, which is a
    stable sort by the full key."""
    if bound <= 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    if bound <= 1 << 32:
        low = np.argsort(keys.astype(np.uint16), kind="stable")
        high = (keys[low] >> 16).astype(np.uint16)
        return low[np.argsort(high, kind="stable")]
    return np.argsort(keys, kind="stable")
