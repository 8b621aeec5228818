"""Compressed sparse adjacency (CSR/CSC) built from COO edge lists.

The paper stores each chunk of edges in CSC for forward computation and
CSR for backward computation (Section 4.3).  :class:`Adjacency` is the
shared index structure: a permutation of edge ids grouped by a key
vertex (source for CSR, destination for CSC) with an ``indptr`` offset
array, so per-vertex edge ranges are O(1) slices.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.ranges import stable_argsort


class Adjacency:
    """Edge ids grouped by a key vertex array.

    Parameters
    ----------
    key:
        Per-edge grouping vertex (``src`` for CSR, ``dst`` for CSC).
    other:
        The opposite endpoint of each edge.
    num_vertices:
        Total number of vertices (indptr length - 1).
    """

    def __init__(self, key: np.ndarray, other: np.ndarray, num_vertices: int):
        if len(key) != len(other):
            raise ValueError("key and other must have equal length")
        self.num_vertices = int(num_vertices)
        order = stable_argsort(key, self.num_vertices)
        self.edge_ids = order.astype(np.int64, copy=False)
        self.key = key[order]
        self.other = other[order]
        counts = np.bincount(key, minlength=num_vertices)
        self.indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)]
        )

    @property
    def num_edges(self) -> int:
        return len(self.key)

    def degree(self, vertex: int) -> int:
        return int(self.indptr[vertex + 1] - self.indptr[vertex])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, vertex: int) -> np.ndarray:
        """Opposite endpoints of ``vertex``'s grouped edges."""
        lo, hi = self.indptr[vertex], self.indptr[vertex + 1]
        return self.other[lo:hi]

    def neighbors_of_set(self, vertices: np.ndarray) -> np.ndarray:
        """Unique opposite endpoints over a vertex set (BFS frontier step)."""
        if len(vertices) == 0:
            return np.empty(0, dtype=np.int64)
        idx = self._edge_range_index(np.asarray(vertices, dtype=np.int64))
        return np.unique(self.other[idx])

    def _edge_range_index(self, vertices: np.ndarray) -> np.ndarray:
        """Flat positions of every grouped edge of ``vertices``.

        One offset-arithmetic gather over ``indptr`` replaces the old
        per-vertex list of slices: the i-th vertex's CSR range
        ``[indptr[v], indptr[v+1])`` lands contiguously at output offset
        ``cumsum(counts)[i-1]``, preserving per-vertex order.
        """
        starts = self.indptr[vertices]
        counts = self.indptr[vertices + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        offsets = np.cumsum(counts) - counts
        return np.arange(total, dtype=np.int64) + np.repeat(
            starts - offsets, counts
        )

    def select(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All grouped edges of a vertex set.

        Returns ``(key_vertices, other_vertices, edge_ids)`` concatenated
        over the set, preserving per-vertex order.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if len(vertices) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        starts = self.indptr[vertices]
        counts = self.indptr[vertices + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return (
                np.empty(0, dtype=self.key.dtype),
                np.empty(0, dtype=self.other.dtype),
                np.empty(0, dtype=self.edge_ids.dtype),
            )
        offsets = np.cumsum(counts) - counts
        idx = np.arange(total, dtype=np.int64) + np.repeat(
            starts - offsets, counts
        )
        # The grouped key of every edge in vertex v's range IS v, so the
        # key gather collapses to a repeat of the query vertices.
        keys = np.repeat(vertices, counts).astype(self.key.dtype, copy=False)
        return keys, self.other[idx], self.edge_ids[idx]
