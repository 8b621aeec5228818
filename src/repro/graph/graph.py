"""The in-memory graph: COO edges + lazily-built CSR/CSC + node data.

A :class:`Graph` carries everything Algorithm 1 needs: the edge list,
per-vertex features ``h^(0)``, labels, train/val/test masks, and
(optionally) per-edge weights.  CSR groups edges by source (used for
backward scatter, ``GatherBySrc``); CSC groups them by destination
(forward ``GatherByDst``).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.graph.adjacency import Adjacency

# Edges per block of :meth:`Graph.gcn_normalized`'s weight product.
WEIGHT_BLOCK = 1 << 15


class Graph:
    """A directed graph with node features and labels.

    Edges point ``src -> dst``; a GNN layer aggregates over *in*-edges,
    i.e. vertex ``v`` reads the representations of the sources of edges
    ``(u, v)``, exactly as in the paper's Algorithm 1.
    """

    def __init__(
        self,
        num_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        num_classes: Optional[int] = None,
        edge_weight: Optional[np.ndarray] = None,
        name: str = "graph",
    ):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src/dst must be 1-D arrays of equal length")
        if len(src) and (src.min() < 0 or src.max() >= num_vertices):
            raise ValueError("src vertex id out of range")
        if len(dst) and (dst.min() < 0 or dst.max() >= num_vertices):
            raise ValueError("dst vertex id out of range")
        if edge_weight is not None and len(edge_weight) != len(src):
            raise ValueError(
                f"edge_weight has {len(edge_weight)} entries for "
                f"{len(src)} edges"
            )
        self.num_vertices = int(num_vertices)
        self.src = src
        self.dst = dst
        self.name = name
        # Filled in by generators.attach_features (or a test).
        self.features: Optional[np.ndarray] = None
        self.labels: Optional[np.ndarray] = None
        self.num_classes = num_classes
        # Like ``src`` and ``dst``, taken without a copy when it already
        # has the stored dtype.  Unit weights are one read-only float32
        # viewed E times, not an E-long array of ones.
        self.edge_weight = (
            np.asarray(edge_weight, dtype=np.float32)
            if edge_weight is not None
            else np.broadcast_to(np.float32(1.0), (len(src),))
        )
        self.train_mask: Optional[np.ndarray] = None
        self.val_mask: Optional[np.ndarray] = None
        self.test_mask: Optional[np.ndarray] = None
        self._csr: Optional[Adjacency] = None
        self._csc: Optional[Adjacency] = None

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self.src)

    @property
    def feature_dim(self) -> int:
        if self.features is None:
            raise ValueError(f"graph {self.name!r} has no features")
        return self.features.shape[1]

    @property
    def avg_degree(self) -> float:
        return self.num_edges / max(self.num_vertices, 1)

    @property
    def csr(self) -> Adjacency:
        """Edges grouped by source vertex."""
        if self._csr is None:
            self._csr = Adjacency(self.src, self.dst, self.num_vertices)
        return self._csr

    @property
    def csc(self) -> Adjacency:
        """Edges grouped by destination vertex."""
        if self._csc is None:
            self._csc = Adjacency(self.dst, self.src, self.num_vertices)
        return self._csc

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.dst, minlength=self.num_vertices)

    def __repr__(self) -> str:
        return (
            f"Graph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges})"
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def _looped_edges(self):
        """``src`` and ``dst`` with a self loop appended for every vertex
        that has none."""
        has_loop = np.zeros(self.num_vertices, dtype=bool)
        has_loop[self.src[self.src == self.dst]] = True
        new_loops = np.flatnonzero(~has_loop)
        return (np.concatenate([self.src, new_loops]),
                np.concatenate([self.dst, new_loops]))

    def _derived(self, src, dst, edge_weight) -> "Graph":
        """A graph on these edges that shares this one's node data."""
        out = Graph(
            self.num_vertices,
            src,
            dst,
            num_classes=self.num_classes,
            edge_weight=edge_weight,
            name=self.name,
        )
        out.features = self.features
        out.labels = self.labels
        out.train_mask = self.train_mask
        out.val_mask = self.val_mask
        out.test_mask = self.test_mask
        return out

    def with_self_loops(self) -> "Graph":
        """Return a copy with one self-loop added to every vertex.

        Existing self-loops are kept; GCN normalisation assumes each
        vertex sees its own previous representation.
        """
        src, dst = self._looped_edges()
        weight = np.ones(len(src), dtype=np.float32)
        weight[: self.num_edges] = self.edge_weight
        return self._derived(src, dst, weight)

    def gcn_normalized(self) -> "Graph":
        """Self-loops + symmetric normalisation 1/sqrt(d_u * d_v).

        This is the weighting GCN (Kipf & Welling) applies; engines use
        these edge weights so that DepCache, DepComm, and Hybrid compute
        bit-identical representations.
        """
        src, dst = self._looped_edges()
        deg = np.bincount(dst, minlength=self.num_vertices).astype(np.float64)
        inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1.0))
        # The float64 product, rounded to float32 a block of edges at a
        # time: no edge-long float64 array is ever alive.
        weight = np.empty(len(src), dtype=np.float32)
        for lo in range(0, len(src), WEIGHT_BLOCK):
            hi = lo + WEIGHT_BLOCK
            weight[lo:hi] = inv_sqrt[src[lo:hi]] * inv_sqrt[dst[lo:hi]]
        return self._derived(src, dst, weight)

    def set_split(
        self,
        train_fraction: float = 0.6,
        val_fraction: float = 0.2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Assign boolean train/val/test masks over labelled vertices."""
        if not 0 < train_fraction < 1 or not 0 <= val_fraction < 1:
            raise ValueError("invalid split fractions")
        if train_fraction + val_fraction >= 1:
            raise ValueError("train + val fractions must leave room for test")
        rng = rng or np.random.default_rng(0)
        order = rng.permutation(self.num_vertices)
        n_train = int(self.num_vertices * train_fraction)
        n_val = int(self.num_vertices * val_fraction)
        self.train_mask = np.zeros(self.num_vertices, dtype=bool)
        self.val_mask = np.zeros(self.num_vertices, dtype=bool)
        self.test_mask = np.zeros(self.num_vertices, dtype=bool)
        self.train_mask[order[:n_train]] = True
        self.val_mask[order[n_train : n_train + n_val]] = True
        self.test_mask[order[n_train + n_val :]] = True

    def stats(self) -> Dict[str, float]:
        """Summary statistics used by reports and tests."""
        in_deg = self.in_degrees()
        return {
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "avg_degree": self.avg_degree,
            "max_in_degree": int(in_deg.max()) if self.num_vertices else 0,
            "feature_dim": self.features.shape[1] if self.features is not None else 0,
        }
