"""Graph partitioners (Section 5.7's chunk / Metis / Fennel comparison)."""

from repro.partition.base import Partitioning
from repro.partition.chunk import chunk_partition
from repro.partition.hashing import hash_partition
from repro.partition.fennel import fennel_partition
from repro.partition.metis_like import metis_like_partition
from repro.partition.vertex_cut import ReassignmentPlan, absorb_partition

_PARTITIONERS = {
    "chunk": chunk_partition,
    "hash": hash_partition,
    "fennel": fennel_partition,
    "metis": metis_like_partition,
}


def get_partitioner(name: str):
    """Look up a partitioner by name (chunk | hash | fennel | metis)."""
    try:
        return _PARTITIONERS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_PARTITIONERS))
        raise KeyError(f"unknown partitioner {name!r}; known: {known}") from None


__all__ = [
    "Partitioning",
    "chunk_partition",
    "hash_partition",
    "fennel_partition",
    "metis_like_partition",
    "ReassignmentPlan",
    "absorb_partition",
    "get_partitioner",
]
