"""The two-key ``np.lexsort`` rank the samplers used before they ranked
a packed ``uint64`` key.

Kept out of ``src/`` as the reference: ``tests/sampling/test_round.py``
checks ``repro.sampling.samplers._rank_within_runs`` against it, and
``benchmarks/bench_hotpath.py``'s reference mode ranks every candidate
edge with it.
"""

import numpy as np


def rank_within_group(groups: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Rank of each element among its group, ordered by ``key``; equal
    keys rank in input order (``np.lexsort`` is stable)."""
    n = len(groups)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((key, groups))
    sorted_groups = groups[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_groups[1:] != sorted_groups[:-1]
    starts = np.maximum.accumulate(
        np.where(new_group, np.arange(n), 0)
    )
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n) - starts
    return ranks
