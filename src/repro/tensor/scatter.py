"""Ranked-round scatter-add: the aggregation kernel under the tape.

``np.add.at`` on a 2-D operand has no fast path: it runs a buffered
per-element ufunc loop (7-15 ns per element), and every gather/scatter
adjoint in :mod:`repro.tensor` used to bottom out in it.
:func:`scatter_add_rows` computes the same result -- the same bits --
from whole-row numpy operations.

Why the bits match.  ``np.add.at(out, index, values)`` applies
``out[index[e]] += values[e]`` for ``e = 0, 1, ...``, so each output
row receives its addends in edge order: ``((out[r] + v0) + v1) + ...``.
The kernel stable-groups the edges by row, which keeps that per-row
order, and then runs *rounds*: round ``k`` adds the ``k``-th edge of
every row that has more than ``k`` edges.  Rows are ranked by degree
descending, so the rows still active in round ``k`` are a contiguous
prefix of the accumulator and the round is one row gather plus one
contiguous in-place add.  Every element still sees exactly the
additions ``np.add.at`` performs, in the same order, starting from the
same ``out`` value (so ``0.0 + -0.0`` and NaN/inf propagation match
too); only the interleaving *between* rows differs, and rows never
interact.

``np.add.reduceat`` and ``sum(axis=0)`` are deliberately not used:
numpy reduces pairwise there, which changes the low bits of most
float32 results and so every golden.
"""

from __future__ import annotations

import numpy as np

from repro.utils.ranges import expand_ranges

# A round costs ~2 us of Python and numpy dispatch however few rows are
# still active, and np.add.at ~7.5 ns per element: below this many
# elements (active rows x width) a round loses to the loop it replaces,
# so the rounds stop there and the remaining hub edges go to np.add.at.
ROUND_ELEMENTS = 512
# Grouping and ranking cost ~30 us of fixed-size numpy calls, which the
# rounds win back at ~6 ns per element: measured break-even is 8-12k
# elements, so the rounds must cover at least this many.
MIN_ELEMENTS = 16384


def _stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of non-negative ``keys < bound``; keys that fit
    16 bits take numpy's radix sort (~12x faster than int64 merge)."""
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def _validated(index: np.ndarray, num_rows: int) -> np.ndarray:
    """``index`` with in-range negatives normalised, as np.add.at
    reads them; out-of-range entries raise with the cause named."""
    low, high = int(index.min()), int(index.max())
    if low < -num_rows or high >= num_rows:
        bad = low if low < -num_rows else high
        raise IndexError(
            f"scatter index {bad} is out of range for num_rows={num_rows}"
        )
    if low < 0:
        index = np.where(index < 0, index + num_rows, index)
    return index


def scatter_add_rows(out: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(out, index, values)`` for an integer ``index`` over
    axis 0, in place and bit-identical, without the per-element loop
    when ``index`` is 1-D and ``values`` a large 2-D block of rows."""
    values = np.asarray(values)
    if values.ndim != 2 or values.size < MIN_ELEMENTS:
        # 1-D operands have numpy's own indexed fast path, and a small
        # block is done before the rows could be grouped.
        np.add.at(out, index, values)
        return
    index = np.asarray(index)
    num_edges = index.size
    if (
        index.ndim != 1
        or index.dtype.kind not in "iu"
        or values.shape != (num_edges,) + out.shape[1:]
        or values.dtype.kind != "f"
        or out.dtype.kind != "f"
    ):
        # A mask, a broadcast or a non-float cast: np.add.at's to resolve.
        np.add.at(out, index, values)
        return
    if num_edges == 0:
        return
    index = _validated(index, out.shape[0])

    # Stable grouping by row; forward segment sums arrive sorted.
    if (index[1:] >= index[:-1]).all():
        order = None
        grouped = index
    else:
        order = _stable_argsort(index, out.shape[0])
        grouped = index[order]
    is_start = np.empty(num_edges, dtype=bool)
    is_start[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    degree = np.append(starts[1:], num_edges) - starts
    # Degree descending, ties in row order.
    top = int(degree.max())
    rank = _stable_argsort(top - degree, top + 1)
    starts, degree = starts[rank], degree[rank]
    rows = grouped[starts]

    # Rounds run while they hold at least ROUND_ELEMENTS elements.
    width = values.shape[1]
    tail_rows = -(-ROUND_ELEMENTS // width)
    rounds = int(degree[tail_rows - 1]) if len(rows) >= tail_rows else 0
    in_rounds = np.minimum(degree, rounds)
    if rounds == 0 or int(in_rounds.sum()) * width < MIN_ELEMENTS:
        np.add.at(out, index, values)
        return

    # active[k] = number of rows with degree > k (a prefix of the rank).
    ks = np.arange(rounds)
    active = len(rows) - np.searchsorted(degree[::-1], ks, side="right")
    # Edge of every (round, rank) pair, round-major.
    ranks = expand_ranges(np.zeros(rounds, dtype=np.int64), active)
    edges = starts[ranks] + np.repeat(ks, active)
    if order is not None:
        edges = order[edges]

    acc = out.take(rows, axis=0)
    begin = 0
    for m in active.tolist():
        acc[:m] += values.take(edges[begin:begin + m], axis=0)
        begin += m
    out[rows] = acc

    tail = degree - in_rounds
    hubs = int(np.count_nonzero(tail))
    if hubs:
        # Hub rows' remaining edges, each row's run in edge order.
        left = expand_ranges(starts[:hubs] + rounds, tail[:hubs])
        if order is not None:
            left = order[left]
        np.add.at(out, index[left], values[left])


def scatter_rows(index: np.ndarray, values: np.ndarray, num_rows: int) -> np.ndarray:
    """Rows of ``values`` summed by ``index`` into a fresh
    ``(num_rows, ...)`` array of ``values``' dtype."""
    out = np.zeros((num_rows,) + values.shape[np.ndim(index):], dtype=values.dtype)
    scatter_add_rows(out, index, values)
    return out
