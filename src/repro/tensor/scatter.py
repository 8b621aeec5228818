"""Ranked-round scatter-add: the aggregation kernel under the tape.

``np.add.at`` on a 2-D operand has no fast path: it runs a buffered
per-element ufunc loop (7-15 ns per element), and every gather/scatter
adjoint in :mod:`repro.tensor` used to bottom out in it.
:func:`scatter_add_rows` computes the same result -- the same bits --
from whole-row numpy operations on large blocks, and through
``np.add.at``'s own indexed 1-D loop (:func:`_add_at`) on small ones.

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
# still active: below this many elements (active rows x width) it loses
# to a per-element loop, so the rounds stop there and the remaining hub
# edges go to ``_add_at``.
ROUND_ELEMENTS = 512
# Grouping and ranking cost ~30 us of fixed-size numpy calls plus ~2 us
# per round, which the rounds win back against ``_add_at``'s flat loop
# (~2.5 ns per element): measured break-even is 26-51k elements
# (docs/performance.md, "Small-call path"), so the rounds must cover at
# least this many.
MIN_ELEMENTS = 32768


def _stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of non-negative ``keys < bound``; keys that fit
    16 bits take numpy's radix sort (~12x faster than int64 merge)."""
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def _validated(index: np.ndarray, num_rows: int) -> np.ndarray:
    """``index`` with in-range negatives normalised, as np.add.at
    reads them; out-of-range entries raise with the cause named."""
    # Read as unsigned a negative row is huge, so one reduction settles
    # the usual case of every row in [0, num_rows).
    if index.itemsize == 8 and int(index.view(np.uint64).max()) < num_rows:
        return index
    low, high = int(index.min()), int(index.max())
    if low < -num_rows or high >= num_rows:
        bad = low if low < -num_rows else high
        raise IndexError(
            f"scatter index {bad} is out of range for num_rows={num_rows}"
        )
    if low < 0:
        index = np.where(index < 0, index + num_rows, index)
    return index


def _flat_operands(out: np.ndarray, values: np.ndarray) -> bool:
    """Whether ``out`` and ``values`` allow :func:`_add_at`'s flat form."""
    return (
        out.dtype.kind == "f"
        and out.dtype == values.dtype
        and out.flags.c_contiguous
    )


def _add_at(out: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(out, index, values)``, through numpy's indexed 1-D
    loop when the operands allow it.

    ``np.add.at`` has a fast path only for a 1-D operand, so a block of
    rows is issued flattened: element ``(e, c)`` goes to
    ``out.flat[index[e] * width + c]``, e-major.  Every ``(row, col)``
    cell still receives its addends in edge order from the same start
    value, so the bits match.  The rows are validated before they are
    multiplied: ``rows * width`` wraps silently in int64 (row 2**58 at
    width 64 would land on row 0), so a bad row raises here, naming the
    row, with ``out`` untouched.  Anything that is not a 1-D integer
    index over C-contiguous float rows of ``values``' own dtype (a
    mask, a broadcast, float64 into float32) stays with plain
    ``np.add.at``.
    """
    if (
        values.ndim == 2
        and isinstance(index, np.ndarray)
        and index.ndim == 1
        and index.dtype.kind in "iu"
        and _flat_operands(out, values)
        and values.shape == (index.size,) + out.shape[1:]
    ):
        if index.size == 0:
            return
        width = values.shape[1]
        rows = _validated(index, out.shape[0]).astype(np.intp, copy=False)
        cells = (rows * width)[:, None] + np.arange(width)
        np.add.at(out.reshape(-1), cells.reshape(-1), values.reshape(-1))
        return
    np.add.at(out, index, values)


def scatter_add_rows(out: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(out, index, values)`` for an integer ``index`` over
    axis 0, in place and bit-identical, without the per-element loop
    when ``index`` is 1-D and ``values`` a 2-D block of rows."""
    values = np.asarray(values)
    # The rounds must beat what the block would get instead: the flat
    # loop or, where that cannot run (float64 into float32, a strided
    # ``out``), numpy's own -- 3x to 19x slower per element, so a third
    # of the size already breaks even.
    min_elements = MIN_ELEMENTS if _flat_operands(out, values) else MIN_ELEMENTS // 3
    if values.ndim != 2 or values.size < min_elements:
        # A small block is done before its rows could be grouped.
        _add_at(out, index, values)
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
        _add_at(out, index, values)
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
    if rounds == 0 or int(in_rounds.sum()) * width < min_elements:
        _add_at(out, index, values)
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
        _add_at(out, index[left], values[left])


def scatter_rows(index: np.ndarray, values: np.ndarray, num_rows: int) -> np.ndarray:
    """Rows of ``values`` summed by ``index`` into a fresh
    ``(num_rows, ...)`` array of ``values``' dtype."""
    out = np.zeros((num_rows,) + values.shape[np.ndim(index):], dtype=values.dtype)
    scatter_add_rows(out, index, values)
    return out
