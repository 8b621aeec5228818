"""Ranked-round scatter-add and gather-weight-reduce: the aggregation
kernels under the tape.

``np.add.at`` on a 2-D operand has no fast path: it runs a buffered
per-element ufunc loop (7-15 ns per element), and every gather/scatter
adjoint in :mod:`repro.tensor` used to bottom out in it.
:func:`scatter_add_rows` computes the same result -- the same bits --
from whole-row numpy operations on large blocks, and through
``np.add.at``'s own indexed 1-D loop (:func:`_add_at`) on small ones.
:func:`gather_scatter_rows` is the same rounds over values that are
never stored: the message ``x[gather[e]] * weights[e]`` of edge ``e``
is formed in the round that adds it, so a layer's aggregation and its
adjoint allocate no E x d array.

The plan.  What the rounds need from an edge list -- the rows ranked by
degree, how many are active in each round, the round-ordered sources
``gather[edges]`` and scales ``weights[edges]``, the hub tail -- is a
:class:`ScatterPlan`, built by :func:`_schedule` and :func:`_plan` and
run by :func:`_ranked_rounds`.  A call without ``plans`` builds one and
drops it.  A caller that aggregates the same edges again (a layer block,
every full-batch epoch) passes the dict the block keeps its plans in,
and every call after the first runs the kept plan: no validation,
grouping, ranking or re-gathering of the fixed edge list, as the
paper's send buffer is laid out once and not per epoch.  A plan is
matched to the ``gather`` / ``index`` / ``weights`` arrays it was built
from and to the cut-over constants of its build; anything else builds a
new one.

Why the bits match.  ``np.add.at(out, index, values)`` applies
``out[index[e]] += values[e]`` for ``e = 0, 1, ...``, so each output
row receives its addends in edge order: ``((out[r] + v0) + v1) + ...``.
The kernel stable-groups the edges by row, which keeps that per-row
order, and then runs *rounds*: round ``k`` adds the ``k``-th edge of
every row that has more than ``k`` edges.  Rows are ranked by degree
descending, so the rows still active in round ``k`` are a contiguous
prefix of the accumulator and the round is one contiguous in-place add
(the messages of several consecutive rounds are gathered together, up
to ``CHUNK_ELEMENTS``).  Every element still sees exactly the additions
``np.add.at`` performs, in the same order, starting from the same
``out`` value (so ``0.0 + -0.0``, infinities and a NaN match too);
only the interleaving *between* rows differs, and rows never interact.
Forming a round's addends from ``x`` instead of reading them from a
stored array changes nothing an element sees: the product is the same
two operands in the same dtype either way, and a kept plan's sources
and scales are the very entries a fresh one would gather.

Where the bits are not promised: the payload of a NaN that meets
another NaN of a different payload.  IEEE 754 leaves open which
payload an addition of two NaNs returns, and numpy's per-element loop
and the vectorised add do not pick the same one: where ``np.nan`` and
the ``inf - inf`` NaN meet in a cell, the result is NaN either way but
its bits differ from ``np.add.at``'s (in 100 of 100 random inputs).
Inputs with NaNs of one payload match bit for bit.

``np.add.reduceat`` and ``sum(axis=0)`` are deliberately not used:
numpy reduces pairwise there, which changes the low bits of most
float32 results and so every golden.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.ranges import expand_ranges, stable_argsort

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
# The rounds of one chunk have their messages gathered and weighted by
# one ``take`` and one ``multiply``, so a round is then a single
# in-place add: at width 8, three numpy calls per round become one.
CHUNK_ELEMENTS = 1 << 16


def _validated(index: np.ndarray, num_rows: int, what: str = "scatter") -> np.ndarray:
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
            f"{what} index {bad} is out of range for num_rows={num_rows}"
        )
    if low < 0:
        index = np.where(index < 0, index + num_rows, index)
    return index


def _flat_operands(out: np.ndarray, dtype: np.dtype) -> bool:
    """Whether ``out`` and rows of ``dtype`` allow :func:`_add_at`'s
    flat form."""
    return out.dtype.kind == "f" and out.dtype == dtype and out.flags.c_contiguous


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
        and _flat_operands(out, values.dtype)
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


def _messages(x, gather, weights) -> np.ndarray:
    """``x[gather] * weights[:, None]``; ``gather`` / ``weights`` of
    ``None`` stand for the identity / no weighting."""
    rows = x if gather is None else x.take(gather, axis=0)
    return rows if weights is None else rows * weights.reshape(-1, 1)


def _schedule(index: np.ndarray, num_rows: int, width: int, min_elements: int):
    """The ranked rounds of a validated 1-D ``index`` over rows of
    ``width`` elements, or ``None`` when they would cover fewer than
    ``min_elements``.

    Returns ``(rows, active, edges, tail)``: the distinct rows by degree
    descending (ties in row order); how many of them -- a prefix -- are
    still active in each round; the edge every (round, active row) pair
    takes, round-major; and the hub edges past the last round, each
    row's run in edge order.
    """
    num_edges = index.size
    # Stable grouping by row; forward segment sums arrive sorted.
    if (index[1:] >= index[:-1]).all():
        order = None
        grouped = index
    else:
        order = stable_argsort(index, num_rows)
        grouped = index[order]
    is_start = np.empty(num_edges, dtype=bool)
    is_start[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    degree = np.append(starts[1:], num_edges) - starts
    top = int(degree.max())
    rank = stable_argsort(top - degree, top + 1)
    starts, degree = starts[rank], degree[rank]
    rows = grouped[starts]

    # Rounds run while they hold at least ROUND_ELEMENTS elements.
    tail_rows = -(-ROUND_ELEMENTS // width)
    rounds = int(degree[tail_rows - 1]) if len(rows) >= tail_rows else 0
    in_rounds = np.minimum(degree, rounds)
    if rounds == 0 or int(in_rounds.sum()) * width < min_elements:
        return None

    # active[k] = number of rows with degree > k (a prefix of the rank).
    ks = np.arange(rounds)
    active = len(rows) - np.searchsorted(degree[::-1], ks, side="right")
    ranks = expand_ranges(np.zeros(rounds, dtype=np.int64), active)
    edges = starts[ranks] + np.repeat(ks, active)
    left = degree - in_rounds
    hubs = int(np.count_nonzero(left))
    tail = expand_ranges(starts[:hubs] + rounds, left[:hubs])
    if order is not None:
        edges, tail = order[edges], order[tail]
    return rows, active.tolist(), edges, tail


class ScatterPlan:
    """The ranked rounds of one aggregation, laid out once.

    What :func:`_ranked_rounds` reads, for one ``(gather, index,
    weights)`` triple at one row width: ``rows`` ranked by degree, the
    round-ordered ``sources = gather[edges]`` and ``scales =
    weights[edges]``, the rounds grouped into ``chunks`` of ``(begin,
    end, active counts)`` whose messages are gathered together, and the
    hub tail's ``tail_index`` / ``tail_gather`` / ``tail_weights``.
    ``rows is None`` marks a flat plan: the rounds would not pay, so the
    block goes to :func:`_add_at` whole.  The edge order itself is not
    kept once ``sources`` and ``scales`` are derived.

    A plan is valid for the arrays it was built from (held by identity,
    as validated) under the cut-over constants of its build; :meth:`fits`
    is how a kept plan is checked before it is run again.
    """

    __slots__ = (
        "gather", "index", "weights", "constants", "rows", "chunks",
        "sources", "scales", "tail_index", "tail_gather", "tail_weights",
    )

    def __init__(self, gather, index, weights):
        self.gather, self.index, self.weights = gather, index, weights
        self.constants = (MIN_ELEMENTS, ROUND_ELEMENTS)
        self.rows = self.chunks = self.sources = self.scales = None
        self.tail_index = self.tail_gather = self.tail_weights = None

    def fits(self, gather, index, weights) -> bool:
        """Whether the plan is still the layout of these arrays."""
        return (
            self.gather is gather
            and self.index is index
            and self.weights is weights
            and self.constants == (MIN_ELEMENTS, ROUND_ELEMENTS)
        )


def _narrow(ids: np.ndarray, bound: int) -> np.ndarray:
    """``ids`` (all below ``bound``) as int32 when that holds them."""
    return ids.astype(np.int32) if bound <= np.iinfo(np.int32).max else ids


def _chunks(active, width: int):
    """Consecutive rounds grouped so that each group's messages hold at
    most ``CHUNK_ELEMENTS`` elements (a round larger than that alone)."""
    chunks, begin, counts, size = [], 0, [], 0
    for m in active:
        if counts and (size + m) * width > CHUNK_ELEMENTS:
            chunks.append((begin, begin + size, counts))
            begin, counts, size = begin + size, [], 0
        counts.append(m)
        size += m
    chunks.append((begin, begin + size, counts))
    return chunks


def _plan(gather, index, weights, num_inputs: int, num_rows: int, width: int,
          min_elements: int) -> ScatterPlan:
    """The plan of summing ``x[gather] * weights[:, None]`` by ``index``
    over rows of ``width`` elements (``gather`` of ``None``: the rows of
    ``x`` in edge order); both indices are validated."""
    plan = ScatterPlan(gather, index, weights)
    schedule = _schedule(index, num_rows, width, min_elements)
    if schedule is None:
        return plan
    rows, active, edges, tail = schedule
    plan.rows = _narrow(rows, num_rows)
    plan.chunks = _chunks(active, width)
    if gather is None:
        plan.sources = _narrow(edges, len(index))
    else:
        plan.sources = _narrow(gather.take(edges), num_inputs)
    if weights is not None:
        plan.scales = weights.take(edges).reshape(-1, 1)
    if len(tail):
        plan.tail_index = index.take(tail)
        plan.tail_gather = tail if gather is None else gather.take(tail)
        if weights is not None:
            plan.tail_weights = weights.take(tail)
    return plan


def _ranked_rounds(out: np.ndarray, plan: ScatterPlan, x: np.ndarray) -> None:
    """``np.add.at(out, index, x[gather] * weights[:, None])`` by the
    plan's ranked rounds, the message array never built: each chunk of
    rounds takes its rows straight from ``x`` and each round is one
    contiguous in-place add.  ``x`` is 2-D rows of the plan's width;
    with weights, ``out`` has the product's dtype."""
    # The product overwrites the gathered rows when it keeps their dtype.
    in_place = x.dtype == out.dtype
    sources, scales = plan.sources, plan.scales
    acc = out.take(plan.rows, axis=0)
    for begin, end, counts in plan.chunks:
        part = x.take(sources[begin:end], axis=0)
        if scales is not None:
            part = np.multiply(
                part, scales[begin:end], out=part if in_place else None
            )
        offset = 0
        for m in counts:
            acc[:m] += part[offset:offset + m]
            offset += m
    out[plan.rows] = acc

    if plan.tail_index is not None:
        _add_at(out, plan.tail_index, _messages(x, plan.tail_gather, plan.tail_weights))


def scatter_add_rows(out: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(out, index, values)`` for an integer ``index`` over
    axis 0, in place and bit-identical, without the per-element loop
    when ``index`` is 1-D and ``values`` a 2-D block of rows."""
    values = np.asarray(values)
    # The rounds must beat what the block would get instead: the flat
    # loop or, where that cannot run (float64 into float32, a strided
    # ``out``), numpy's own -- 3x to 19x slower per element, so a third
    # of the size already breaks even.
    min_elements = (
        MIN_ELEMENTS if _flat_operands(out, values.dtype) else MIN_ELEMENTS // 3
    )
    if values.ndim != 2 or values.size < min_elements:
        # A small block is done before its rows could be grouped.
        _add_at(out, index, values)
        return
    index = np.asarray(index)
    if (
        index.ndim != 1
        or index.dtype.kind not in "iu"
        or values.shape != (index.size,) + out.shape[1:]
        or values.dtype.kind != "f"
        or out.dtype.kind != "f"
    ):
        # A mask, a broadcast or a non-float cast: np.add.at's to resolve.
        _add_at(out, index, values)
        return
    if index.size == 0:
        return
    index = _validated(index, out.shape[0])
    plan = _plan(None, index, None, 0, out.shape[0], values.shape[1], min_elements)
    if plan.rows is None:
        _add_at(out, index, values)
    else:
        _ranked_rounds(out, plan, values)


def gather_scatter_rows(
    x: np.ndarray,
    gather: np.ndarray,
    scatter: np.ndarray,
    weights: Optional[np.ndarray],
    num_rows: int,
    plans: Optional[dict] = None,
) -> np.ndarray:
    """``x[gather] * weights[:, None]`` summed by ``scatter`` into a
    fresh ``(num_rows, ...)`` array -- gather, weight and reduce as one
    kernel, bit-identical to ``scatter_rows(scatter, x[gather] *
    weights[:, None], num_rows)`` with no E x d message array in between
    (``weights`` may be ``None``).  Swapping ``gather`` and ``scatter``
    gives the adjoint.

    Only what the rounds do not take is materialised: the hub tail, and
    whole blocks under the cut-over.  An out-of-range ``gather`` or
    ``scatter`` entry raises ``IndexError`` before anything is written.

    ``plans``, when given, is where the caller keeps this aggregation's
    :class:`ScatterPlan` per ``(width, weighted)``: a plan that still
    :meth:`~ScatterPlan.fits` is run again, any other is rebuilt and
    stored there.  Without it a plan is built for the call and dropped.
    """
    shape = (num_rows,) + x.shape[1:]
    num_edges = len(gather)
    if x.ndim != 2 or num_edges == 0 or num_edges * x.shape[1] < MIN_ELEMENTS:
        # A small block is the chain itself: numpy checks ``gather`` as
        # it builds the few messages, ``_add_at`` checks ``scatter``.
        messages = _messages(x, gather, weights)
        out = np.zeros(shape, dtype=messages.dtype)
        _add_at(out, scatter, messages)
        return out
    key = (x.shape[1], weights is not None)
    plan = None if plans is None else plans.get(key)
    if plan is None or not plan.fits(gather, scatter, weights):
        # Checked up front: a bad entry would otherwise surface rounds in.
        # Valid block positions come back as the same arrays, so the
        # plan they key is found again.
        gather = _validated(gather, len(x), "gather")
        scatter = _validated(scatter, num_rows)
        plan = _plan(
            gather, scatter, weights, len(x), num_rows, x.shape[1], MIN_ELEMENTS
        )
        if plans is not None:
            plans[key] = plan
    dtype = x.dtype if weights is None else np.result_type(x.dtype, weights.dtype)
    out = np.zeros(shape, dtype=dtype)
    if plan.rows is None:
        _add_at(out, scatter, _messages(x, gather, weights))
    else:
        _ranked_rounds(out, plan, x)
    return out


def scatter_rows(index: np.ndarray, values: np.ndarray, num_rows: int) -> np.ndarray:
    """Rows of ``values`` summed by ``index`` into a fresh
    ``(num_rows, ...)`` array of ``values``' dtype."""
    out = np.zeros((num_rows,) + values.shape[np.ndim(index):], dtype=values.dtype)
    scatter_add_rows(out, index, values)
    return out
