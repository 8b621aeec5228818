"""Kernel trajectory: ``scatter_add_rows`` against the ``np.add.at`` it replaced.

Real host wall-clock (``time.perf_counter``) of the aggregation kernel
under the autograd tape, on the call shapes the repo benchmark's
workloads actually make (recorded from ``benchmarks/e2e`` seed-0
operations) plus a Zipf-hub index whose hub rows outlive the rounds:

- ``sampled_l0_forward`` / ``sampled_l0_backward``: ``sampled_social``
  layer-0 segment sum and its gather adjoint (the >= 5x floor is taken
  on the forward shape);
- ``reddit_forward`` / ``reddit_backward`` / ``reddit_accumulate``:
  ``fullbatch_reddit`` aggregation at width 602, the layer-2 gather
  adjoint (unsorted) and ``LayerExecutor.accumulate``'s gradient
  routing, all float32 as training runs them;
- ``float64_backward`` / ``float64_accumulate``: the same two adjoint
  shapes for a float64 model (gradcheck and float64 reference runs),
  whose float64 gradients ``LayerExecutor.accumulate`` adds into its
  float32 accumulator;
- ``serve_closure_small`` / ``serve_closure_large``: ``serve_social``
  float64 closures, the most common one (below the cut-over, so this
  measures what the early exit costs) and the largest bucket;
- ``zipf_hub``: a power-law index with a non-empty hub tail.

The before/after comparison is built in, PR 10's convention: both
implementations run in this process on the same arrays, interleaved
sample by sample with the order alternating, so host drift cancels out
of the min-vs-min ratio.  Asserted on every run: the two results are
equal as raw bits on every shape, no shape is more than 10 % slower
than ``np.add.at``, and the sampled layer-0 forward shape is at least
5x faster.  The shapes under the cut-over (``UNDER_CUTOVER``) are
``_add_at`` plus two index checks, microseconds in which a 10 % bound
measures clock noise; for them the assert is structural instead --
the kernel never reaches ``_schedule`` -- and their timings are
reported for information only.

A second table decides ``MIN_ELEMENTS``: three-way ``np.add.at`` / flat
(``_add_at``'s 1-D indexed form) / ranked rounds (the kernel forced to
run its rounds to the last edge) on the serve-shaped blocks either side
of the cut-over, on ``zipf_hub``'s tail (what is left of the hub rows
once the rounds stop) and on a size sweep around the break-even.  All
three results are bit-equal on every row, and the flat form is at least
2x faster than ``np.add.at`` on the 93 x 64 block.

A third table is the fused aggregation: ``gather_scatter_rows`` against
the chain it replaced (``x[gather] * weights[:, None]`` built whole,
then ``scatter_rows``) on the calls the layers make --
``aggregate_reddit_forward`` / ``aggregate_reddit_adjoint``
(``fullbatch_reddit`` layer 1 forward and the layer-2 adjoint, float32
throughout), ``aggregate_float64_adjoint`` (that adjoint for a float64
model: float64 gradients against float32 weights), ``aggregate_sampled_bottom``
(``sampled_social``'s bottom block), ``aggregate_serve_closure``
(``serve_social``'s most common closure, under the cut-over, where the
kernel *is* the chain plus two index checks) and ``aggregate_serve_fill``
(the serving memo's layer-1 fill block today: float32 feature rows by
global id times float64 weights, so the product is not formed in place,
17 448 edges from 40 960 rows into 1 024).  Bits are equal on every
row, the reddit forward shape is at least 1.3x faster, and no row is
more than 10 % slower.

A fourth table is plan reuse, on the two calls ``fullbatch_reddit``
makes every epoch today (seed 0; layer 1 reads the memo and layer 2
multiplies first, so it aggregates 8 wide): ``plan_reddit_forward``,
6 641 edges from 600 inputs into 75 rows, sorted, and
``plan_reddit_adjoint``, the same edges into 600 rows, unsorted.  Each
is timed two ways, interleaved: a fresh plan per call (what a block
aggregated once pays) and the block's kept plan (every later epoch),
plus the kept plan with ``CHUNK_ELEMENTS`` set to 0 (one ``take`` per
round), for information.  Both results are bit-equal to ``np.add.at``,
and the kept plan is at least ``MIN_PLAN_REUSE_SPEEDUP`` faster than a
fresh one on both rows.

Rows that no longer match a call the workloads make (seed 0, recorded
by wrapping both kernels):

- every row of the first table: ``scatter_add_rows`` is now reached
  only by the adjoint of the loss rows' gather (at most 128 indices,
  16 wide, under the cut-over).  Reddit's layer 1 reads the memoised
  aggregate and layer 2 aggregates 8 wide through
  ``gather_scatter_rows``, the sampled bottom goes through the layer-1
  store, ``LayerExecutor.accumulate`` adds a route chunk's rows
  directly (no position repeats), and ``serve_social`` serves every
  seed-0 request from the closure memo;
- ``aggregate_reddit_adjoint`` and ``aggregate_float64_adjoint``:
  layer 2 multiplies first and aggregates 8 wide, not 256;
- ``aggregate_serve_closure``: the memo's fills are blocks of ~17.5 k
  edges into 1 024 rows, and no closure is aggregated on its own (its
  layer-1 fill is ``aggregate_serve_fill``; the layer-2 fill blocks
  aggregate float64 rows of the memo, 16 wide).

``aggregate_reddit_forward`` is still epoch 0's layer-1 memo fill on
one worker, and ``aggregate_sampled_bottom`` approximates the layer-1
store's cold fill (which gathers from all 40 960 feature rows, not the
closure's 9 902).  The rows are kept as the kernel's trajectory.

A fifth row is the layer above the kernel: one ``sampled_social``
epoch's layer-1 forwards (seed 0: 195 bottom blocks of ``social-large``
at fanouts 10,25) through
:class:`~repro.core.feature_aggregate.FeatureAggregateStore` against
the chain it replaced, kept here -- ``features[input_vertices]`` copied
per closure, then ``layer.forward`` over the whole block.  Both store
states are timed: *cold* (an empty store, every row computed and the
full ones written back: the first epoch of a run) and *warm* (the
second pass over the same store: every later epoch).  Every block's
output is bit-equal in both states, cold is no more than 10 % slower
than the chain, and warm is at least 3x faster.

Run ``python benchmarks/bench_scatter_add.py --json BENCH_tensor.json``
for the committed numbers, ``--smoke`` for the CI configuration (fewer
samples, same asserts).
"""

import argparse
import time
from contextlib import contextmanager

import numpy as np

from common import write_json
from repro.cluster.spec import ClusterSpec
from repro.core.feature_aggregate import FeatureAggregateStore
from repro.core.model import GNNModel
from repro.graph.datasets import load_dataset, spec_of
from repro.sampling.engine import SampledTrainingEngine
from repro.tensor import scatter
from repro.tensor.scatter import gather_scatter_rows, scatter_add_rows, scatter_rows
from repro.tensor.tensor import Tensor, no_grad
from repro.training.prep import prepare_graph

FLOOR_SHAPE = "sampled_l0_forward"
MIN_FLOOR_SPEEDUP = 5.0
MAX_SLOWDOWN = 1.10
FLAT_FLOOR_SHAPE = "serve_93x64"
MIN_FLAT_SPEEDUP = 2.0
AGGREGATE_FLOOR_SHAPE = "aggregate_reddit_forward"
MIN_AGGREGATE_SPEEDUP = 1.3
MIN_WARM_STORE_SPEEDUP = 3.0
MIN_PLAN_REUSE_SPEEDUP = 1.25
# Below the cut-over: asserted never to schedule rounds, not timed.
UNDER_CUTOVER = ("serve_closure_small", "aggregate_serve_closure")
# One timing sample loops the call until it has run about this long, so
# microsecond-sized shapes are not measuring the clock.
SAMPLE_SECONDS = 0.005

# name -> (num_edges, num_rows, width, index kind, out dtype, values dtype)
SHAPES = {
    "sampled_l0_forward": (15306, 1154, 64, "sorted", "f4", "f4"),
    "sampled_l0_backward": (15306, 14000, 64, "unsorted", "f4", "f4"),
    "reddit_forward": (6121, 75, 602, "sorted", "f4", "f4"),
    "reddit_backward": (6670, 600, 256, "unsorted", "f4", "f4"),
    "reddit_accumulate": (75, 75, 256, "permutation", "f4", "f4"),
    "float64_backward": (6670, 600, 256, "unsorted", "f8", "f8"),
    "float64_accumulate": (75, 75, 256, "permutation", "f4", "f8"),
    "serve_closure_small": (16, 1, 64, "sorted", "f8", "f8"),
    "serve_closure_large": (400, 22, 64, "sorted", "f8", "f8"),
    "zipf_hub": (20000, 2000, 64, "zipf", "f4", "f4"),
}


# name -> the same columns: the blocks that decide MIN_ELEMENTS.  The
# serve rows are serve_social's median and 99th-percentile closures; the
# sweep doubles a sampled-shaped block (fan-in 13) through the break-even.
CUTOVER_SHAPES = {
    "serve_93x64": (93, 30, 64, "sorted", "f8", "f8"),
    "serve_400x64": (400, 22, 64, "sorted", "f8", "f8"),
    "zipf_hub_tail": (20000, 2000, 64, "zipf-tail", "f4", "f4"),
    **{
        f"sweep_{edges}x64": (edges, edges // 13, 64, "unsorted", "f4", "f4")
        for edges in (200, 400, 800, 1600)
    },
}


# Seed-0 calls of FusedGatherScatter.forward / .backward.
AGGREGATE_COLUMNS = (
    "num_edges", "num_inputs", "num_rows", "width", "index", "x_dtype", "weights_dtype"
)
AGGREGATE_SHAPES = {
    "aggregate_reddit_forward": (6641, 600, 75, 602, "sorted", "f4", "f4"),
    "aggregate_reddit_adjoint": (6641, 75, 600, 256, "unsorted", "f4", "f4"),
    "aggregate_float64_adjoint": (6641, 75, 600, 256, "unsorted", "f8", "f4"),
    "aggregate_sampled_bottom": (19515, 9902, 1161, 64, "sorted", "f4", "f4"),
    "aggregate_serve_closure": (17, 17, 1, 64, "sorted", "f8", "f4"),
    "aggregate_serve_fill": (17448, 40960, 1024, 64, "sorted", "f4", "f8"),
}

# Seed-0 layer-2 calls of fullbatch_reddit, the same columns: a block's
# kept plan against a fresh one.
PLAN_SHAPES = {
    "plan_reddit_forward": (6641, 600, 75, 8, "sorted", "f4", "f4"),
    "plan_reddit_adjoint": (6641, 75, 600, 8, "unsorted", "f4", "f4"),
}


def _hub_tail():
    """What ``zipf_hub``'s rounds leave for the small-call helper: the
    helper's own arguments, captured from one kernel call."""
    index, values, out = _case("zipf_hub")
    captured = []
    helper = scatter._add_at
    scatter._add_at = lambda out, index, values: captured.append((index, values))
    try:
        scatter_add_rows(out.copy(), index, values)
    finally:
        scatter._add_at = helper
    ((tail_index, tail_values),) = captured
    return tail_index, tail_values, out


def _case(name):
    num_edges, num_rows, width, kind, out_dtype, values_dtype = {
        **SHAPES, **CUTOVER_SHAPES
    }[name]
    rng = np.random.default_rng(0)
    if kind == "zipf-tail":
        return _hub_tail()
    if kind == "zipf":
        index = np.minimum(rng.zipf(1.3, size=num_edges) - 1, num_rows - 1)
    elif kind == "permutation":
        index = rng.permutation(num_rows)[:num_edges]
    else:
        index = rng.integers(0, num_rows, size=num_edges)
        if kind == "sorted":
            index = np.sort(index)
    values = rng.standard_normal((num_edges, width)).astype(values_dtype)
    return index.astype(np.int64), values, np.zeros((num_rows, width), out_dtype)


def _sample(fn, args, calls):
    t0 = time.perf_counter()
    for _ in range(calls):
        fn(*args)
    return (time.perf_counter() - t0) / calls


def _stats(runs):
    runs = sorted(runs)
    return {"min_s": runs[0], "median_s": runs[len(runs) // 2], "runs": runs}


def _schedule_calls(fn, *args):
    """How many times ``fn(*args)`` reaches the kernel's ``_schedule``."""
    calls = []
    schedule = scatter._schedule
    scatter._schedule = lambda *a: calls.append(1) or schedule(*a)
    try:
        fn(*args)
    finally:
        scatter._schedule = schedule
    return len(calls)


def _bit_equal(a, b):
    bits = {4: np.uint32, 8: np.uint64}[a.dtype.itemsize]
    return bool(np.array_equal(a.view(bits), b.view(bits)))


def _interleaved(sides, args, repeats):
    """Per-call seconds of each ``fn(*args)`` in ``sides``, sampled in
    turn with the order reversing every round."""
    calls = max(1, int(SAMPLE_SECONDS / _sample(sides[-1], args, 1)))
    runs = [[] for _ in sides]
    turn = list(range(len(sides)))
    for _ in range(repeats):
        for i in turn:
            runs[i].append(_sample(sides[i], args, calls))
        turn.reverse()
    return [_stats(r) for r in runs]


def measure_pair(name, repeats):
    """Interleaved kernel / ``np.add.at`` per-call seconds on one shape."""
    index, values, out = _case(name)
    expected, got = out.copy(), out.copy()
    np.add.at(expected, index, values)
    scatter_add_rows(got, index, values)
    kernel, plain = _interleaved(
        [scatter_add_rows, np.add.at], (out, index, values), repeats
    )
    scheduled = _schedule_calls(scatter_add_rows, out.copy(), index, values)
    return _bit_equal(got, expected), kernel, plain, scheduled


@contextmanager
def _rounds_to_the_last_edge():
    saved = scatter.MIN_ELEMENTS, scatter.ROUND_ELEMENTS
    scatter.MIN_ELEMENTS, scatter.ROUND_ELEMENTS = 0, 1
    try:
        yield
    finally:
        scatter.MIN_ELEMENTS, scatter.ROUND_ELEMENTS = saved


def _rounds(out, index, values):
    with _rounds_to_the_last_edge():
        scatter_add_rows(out, index, values)


def measure_cutover(name, repeats):
    """Three-way flat / rounds / ``np.add.at`` per-call seconds, and
    the number of edges the case really has (the tail's is derived)."""
    index, values, out = _case(name)
    results = []
    for fn in (np.add.at, scatter._add_at, _rounds):
        result = out.copy()
        fn(result, index, values)
        results.append(result)
    bit_equal = all(_bit_equal(results[0], other) for other in results[1:])
    flat, rounds, plain = _interleaved(
        [scatter._add_at, _rounds, np.add.at], (out, index, values), repeats
    )
    return bit_equal, len(index), flat, rounds, plain


def _chain(x, gather, index, weights, num_rows):
    """The aggregation before the kernel: the E x d message array built
    whole, then summed by destination."""
    return scatter_rows(index, x[gather] * weights.reshape(-1, 1), num_rows)


def _aggregate_args(shape):
    num_edges, num_inputs, num_rows, width, kind, x_dtype, w_dtype = shape
    rng = np.random.default_rng(0)
    x = rng.standard_normal((num_inputs, width)).astype(x_dtype)
    gather = rng.integers(0, num_inputs, size=num_edges)
    index = rng.integers(0, num_rows, size=num_edges)
    if kind == "sorted":
        index = np.sort(index)
    weights = rng.random(num_edges).astype(w_dtype)
    return x, gather, index, weights, num_rows


def measure_aggregate(name, repeats):
    """Interleaved kernel / chain per-call seconds on one layer call."""
    args = _aggregate_args(AGGREGATE_SHAPES[name])
    got, expected = gather_scatter_rows(*args), _chain(*args)
    bit_equal = got.dtype == expected.dtype and _bit_equal(got, expected)
    kernel, chain = _interleaved([gather_scatter_rows, _chain], args, repeats)
    return bit_equal, kernel, chain, _schedule_calls(gather_scatter_rows, *args)


def _unchunked(fn):
    """``fn`` with every round gathering its own messages."""
    def run(*args):
        saved = scatter.CHUNK_ELEMENTS
        scatter.CHUNK_ELEMENTS = 0
        try:
            return fn(*args)
        finally:
            scatter.CHUNK_ELEMENTS = saved
    return run


def measure_plan(name, repeats):
    """Interleaved fresh-plan / kept-plan / kept-unchunked per-call
    seconds on one layer call, and bit-equality with ``np.add.at``."""
    x, gather, index, weights, num_rows = _aggregate_args(PLAN_SHAPES[name])
    expected = np.zeros((num_rows, x.shape[1]), dtype=np.result_type(x, weights))
    np.add.at(expected, index, x[gather] * weights.reshape(-1, 1))
    kept, unchunked = {}, {}
    fresh = gather_scatter_rows

    def reused(*args):
        return gather_scatter_rows(*args, kept)

    @_unchunked
    def reused_unchunked(*args):
        return gather_scatter_rows(*args, unchunked)

    args = (x, gather, index, weights, num_rows)
    results = [fn(*args) for fn in (fresh, reused, reused, reused_unchunked)]
    bit_equal = all(
        got.dtype == expected.dtype and _bit_equal(got, expected) for got in results
    )
    # Samples are ~5 ms: even --smoke takes enough of them for the
    # min-vs-min ratio to shed a noisy neighbour.
    times = _interleaved([fresh, reused, reused_unchunked], args, max(repeats, 9))
    return bit_equal, times, _schedule_calls(reused, *args)


def _layer_one_chain(layer, features, blocks):
    """Layer 1 before the store: the input rows copied per closure,
    then the whole block through ``layer.forward``."""
    return [
        layer.forward(block, Tensor(features[block.input_vertices])).data
        for block in blocks
    ]


def measure_layer_one_epoch(repeats):
    """One ``sampled_social`` epoch's layer-1 forwards: interleaved
    chain / cold store / warm store seconds per epoch."""
    dataset = "social-large"
    graph = prepare_graph(load_dataset(dataset, seed=0), "gcn")
    model = GNNModel.build(
        "gcn", graph.feature_dim, spec_of(dataset).hidden_dim,
        graph.num_classes, seed=0,
    )
    engine = SampledTrainingEngine(
        graph, model, ClusterSpec.ecs(8), fanouts=(10, 25), batch_size=128,
        sampler="uniform", seed=0,
    )
    blocks = [
        closures[w].blocks[0]
        for _, closures, _, _, _ in engine.rounds(shuffle=True)
        for w in sorted(closures)
    ]
    layer = model.layer(1)
    warm_store = FeatureAggregateStore(graph)

    def chain():
        return _layer_one_chain(layer, graph.features, blocks)

    def through(store):
        return [store.forward(layer, block).data for block in blocks]

    def cold():
        return through(FeatureAggregateStore(graph))

    def warm():
        return through(warm_store)

    with no_grad():
        expected = chain()
        states = [cold(), warm()]  # warm()'s first pass fills its store
        memoised = warm_store.rows_memoised
        states.append(warm())
        memoised = warm_store.rows_memoised - memoised
        bit_equal = all(
            got.dtype == want.dtype and _bit_equal(got, want)
            for state in states
            for got, want in zip(state, expected)
        )
        # A sample is a whole epoch's pass: even --smoke takes enough of
        # them for the min-vs-min ratio to shed a noisy neighbour.
        chain_s, cold_s, warm_s = _interleaved(
            [chain, cold, warm], (), max(repeats, 7)
        )
    return {
        "shape": "layer_one_epoch",
        "dataset": dataset,
        "closures": len(blocks),
        "rows": sum(block.num_outputs for block in blocks),
        "edges": sum(block.num_edges for block in blocks),
        "rows_memoised_warm": memoised,
        "bit_equal": bit_equal,
        "chain_s": chain_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_speedup": chain_s["min_s"] / cold_s["min_s"],
        "warm_speedup": chain_s["min_s"] / warm_s["min_s"],
    }


def run_experiment(repeats=15):
    rows = []
    for name, (num_edges, num_rows, width, kind, out_dtype, values_dtype) in SHAPES.items():
        bit_equal, kernel, plain, scheduled = measure_pair(name, repeats)
        row = {
            "shape": name,
            "num_edges": num_edges,
            "num_rows": num_rows,
            "width": width,
            "index": kind,
            "out_dtype": out_dtype,
            "values_dtype": values_dtype,
            "bit_equal": bit_equal,
            "kernel_s": kernel,
            "add_at_s": plain,
            "speedup": plain["min_s"] / kernel["min_s"],
            "schedule_calls": scheduled,
        }
        rows.append(row)
        print(
            f"{name:>20}: kernel {kernel['min_s']*1e3:8.3f} ms "
            f"(np.add.at {plain['min_s']*1e3:8.3f} ms, {row['speedup']:.2f}x)"
            f"{'' if bit_equal else '  BITS DIFFER'}"
        )

    cutover = []
    for name, (_, num_rows, width, kind, out_dtype, _) in CUTOVER_SHAPES.items():
        bit_equal, num_edges, flat, ranked, plain = measure_cutover(name, repeats)
        cutover.append({
            "shape": name,
            "num_edges": num_edges,
            "num_rows": num_rows,
            "width": width,
            "elements": num_edges * width,
            "index": kind,
            "dtype": out_dtype,
            "bit_equal": bit_equal,
            "flat_s": flat,
            "rounds_s": ranked,
            "add_at_s": plain,
            "flat_speedup": plain["min_s"] / flat["min_s"],
            "faster": "flat" if flat["min_s"] <= ranked["min_s"] else "rounds",
        })
        print(
            f"{name:>20}: flat {flat['min_s']*1e6:8.1f} us, rounds "
            f"{ranked['min_s']*1e6:8.1f} us, np.add.at {plain['min_s']*1e6:8.1f} us "
            f"({num_edges * width} elements)"
            f"{'' if bit_equal else '  BITS DIFFER'}"
        )

    aggregate = []
    for name, shape in AGGREGATE_SHAPES.items():
        bit_equal, kernel, chain, scheduled = measure_aggregate(name, repeats)
        row = {
            "shape": name,
            **dict(zip(AGGREGATE_COLUMNS, shape)),
            "bit_equal": bit_equal,
            "kernel_s": kernel,
            "chain_s": chain,
            "speedup": chain["min_s"] / kernel["min_s"],
            "schedule_calls": scheduled,
        }
        aggregate.append(row)
        print(
            f"{name:>26}: kernel {kernel['min_s']*1e3:8.3f} ms "
            f"(chain {chain['min_s']*1e3:8.3f} ms, {row['speedup']:.2f}x)"
            f"{'' if bit_equal else '  BITS DIFFER'}"
        )

    plans = []
    for name, shape in PLAN_SHAPES.items():
        bit_equal, (fresh, reused, unchunked), scheduled = measure_plan(name, repeats)
        row = {
            "shape": name,
            **dict(zip(AGGREGATE_COLUMNS, shape)),
            "bit_equal": bit_equal,
            "fresh_plan_s": fresh,
            "kept_plan_s": reused,
            "kept_plan_unchunked_s": unchunked,
            "reuse_speedup": fresh["min_s"] / reused["min_s"],
            "chunk_speedup": unchunked["min_s"] / reused["min_s"],
            "kept_plan_schedule_calls": scheduled,
        }
        plans.append(row)
        print(
            f"{name:>26}: kept plan {reused['min_s']*1e6:8.1f} us "
            f"(fresh {fresh['min_s']*1e6:8.1f} us, {row['reuse_speedup']:.2f}x; "
            f"unchunked {unchunked['min_s']*1e6:8.1f} us)"
            f"{'' if bit_equal else '  BITS DIFFER'}"
        )

    layer_one = measure_layer_one_epoch(repeats)
    print(
        f"{layer_one['shape']:>26}: store warm {layer_one['warm_s']['min_s']*1e3:8.1f} ms"
        f" / cold {layer_one['cold_s']['min_s']*1e3:8.1f} ms per epoch of "
        f"{layer_one['closures']} closures (chain "
        f"{layer_one['chain_s']['min_s']*1e3:8.1f} ms, warm "
        f"{layer_one['warm_speedup']:.2f}x, cold {layer_one['cold_speedup']:.2f}x; "
        f"floor warm {MIN_WARM_STORE_SPEEDUP:.1f}x)"
        f"{'' if layer_one['bit_equal'] else '  BITS DIFFER'}"
    )

    by_name = {row["shape"]: row for row in rows + aggregate}
    aggregate_speedup = by_name[AGGREGATE_FLOOR_SHAPE]["speedup"]
    floor_speedup = by_name[FLOOR_SHAPE]["speedup"]
    flat_speedup = {row["shape"]: row for row in cutover}[FLAT_FLOOR_SHAPE]["flat_speedup"]
    print(
        f"{FLOOR_SHAPE}: {floor_speedup:.2f}x (floor {MIN_FLOOR_SPEEDUP:.1f}x); "
        f"{FLAT_FLOOR_SHAPE} flat: {flat_speedup:.2f}x (floor {MIN_FLAT_SPEEDUP:.1f}x); "
        f"{AGGREGATE_FLOOR_SHAPE}: {aggregate_speedup:.2f}x "
        f"(floor {MIN_AGGREGATE_SPEEDUP:.1f}x)"
    )
    for row in rows + cutover + aggregate + plans + [layer_one]:
        assert row["bit_equal"], f"{row['shape']}: result differs from the reference"
    for row in plans:
        assert row["kept_plan_schedule_calls"] == 0, (
            f"{row['shape']}: a kept plan scheduled its rounds again"
        )
        assert row["reuse_speedup"] >= MIN_PLAN_REUSE_SPEEDUP, (
            f"{row['shape']}: kept plan {row['reuse_speedup']:.2f}x a fresh one, "
            f"below the {MIN_PLAN_REUSE_SPEEDUP:.2f}x floor"
        )
    assert layer_one["cold_speedup"] * MAX_SLOWDOWN >= 1.0, (
        f"cold store {1.0 / layer_one['cold_speedup']:.2f}x slower than the chain"
    )
    assert layer_one["warm_speedup"] >= MIN_WARM_STORE_SPEEDUP, (
        f"warm store speedup {layer_one['warm_speedup']:.2f}x is below the "
        f"{MIN_WARM_STORE_SPEEDUP:.1f}x floor"
    )
    for row in rows + aggregate:
        if row["shape"] in UNDER_CUTOVER:
            assert row["schedule_calls"] == 0, (
                f"{row['shape']}: under the cut-over, yet the kernel scheduled rounds"
            )
            continue
        assert row["speedup"] * MAX_SLOWDOWN >= 1.0, (
            f"{row['shape']}: {1.0 / row['speedup']:.2f}x slower than before"
        )
    assert aggregate_speedup >= MIN_AGGREGATE_SPEEDUP, (
        f"{AGGREGATE_FLOOR_SHAPE} speedup {aggregate_speedup:.2f}x is below the "
        f"{MIN_AGGREGATE_SPEEDUP:.1f}x floor"
    )
    assert floor_speedup >= MIN_FLOOR_SPEEDUP, (
        f"{FLOOR_SHAPE} speedup {floor_speedup:.2f}x is below the "
        f"{MIN_FLOOR_SPEEDUP:.1f}x floor"
    )
    assert flat_speedup >= MIN_FLAT_SPEEDUP, (
        f"{FLAT_FLOOR_SHAPE} flat form is {flat_speedup:.2f}x np.add.at, below "
        f"the {MIN_FLAT_SPEEDUP:.1f}x floor"
    )
    return {
        "shapes": rows,
        "cutover": cutover,
        "aggregate": aggregate,
        "plans": plans,
        "min_plan_reuse_speedup": MIN_PLAN_REUSE_SPEEDUP,
        "chunk_elements": scatter.CHUNK_ELEMENTS,
        "layer_one_epoch": layer_one,
        "min_warm_store_speedup": MIN_WARM_STORE_SPEEDUP,
        "aggregate_floor_shape": AGGREGATE_FLOOR_SHAPE,
        "aggregate_speedup": aggregate_speedup,
        "min_aggregate_speedup": MIN_AGGREGATE_SPEEDUP,
        "min_elements": scatter.MIN_ELEMENTS,
        "floor_shape": FLOOR_SHAPE,
        "floor_speedup": floor_speedup,
        "min_floor_speedup": MIN_FLOOR_SPEEDUP,
        "flat_floor_shape": FLAT_FLOOR_SHAPE,
        "flat_speedup": flat_speedup,
        "min_flat_speedup": MIN_FLAT_SPEEDUP,
        "max_slowdown": MAX_SLOWDOWN,
        "under_cutover": list(UNDER_CUTOVER),
        "repeats": repeats,
    }


def test_scatter_add_smoke():
    result = run_experiment(repeats=3)
    assert result["floor_speedup"] >= MIN_FLOOR_SPEEDUP


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="scatter_add_rows vs np.add.at kernel trajectory"
    )
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the result dictionary to PATH as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="CI configuration: 3 samples per shape")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing samples per shape (default 15, 3 with --smoke)")
    args = parser.parse_args()
    repeats = args.repeats if args.repeats is not None else (
        3 if args.smoke else 15
    )
    write_json(args.json, run_experiment(repeats=repeats))
