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
  adjoint (float64, unsorted) and ``LayerExecutor.accumulate``'s
  float64-into-float32 gradient routing;
- ``serve_closure_small`` / ``serve_closure_large``: ``serve_social``
  float64 closures, the most common one (below the cut-over, so this
  measures what the early exit costs) and the largest bucket;
- ``zipf_hub``: a power-law index with a non-empty ``np.add.at`` tail.

The before/after comparison is built in, PR 10's convention: both
implementations run in this process on the same arrays, interleaved
sample by sample with the order alternating, so host drift cancels out
of the min-vs-min ratio.  Asserted on every run: the two results are
equal as raw bits on every shape, no shape is more than 10 % slower
than ``np.add.at``, and the sampled layer-0 forward shape is at least
5x faster.

Run ``python benchmarks/bench_scatter_add.py --json BENCH_tensor.json``
for the committed numbers, ``--smoke`` for the CI configuration (fewer
samples, same asserts).
"""

import argparse
import time

import numpy as np

from common import write_json
from repro.tensor.scatter import scatter_add_rows

FLOOR_SHAPE = "sampled_l0_forward"
MIN_FLOOR_SPEEDUP = 5.0
MAX_SLOWDOWN = 1.10
# One timing sample loops the call until it has run about this long, so
# microsecond-sized shapes are not measuring the clock.
SAMPLE_SECONDS = 0.005

# name -> (num_edges, num_rows, width, index kind, out dtype, values dtype)
SHAPES = {
    "sampled_l0_forward": (15306, 1154, 64, "sorted", "f4", "f4"),
    "sampled_l0_backward": (15306, 14000, 64, "unsorted", "f4", "f4"),
    "reddit_forward": (6121, 75, 602, "sorted", "f4", "f4"),
    "reddit_backward": (6670, 600, 256, "unsorted", "f8", "f8"),
    "reddit_accumulate": (75, 75, 256, "permutation", "f4", "f8"),
    "serve_closure_small": (16, 1, 64, "sorted", "f8", "f8"),
    "serve_closure_large": (400, 22, 64, "sorted", "f8", "f8"),
    "zipf_hub": (20000, 2000, 64, "zipf", "f4", "f4"),
}


def _case(name):
    num_edges, num_rows, width, kind, out_dtype, values_dtype = SHAPES[name]
    rng = np.random.default_rng(0)
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


def _sample(fn, out, index, values, calls):
    out[:] = 0.0
    t0 = time.perf_counter()
    for _ in range(calls):
        fn(out, index, values)
    return (time.perf_counter() - t0) / calls


def _stats(runs):
    runs = sorted(runs)
    return {"min_s": runs[0], "median_s": runs[len(runs) // 2], "runs": runs}


def measure_pair(name, repeats):
    """Interleaved kernel / ``np.add.at`` per-call seconds on one shape."""
    index, values, out = _case(name)
    expected, got = out.copy(), out.copy()
    np.add.at(expected, index, values)
    scatter_add_rows(got, index, values)
    bits = {4: np.uint32, 8: np.uint64}[out.dtype.itemsize]
    bit_equal = bool(np.array_equal(got.view(bits), expected.view(bits)))

    calls = max(1, int(SAMPLE_SECONDS / _sample(np.add.at, out, index, values, 1)))
    kernel, plain = [], []
    pair = [(scatter_add_rows, kernel), (np.add.at, plain)]
    for _ in range(repeats):
        for fn, runs in pair:
            runs.append(_sample(fn, out, index, values, calls))
        pair.reverse()
    return bit_equal, _stats(kernel), _stats(plain)


def run_experiment(repeats=15):
    rows = []
    for name, (num_edges, num_rows, width, kind, out_dtype, values_dtype) in SHAPES.items():
        bit_equal, kernel, plain = measure_pair(name, repeats)
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
        }
        rows.append(row)
        print(
            f"{name:>20}: kernel {kernel['min_s']*1e3:8.3f} ms "
            f"(np.add.at {plain['min_s']*1e3:8.3f} ms, {row['speedup']:.2f}x)"
            f"{'' if bit_equal else '  BITS DIFFER'}"
        )
    by_name = {row["shape"]: row for row in rows}
    floor_speedup = by_name[FLOOR_SHAPE]["speedup"]
    print(
        f"{FLOOR_SHAPE}: {floor_speedup:.2f}x (floor {MIN_FLOOR_SPEEDUP:.1f}x)"
    )
    for row in rows:
        assert row["bit_equal"], f"{row['shape']}: result differs from np.add.at"
        assert row["speedup"] * MAX_SLOWDOWN >= 1.0, (
            f"{row['shape']}: {1.0 / row['speedup']:.2f}x slower than np.add.at"
        )
    assert floor_speedup >= MIN_FLOOR_SPEEDUP, (
        f"{FLOOR_SHAPE} speedup {floor_speedup:.2f}x is below the "
        f"{MIN_FLOOR_SPEEDUP:.1f}x floor"
    )
    return {
        "shapes": rows,
        "floor_shape": FLOOR_SHAPE,
        "floor_speedup": floor_speedup,
        "min_floor_speedup": MIN_FLOOR_SPEEDUP,
        "max_slowdown": MAX_SLOWDOWN,
        "repeats": repeats,
    }


def test_scatter_add_smoke(benchmark):
    result = run_experiment(repeats=3)
    assert result["floor_speedup"] >= MIN_FLOOR_SPEEDUP
    index, values, out = _case(FLOOR_SHAPE)
    benchmark(lambda: scatter_add_rows(out, index, values))


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
