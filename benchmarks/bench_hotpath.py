"""Hot-path wall-clock trajectory: vectorized sparse path vs the seed.

Unlike ``bench_paper.py``'s experiments (which report *modeled* cluster
seconds), this one measures **real host wall-clock** of the two hot
loops the vectorization PR rewrote:

- ``epoch_s``: one sampled-training ``charge_epoch`` -- sampling,
  block building, compile, and accounting for every
  mini-batch round (the data-management epoch);
- ``compile_s``: one full-graph hybrid plan compile -- k-hop closures,
  block building, and program construction;
- ``load_s``: one cold start -- uncached dataset generation,
  ``prepare_graph``, then the CSR and CSC indexes.

The before/after comparison is built in: ``reference_mode()``
reinstalls the pre-vectorization implementations (per-vertex slice
loops, ``searchsorted`` lookups, ``np.unique`` unions, full-candidate
``np.lexsort`` sampler ranking, ``intersect1d``/``setdiff1d`` set
algebra, Algorithm 4 as a heap of scalar ``t_r`` walks, the Zipf draw
as one ``np.searchsorted`` and the indexes' int64 stable argsort), kept verbatim
from the seed revision (the sampler ranking behind the current
per-round hook signature), and every measurement runs once per mode on
the same graph and seeds.  The headline asserts: the vectorized epoch
is at least ``--min-speedup`` (default 5x) faster than the reference on
the largest generator in the ladder, and the hybrid compile at least
3x faster on ``social-large`` (measured in smoke mode too).  Every cold
start also asserts that both modes build array-equal graphs and
indexes.

Run ``python benchmarks/bench_hotpath.py --json BENCH_hotpath.json``
for the full ladder up to ``social-large``, or ``--smoke`` for the CI
configuration (small graphs, 2x floor).
"""

import argparse
import contextlib
import gc
import sys
import time
from pathlib import Path

import numpy as np

from common import write_json
from repro.cluster.spec import ClusterSpec
from repro.core import blocks as B
from repro.core.model import GNNModel
from repro.engines import HybridEngine
from repro.engines import hybrid as H
from repro.graph import adjacency as A
from repro.graph import datasets as D
from repro.graph import generators as G
from repro.graph.adjacency import Adjacency
from repro.graph.datasets import load_dataset
from repro.sampling import compile as C
from repro.sampling import samplers as S
from repro.sampling.engine import SampledTrainingEngine
from repro.training.prep import prepare_graph
from repro.utils.rng import hashed_uniforms

# The seed-revision scalar greedy and the lexsort rank live with the
# tests that use them as their reference; one copy serves both.
_TESTS = Path(__file__).resolve().parent.parent / "tests"
sys.path.insert(0, str(_TESTS / "costmodel"))
sys.path.insert(0, str(_TESTS / "sampling"))
from lexsort_rank import rank_within_group  # noqa: E402
from seed_greedy import seed_partition_dependencies  # noqa: E402

DATASETS = ["cora", "reddit", "social-flat", "social-skewed", "social-large"]
SMOKE_DATASETS = ["cora", "social-flat"]
COMPILE_FLOOR_DATASET = "social-large"
MIN_COMPILE_SPEEDUP = 3.0


# ---------------------------------------------------------------------------
# Pre-vectorization reference implementations, verbatim from the seed
# revision.  ``reference_mode()`` swaps them in so "before" numbers are
# measured by this same script on the same graphs and seeds.
# ---------------------------------------------------------------------------

def _select_ref(self, vertices):
    vertices = np.asarray(vertices, dtype=np.int64)
    if len(vertices) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    spans = [(self.indptr[v], self.indptr[v + 1]) for v in vertices]
    return (
        np.array([hi - lo for lo, hi in spans], dtype=np.int64),
        np.concatenate([self.other[lo:hi] for lo, hi in spans]),
        np.concatenate([self.edge_ids[lo:hi] for lo, hi in spans]),
    )


def _mask_union_ref(num_vertices, *pieces):
    if not pieces:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(pieces))


def _positions_ref(sorted_ids, ids):
    pos = np.searchsorted(sorted_ids, ids)
    if len(ids) and (
        pos.max(initial=0) >= len(sorted_ids)
        or not np.array_equal(sorted_ids[pos], ids)
    ):
        raise KeyError("id not present in block space")
    return pos.astype(np.int64)


def _sample_layer_ref(self, graph, frontiers, fanout, layer, *,
                      epoch, batch, num_seeds):
    cand = self._candidates(graph, frontiers)
    # Ranks EVERY candidate edge, not just the over-fanout groups, with
    # the two-key lexsort; groups are frontier positions.
    groups = np.repeat(np.arange(len(cand.degrees)), cand.degrees)
    r = hashed_uniforms(self.seed, "uniform", epoch, batch, layer, ids=cand.eids)
    keep = rank_within_group(groups, r) < fanout
    return S._split(
        cand.src[keep], np.minimum(cand.degrees, fanout), cand.eids[keep],
        cand.offsets,
    )


def _bottom_fetch_ref(engine, closure, resident):
    w = closure.worker
    inputs = closure.blocks[0].input_vertices
    remote = inputs[engine.assignment[inputs] != w]
    rest = remote
    if engine.feature_cache is not None:
        rest = np.setdiff1d(remote, engine.feature_cache.pinned_for(w))
    fetch = np.setdiff1d(rest, resident)
    return remote, fetch, len(remote) - len(rest), len(rest) - len(fetch)


def _inverse_cdf_ref(cdf, values):
    return np.searchsorted(cdf, values)


def _stable_argsort_ref(keys, bound):
    return np.argsort(keys, kind="stable")


_PATCHES = [
    (Adjacency, "select", _select_ref),
    (B, "_mask_union", _mask_union_ref),
    (B, "_positions", _positions_ref),
    (S.UniformFanoutSampler, "_sample_layer", _sample_layer_ref),
    (C, "_bottom_fetch", _bottom_fetch_ref),
    # Algorithm 4 as one scalar ``t_r`` walk per measurement and per pop;
    # patched where the hybrid engine imported it by name.
    (H, "partition_dependencies", seed_partition_dependencies),
    (G, "_inverse_cdf", _inverse_cdf_ref),
    # Patched where Adjacency imported it by name.
    (A, "stable_argsort", _stable_argsort_ref),
]


@contextlib.contextmanager
def reference_mode():
    """Swap in the seed-revision hot-path implementations."""
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in _PATCHES]
    for obj, name, ref in _PATCHES:
        setattr(obj, name, ref)
    try:
        yield
    finally:
        for obj, name, orig in saved:
            setattr(obj, name, orig)


# ---------------------------------------------------------------------------
# Measurements.
# ---------------------------------------------------------------------------

def _graph(dataset):
    return prepare_graph(load_dataset(dataset), "gcn")


def _model(graph):
    return GNNModel.gcn(graph.feature_dim, 64, graph.num_classes, seed=1)


def _timed(fn):
    gc.collect()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _stats(runs):
    runs = sorted(runs)
    return {"min_s": runs[0], "median_s": runs[len(runs) // 2], "runs": runs}


def measure_epoch_pair(graph, repeats):
    """Paired vectorized/reference epoch timings, interleaved run by run
    so slow machine drift cancels out of the min-vs-min ratio."""
    current = SampledTrainingEngine(
        graph, _model(graph), ClusterSpec.ecs(8), seed=0
    )
    with reference_mode():
        reference = SampledTrainingEngine(
            graph, _model(graph), ClusterSpec.ecs(8), seed=0
        )
        reference.charge_epoch()
    current.charge_epoch()
    cur_runs, ref_runs = [], []
    for _ in range(repeats):
        cur_runs.append(_timed(current.charge_epoch))
        with reference_mode():
            ref_runs.append(_timed(reference.charge_epoch))
    return _stats(cur_runs), _stats(ref_runs)


def _compile_once(graph):
    # Fresh engine and cold block cache: plan() memoises on both.
    graph.__dict__.pop("_block_cache", None)
    HybridEngine(graph, _model(graph), ClusterSpec.ecs(8)).plan()


def measure_compile_pair(graph, repeats):
    """Paired vectorized/reference hybrid plan-compile timings."""
    cur_runs, ref_runs = [], []
    for _ in range(repeats):
        cur_runs.append(_timed(lambda: _compile_once(graph)))
        with reference_mode():
            ref_runs.append(_timed(lambda: _compile_once(graph)))
        graph.__dict__.pop("_block_cache", None)
    return _stats(cur_runs), _stats(ref_runs)


GRAPH_FIELDS = ("src", "dst", "edge_weight", "features", "labels",
                "train_mask", "val_mask", "test_mask")
INDEX_FIELDS = ("edge_ids", "other", "indptr")


def _cold_start(name):
    # ``load_dataset`` memoises; ``_build`` always generates afresh.
    graph = prepare_graph(D._build(D.resolve_name(name), 1.0, 0), "gcn")
    graph.csr, graph.csc  # both indexes build on first access
    return graph


def _assert_same_graph(current, reference, name):
    for field in GRAPH_FIELDS:
        assert np.array_equal(getattr(current, field),
                              getattr(reference, field)), (name, field)
    for index in ("csr", "csc"):
        for field in INDEX_FIELDS:
            assert np.array_equal(
                getattr(getattr(current, index), field),
                getattr(getattr(reference, index), field),
            ), (name, index, field)


def measure_load_pair(name, repeats):
    """Paired current/reference cold starts, after an untimed pair
    whose graphs and indexes must be array-equal."""
    current = _cold_start(name)
    with reference_mode():
        reference = _cold_start(name)
    _assert_same_graph(current, reference, name)
    cur_runs, ref_runs = [], []
    for _ in range(repeats):
        cur_runs.append(_timed(lambda: _cold_start(name)))
        with reference_mode():
            ref_runs.append(_timed(lambda: _cold_start(name)))
    return _stats(cur_runs), _stats(ref_runs)


def run_experiment(datasets=None, repeats=5, compile_repeats=1,
                   min_speedup=5.0):
    datasets = list(datasets or DATASETS)
    rows = []
    for name in datasets:
        graph = _graph(name)
        epoch, epoch_ref = measure_epoch_pair(graph, repeats)
        compile_, compile_ref = measure_compile_pair(graph, compile_repeats)
        load, load_ref = measure_load_pair(name, repeats)
        row = {
            "dataset": name,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "epoch_s": epoch,
            "epoch_s_reference": epoch_ref,
            "epoch_speedup": epoch_ref["min_s"] / epoch["min_s"],
            "compile_s": compile_,
            "compile_s_reference": compile_ref,
            "compile_speedup": compile_ref["min_s"] / compile_["min_s"],
            "load_s": load,
            "load_s_reference": load_ref,
            "load_speedup": load_ref["min_s"] / load["min_s"],
        }
        rows.append(row)
        print(
            f"{name:>14}: epoch {epoch['min_s']*1e3:8.1f} ms "
            f"(ref {epoch_ref['min_s']*1e3:8.1f} ms, "
            f"{row['epoch_speedup']:.2f}x) | "
            f"compile {compile_['min_s']*1e3:8.1f} ms "
            f"(ref {compile_ref['min_s']*1e3:8.1f} ms, "
            f"{row['compile_speedup']:.2f}x) | "
            f"load {load['min_s']*1e3:7.1f} ms "
            f"(ref {load_ref['min_s']*1e3:7.1f} ms, "
            f"{row['load_speedup']:.2f}x)"
        )
    largest = rows[-1]
    print(
        f"largest ({largest['dataset']}): "
        f"{largest['epoch_speedup']:.2f}x epoch wall-clock "
        f"(floor {min_speedup:.1f}x)"
    )
    assert largest["epoch_speedup"] >= min_speedup, (
        f"epoch speedup {largest['epoch_speedup']:.2f}x on "
        f"{largest['dataset']} is below the {min_speedup:.1f}x floor"
    )
    # The compile floor is always taken on social-large (the smoke
    # ladder stops short of it, so it measures that one compile extra):
    # small graphs spend their compile in block building, not in
    # Algorithm 4's probes.
    if largest["dataset"] == COMPILE_FLOOR_DATASET:
        compile_speedup = largest["compile_speedup"]
    else:
        compile_, compile_ref = measure_compile_pair(
            _graph(COMPILE_FLOOR_DATASET), compile_repeats
        )
        compile_speedup = compile_ref["min_s"] / compile_["min_s"]
    print(
        f"{COMPILE_FLOOR_DATASET}: {compile_speedup:.2f}x compile wall-clock "
        f"(floor {MIN_COMPILE_SPEEDUP:.1f}x)"
    )
    assert compile_speedup >= MIN_COMPILE_SPEEDUP, (
        f"compile speedup {compile_speedup:.2f}x on {COMPILE_FLOOR_DATASET} "
        f"is below the {MIN_COMPILE_SPEEDUP:.1f}x floor"
    )
    return {
        "datasets": rows,
        "largest": largest["dataset"],
        "epoch_speedup_largest": largest["epoch_speedup"],
        "min_speedup_floor": min_speedup,
        "compile_floor_dataset": COMPILE_FLOOR_DATASET,
        "compile_floor_speedup": compile_speedup,
        "min_compile_speedup_floor": MIN_COMPILE_SPEEDUP,
        "repeats": repeats,
        "compile_repeats": compile_repeats,
    }


def test_hotpath_smoke():
    result = run_experiment(
        SMOKE_DATASETS, repeats=2, compile_repeats=1, min_speedup=2.0
    )
    assert result["epoch_speedup_largest"] >= 2.0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="hot-path wall-clock before/after trajectory"
    )
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the result dictionary to PATH as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="CI ladder: small graphs, 2x floor")
    parser.add_argument("--repeats", type=int, default=5,
                        help="epoch timing repeats (default 5)")
    parser.add_argument("--compile-repeats", type=int, default=1,
                        help="compile timing repeats (default 1)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="epoch wall-clock floor on the largest "
                             "dataset (default 5.0, or 2.0 with --smoke)")
    args = parser.parse_args()
    floor = args.min_speedup if args.min_speedup is not None else (
        2.0 if args.smoke else 5.0
    )
    result = run_experiment(
        SMOKE_DATASETS if args.smoke else DATASETS,
        repeats=args.repeats,
        compile_repeats=args.compile_repeats,
        min_speedup=floor,
    )
    write_json(args.json, result)
