"""Golden-trace parity: the execution-layer refactor must be bit-identical.

Two seeded scenarios are pinned against goldens checked into
``tests/data/``:

- a 2-worker hybrid **training** run (with a staleness-bounded cache so
  the CACHED gather path is exercised): per-epoch losses, the epoch
  reports' comm accounting, and the full chrome-trace export;
- a seeded **serving** benchmark on the same graph: every
  ``LatencyLedger`` entry, all predictions, and the serving trace.

The goldens were generated *before* the unified execution layer
existed (``python tests/engines/test_golden_parity.py --write`` on the
pre-refactor tree), so any drift in losses, ledgers, or traces means
the refactor changed observable behaviour, which the tentpole forbids
with the overlap pass off.  The training golden was re-recorded once,
when a Python scalar on the tape stopped widening the model to float64
(the losses moved in the 8th-9th significant digit, the all-reduce
bytes to 4 per parameter), and its losses once more when the 8 -> 4 GCN
layer 2 started multiplying by its weight before aggregating (two of
four epochs moved, relative change at most 1.3e-7; reports, trace and
accuracy unchanged); ``test_golden_tracks_the_float64_model`` ties it
to a float64 run of the same setup.
"""

import json
import sys
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
TRAIN_GOLDEN = DATA_DIR / "golden_hybrid_2worker.json"
SERVE_GOLDEN = DATA_DIR / "golden_serving_2worker.json"
# float32 training vs the same run in float64: eight float32 epsilons.
FLOAT64_RTOL = 1e-6


def _graph():
    from repro.graph import generators
    from repro.training.prep import prepare_graph

    g = generators.community(64, 4, avg_degree=8.0, seed=3)
    generators.attach_features(g, 16, 4, seed=4, class_signal=2.0)
    return prepare_graph(g, "gcn")


def build_training_payload(tensor_parallel: bool = False, dtype=np.float32):
    """Seeded 2-worker hybrid run -> losses + reports + chrome trace.

    ``tensor_parallel=True`` enables the four-way greedy; on this tiny
    2-worker graph the slice all-to-all is never cheapest, so the
    decisions -- and therefore the whole payload -- must stay
    bit-identical to the three-way golden.  ``dtype`` casts the model's
    parameters before training (the golden is the float32 model's).
    """
    from repro.cache import CacheConfig
    from repro.cluster.spec import ClusterSpec
    from repro.cluster.trace import timeline_to_chrome_trace
    from repro.core.model import GNNModel
    from repro.engines import HybridEngine
    from repro.tensor import optim

    graph = _graph()
    model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes, seed=2)
    for p in model.parameters():
        p.data = p.data.astype(dtype)
    engine = HybridEngine(
        graph, model, ClusterSpec.ecs(2),
        record_timeline=True,
        cache_config=CacheConfig(tau=2.0),
        tensor_parallel=tensor_parallel,
    )
    optimizer = optim.Adam(model.parameters(), lr=0.01)
    losses, reports = [], []
    for _ in range(4):
        report = engine.run_epoch(optimizer=optimizer)
        losses.append(report.loss)
        reports.append({
            "epoch": report.epoch,
            "epoch_time_s": report.epoch_time_s,
            "comm_bytes": report.comm_bytes,
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
            "refresh_bytes": report.refresh_bytes,
            "comm_saved_bytes": report.comm_saved_bytes,
            "cache_refreshed": report.cache_refreshed,
        })
    return {
        "losses": losses,
        "reports": reports,
        "accuracy": engine.evaluate(),
        "trace": timeline_to_chrome_trace(engine.timeline),
    }


def build_serving_payload():
    """Seeded serving benchmark -> ledger entries + predictions + trace."""
    from repro.cluster.spec import ClusterSpec
    from repro.cluster.trace import timeline_to_chrome_trace
    from repro.core.model import GNNModel
    from repro.partition.chunk import chunk_partition
    from repro.serving import (
        InferenceServer, ServingConfig, WorkloadConfig, generate_workload,
    )

    graph = _graph()
    model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes, seed=2)
    cluster = ClusterSpec.ecs(2)
    partitioning = chunk_partition(graph, 2)
    config = ServingConfig(
        batch_window_s=0.002, max_batch=16, tau_s=0.05, mode="auto",
    )
    server = InferenceServer(
        graph, model, cluster, partitioning, config=config,
        record_timeline=True,
    )
    workload = generate_workload(
        WorkloadConfig(num_requests=80, rate_rps=4000.0, zipf_exponent=1.0,
                      seed=11),
        graph.num_vertices,
    )
    result = server.serve(workload)
    return {
        "ledger": result.ledger.to_dict(),
        "predictions": {str(k): int(v) for k, v in result.predictions.items()},
        "num_batches": result.num_batches,
        "makespan_s": result.makespan_s,
        "trace": timeline_to_chrome_trace(result.timeline),
    }


def _roundtrip(payload):
    """JSON round-trip so tuples/np scalars compare like the golden."""
    return json.loads(json.dumps(payload, default=_jsonify))


def _jsonify(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _assert_matches(payload, golden_path):
    golden = json.loads(golden_path.read_text())
    fresh = _roundtrip(payload)
    assert fresh.keys() == golden.keys()
    for key in golden:
        assert fresh[key] == golden[key], (
            f"{golden_path.name}: field {key!r} drifted from the golden"
        )


class TestGoldenParity:
    def test_training_run_matches_golden(self):
        _assert_matches(build_training_payload(), TRAIN_GOLDEN)

    def test_serving_run_matches_golden(self):
        _assert_matches(build_serving_payload(), SERVE_GOLDEN)

    def test_four_way_greedy_matches_three_way_golden(self):
        """Enabling the TP option must not perturb three-way decisions
        where the slice all-to-all is never cheapest: the four-way run
        reproduces the pre-TP golden bit for bit."""
        _assert_matches(build_training_payload(tensor_parallel=True),
                        TRAIN_GOLDEN)


    def test_golden_tracks_the_float64_model(self):
        """The golden's losses are the float32 model's: the same run in
        float64 agrees to a few float32 ulps (the largest relative gap
        is ~1.1e-7 over the four epochs)."""
        golden = json.loads(TRAIN_GOLDEN.read_text())["losses"]
        wide = build_training_payload(dtype=np.float64)["losses"]
        np.testing.assert_allclose(golden, wide, rtol=FLOAT64_RTOL, atol=0)


def main(argv):
    if "--write" not in argv:
        print("usage: python tests/engines/test_golden_parity.py --write")
        return 1
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    TRAIN_GOLDEN.write_text(
        json.dumps(_roundtrip(build_training_payload()), indent=1)
    )
    SERVE_GOLDEN.write_text(
        json.dumps(_roundtrip(build_serving_payload()), indent=1)
    )
    print(f"wrote {TRAIN_GOLDEN}\nwrote {SERVE_GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
