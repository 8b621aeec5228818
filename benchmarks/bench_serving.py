"""Online serving: micro-batch dedup, staleness sweep, determinism.

Serving-side evaluation of the hybrid dependency machinery (not a
figure of the paper -- NeutronStar trains; this harness asks what its
cost model and caching buy at inference time).  A dense synthetic
graph under a Zipfian, saturating request stream is the regime where
micro-batching pays: concurrent requests' k-hop closures overlap
heavily, so one forward over the union frontier replaces many
overlapping per-request recomputes -- the serving analogue of the
paper's redundancy elimination.

Headline shapes this module asserts:

- micro-batched serving sustains >= 2x the throughput of one-request-
  at-a-time serving, with bit-identical predictions (batching moves
  work, never answers);
- raising the staleness bound ``tau`` monotonically reduces the
  cross-worker traffic of remote (DepComm-style) serving, trading
  reported staleness for bytes, with p99 latency reported per point;
- the latency ledger is a pure function of the seeds: serving the same
  workload twice gives bit-identical ledgers.
"""

from common import paper_row, parse_json_flag, write_json
from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.graph import generators
from repro.partition.hashing import hash_partition
from repro.serving import (
    InferenceServer,
    ServingConfig,
    WorkloadConfig,
    generate_workload,
)
from repro.sweeps import BATCHING_COLUMNS, TAU_COLUMNS, render, run_serve_bench

NUM_VERTICES = 500
NUM_EDGES = 4000
NODES = 4
NUM_REQUESTS = 400
RATE_RPS = 1_000_000.0  # saturating: arrivals never gate throughput
SWEEP_RATE_RPS = 2000.0  # spread arrivals so tau actually discriminates
ZIPF = 1.1
BATCH_WINDOW_S = 0.002
MAX_BATCH = 64
TAUS = (0.0, 0.01, 0.05, 0.2)


def _setup():
    graph = generators.erdos_renyi(NUM_VERTICES, NUM_EDGES, seed=3)
    generators.attach_features(graph, 16, 7, seed=4)
    model = GNNModel.build(
        "gcn", graph.feature_dim, 32, graph.num_classes,
        num_layers=3, seed=1,
    )
    cluster = ClusterSpec.ecs(NODES)
    partitioning = hash_partition(graph, NODES)
    return graph, model, cluster, partitioning


def _workload(num_vertices, rate_rps):
    return generate_workload(
        WorkloadConfig(
            num_requests=NUM_REQUESTS, rate_rps=rate_rps,
            zipf_exponent=ZIPF, seed=5,
        ),
        num_vertices,
    )


def _serve(parts, workload, window_s, max_batch, tau_s, mode):
    graph, model, cluster, partitioning = parts
    server = InferenceServer(
        graph, model, cluster, partitioning,
        config=ServingConfig(
            batch_window_s=window_s, max_batch=max_batch,
            tau_s=tau_s, mode=mode,
        ),
        record_timeline=False,
    )
    return server.serve(workload)


def run_experiment():
    parts = _setup()
    spread = _workload(NUM_VERTICES, SWEEP_RATE_RPS)

    # Micro-batching vs one request at a time on the saturating stream,
    # then staleness bound vs remote-serving traffic on the spread one.
    result = run_serve_bench(
        *parts, _workload(NUM_VERTICES, RATE_RPS), spread,
        taus=TAUS, batch_window_s=BATCH_WINDOW_S, max_batch=MAX_BATCH,
    )
    print(f"\n### micro-batching on erdos_renyi({NUM_VERTICES}, {NUM_EDGES}), "
          f"3-layer GCN, {NODES} workers, {NUM_REQUESTS} reqs (saturating)")
    print(render(BATCHING_COLUMNS, result.pop("batching")))
    print(f"predictions identical: {result['predictions_identical']}")
    print("\n### staleness bound vs remote-serving traffic")
    print(render(TAU_COLUMNS, result["tau_sweep"]))

    # -- determinism ---------------------------------------------------
    a = _serve(parts, spread, BATCH_WINDOW_S, MAX_BATCH, TAUS[-1], "remote")
    b = _serve(parts, spread, BATCH_WINDOW_S, MAX_BATCH, TAUS[-1], "remote")
    deterministic = a.ledger.to_dict() == b.ledger.to_dict()
    print(f"ledger bit-identical across reruns: {deterministic}")

    paper_row(
        "serving-side redundancy elimination: micro-batched union-closure "
        "forwards and staleness-bounded caching reuse the training-time "
        "hybrid dependency machinery (not a NeutronStar experiment)"
    )
    return {**result, "deterministic": deterministic}


def check(result):
    """The headline shapes; run by pytest and by ``__main__`` (CI)."""
    # Micro-batching is the headline: >= 2x at identical answers.
    assert result["batching_speedup"] >= 2.0, result["batching_speedup"]
    assert result["predictions_identical"]

    # Raising tau only ever removes traffic, and actually removes some.
    volumes = [p["comm_bytes"] for p in result["tau_sweep"]]
    assert all(a >= b - 1e-9 for a, b in zip(volumes, volumes[1:]))
    assert volumes[-1] < volumes[0]
    # The traded quantity is visible: staleness grows from zero.
    assert result["tau_sweep"][0]["mean_staleness_s"] == 0.0
    assert result["tau_sweep"][-1]["mean_staleness_s"] > 0.0

    # Same seed, same ledger -- bit for bit.
    assert result["deterministic"]


def test_serving(benchmark):
    result = run_experiment()
    check(result)
    benchmark(lambda: result["batching_speedup"])


if __name__ == "__main__":
    json_path = parse_json_flag("online serving benchmark")
    result = run_experiment()
    write_json(json_path, result)
    check(result)
