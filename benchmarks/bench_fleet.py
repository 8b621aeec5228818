"""Serving fleet: replication bit-identity, failover recovery, hedging.

Robustness evaluation of the replicated serving fleet (not a figure of
the paper -- NeutronStar trains; this harness asks what replication
must *not* cost).  Three headline shapes:

- **bit-identity**: a fault-free fleet returns predictions and ledgers
  bit-identical to a single :class:`InferenceServer`, at any replica
  count -- replication is routing, never answers;
- **bounded-window recovery**: after every worker of one replica goes
  dark mid-stream, the fleet declares the replica dead from ledger
  signals alone, fails its traffic over, and the post-recovery p99
  lands within 1.25x the pre-fault steady state with zero admitted
  requests dropped;
- **bounded hedging overhead**: a straggling replica triggers hedged
  duplicates that win the ledger, and the duplicate work stays a
  bounded fraction of the stream (fault-free runs hedge nothing).
"""

import numpy as np

from common import paper_row, parse_json_flag, print_table, write_json
from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.graph import generators
from repro.partition.hashing import hash_partition
from repro.resilience.faults import (
    FaultSchedule,
    StragglerFault,
    WorkerCrashFault,
)
from repro.serving import (
    FleetConfig,
    InferenceServer,
    ServingConfig,
    ServingFleet,
    WorkloadConfig,
    generate_workload,
)

NUM_VERTICES = 500
NUM_EDGES = 4000
NODES = 2  # workers per serving group
REPLICAS = 3
NUM_REQUESTS = 384
RATE_RPS = 4000.0
ZIPF = 1.1
HEALTH_EVERY = 32
BATCHED = ServingConfig(batch_window_s=0.002, max_batch=32, mode="local")
UNBATCHED = ServingConfig(batch_window_s=0.0, max_batch=1, mode="local")
RECOVERY_P99_FACTOR = 1.25
MAX_HEDGE_FRACTION = 0.5


def _setup():
    graph = generators.erdos_renyi(NUM_VERTICES, NUM_EDGES, seed=3)
    generators.attach_features(graph, 16, 7, seed=4)
    model = GNNModel.build(
        "gcn", graph.feature_dim, 32, graph.num_classes, seed=1,
    )
    cluster = ClusterSpec.ecs(NODES)
    partitioning = hash_partition(graph, NODES)
    return graph, model, cluster, partitioning


def _workload(n=NUM_REQUESTS):
    return generate_workload(
        WorkloadConfig(
            num_requests=n, rate_rps=RATE_RPS, zipf_exponent=ZIPF, seed=5,
        ),
        NUM_VERTICES,
    )


def _fleet(parts, replicas, serving=BATCHED, replica_faults=None):
    graph, model, cluster, partitioning = parts
    return ServingFleet(
        graph, model, cluster, partitioning,
        config=FleetConfig(
            replicas=replicas, serving=serving, seed=9,
            health_every=HEALTH_EVERY,
        ),
        replica_faults=replica_faults,
    )


def _crash(replica_id, at_time):
    return {replica_id: FaultSchedule(
        [WorkerCrashFault(worker=w, at_time=at_time,
                          detection_timeout_s=0.0005, permanent=True)
         for w in range(NODES)],
        seed=3,
    )}


def _straggle(replica_id, start):
    return {replica_id: FaultSchedule(
        [StragglerFault(worker=w, gpu_factor=60.0, start=start)
         for w in range(NODES)],
        seed=3,
    )}


def _p99_ms(records):
    lats = [r.latency_s for r in records if r.latency_s is not None]
    return float(np.percentile(np.array(lats), 99)) * 1e3 if lats else 0.0


def run_experiment():
    parts = _setup()
    requests = _workload()

    # -- replication bit-identity --------------------------------------
    graph, model, cluster, partitioning = parts
    single = InferenceServer(
        graph, model, cluster, partitioning, config=BATCHED,
    ).serve(requests)
    fleets = {
        n: _fleet(parts, n).serve(requests) for n in (1, REPLICAS)
    }
    identical = all(
        r.predictions == single.predictions for r in fleets.values()
    )
    rows = [["single server", "-", f"{single.ledger.p99_s * 1e3:.2f}", "-"]]
    for n, res in sorted(fleets.items()):
        rows.append([
            f"fleet x{n}", str(res.num_segments),
            f"{res.ledger.p99_s * 1e3:.2f}",
            str(res.predictions == single.predictions),
        ])
    print_table(
        f"fault-free replication, erdos_renyi({NUM_VERTICES}, "
        f"{NUM_EDGES}), {NODES} workers/replica, {NUM_REQUESTS} reqs",
        ["deployment", "segments", "p99 ms", "== single"],
        rows,
    )

    # -- crash -> failover -> bounded-window p99 recovery --------------
    crash_t = requests[NUM_REQUESTS // 2].arrival_s
    crashed = _fleet(
        parts, REPLICAS, replica_faults=_crash(1, crash_t),
    ).serve(requests)
    records = crashed.ledger.records
    pre = [r for r in records if r.arrival_s < crash_t]
    declared_seg = next(
        e["segment"] for e in crashed.health_events
        if e["event"] == "replica-dead"
    )
    post = [
        r for r in records if r.req_id >= (declared_seg + 1) * HEALTH_EVERY
    ]
    pre_p99, post_p99 = _p99_ms(pre), _p99_ms(post)
    recovery_ratio = post_p99 / pre_p99 if pre_p99 else float("inf")
    print_table(
        f"replica 1 crash at t={crash_t * 1e3:.1f} ms "
        f"(declared dead in segment {declared_seg})",
        ["phase", "requests", "p99 ms", "shed"],
        [
            ["pre-fault", str(len(pre)), f"{pre_p99:.2f}", "0"],
            ["post-recovery", str(len(post)), f"{post_p99:.2f}",
             str(sum(1 for r in post if r.shed))],
        ],
    )
    print(
        f"failovers: {crashed.failovers}, dropped admitted: "
        f"{crashed.ledger.shed_count}, recovery p99 ratio: "
        f"{recovery_ratio:.2f}x (budget {RECOVERY_P99_FACTOR}x)"
    )

    # -- hedging: wins with bounded duplicate work ---------------------
    hedge_requests = _workload(192)
    straggle_t = hedge_requests[3 * HEALTH_EVERY].arrival_s
    hedged = _fleet(
        parts, 2, serving=UNBATCHED,
        replica_faults=_straggle(1, straggle_t),
    ).serve(hedge_requests)
    clean = _fleet(parts, 2, serving=UNBATCHED).serve(hedge_requests)
    hedge_fraction = hedged.hedges_launched / len(hedge_requests)
    print_table(
        "hedged requests under a 60x straggler on replica 1",
        ["fleet", "hedges", "won", "dup fraction"],
        [
            ["straggling", str(hedged.hedges_launched),
             str(hedged.hedges_won), f"{hedge_fraction:.2f}"],
            ["fault-free", str(clean.hedges_launched),
             str(clean.hedges_won), "0.00"],
        ],
    )

    paper_row(
        "self-healing replicated serving over the hybrid dependency "
        "runtime: observable-signal failover, p99-timer hedging "
        "(not a NeutronStar experiment)"
    )
    return {
        "predictions_identical": identical,
        "single_p99_ms": single.ledger.p99_s * 1e3,
        "fleet_p99_ms": {
            str(n): r.ledger.p99_s * 1e3 for n, r in fleets.items()
        },
        "crash": {
            "pre_p99_ms": pre_p99,
            "post_p99_ms": post_p99,
            "recovery_ratio": recovery_ratio,
            "recovery_budget": RECOVERY_P99_FACTOR,
            "failovers": crashed.failovers,
            "dropped": crashed.ledger.shed_count,
            "declared_segment": declared_seg,
        },
        "hedging": {
            "launched": hedged.hedges_launched,
            "won": hedged.hedges_won,
            "fraction": hedge_fraction,
            "clean_launched": clean.hedges_launched,
        },
    }


def check(result):
    """The headline shapes; run by pytest and by ``__main__`` (CI)."""
    # Replication must not perturb answers: bit-identical at 1 and N.
    assert result["predictions_identical"]

    # Failover recovers the p99 within budget and drops nothing.
    crash = result["crash"]
    assert crash["failovers"] > 0
    assert crash["dropped"] == 0
    assert crash["recovery_ratio"] <= RECOVERY_P99_FACTOR, crash

    # Hedges fire under a straggler, win the ledger, and stay bounded;
    # a fault-free fleet never hedges.
    hedging = result["hedging"]
    assert hedging["launched"] > 0
    assert hedging["won"] > 0
    assert hedging["fraction"] <= MAX_HEDGE_FRACTION, hedging
    assert hedging["clean_launched"] == 0


def test_fleet(benchmark):
    result = run_experiment()
    check(result)
    benchmark(lambda: result["crash"]["recovery_ratio"])


if __name__ == "__main__":
    json_path = parse_json_flag("serving fleet benchmark")
    result = run_experiment()
    write_json(json_path, result)
    check(result)
