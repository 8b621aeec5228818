"""Elastic recovery: shrink-and-continue vs rollback-restart.

Not a paper figure -- the paper assumes replacements are always
available -- but the natural follow-up question: when a worker dies
*permanently* (spot reclaim, hardware loss), is it cheaper to wait for
a replacement and replay (``restart``) or to migrate the dead partition
onto the survivors and keep going at N-1 workers (``shrink``)?

Two experiments:

1. **Provisioning sweep**: the same permanent crash, recovered both
   ways, while the modeled replacement-provisioning delay grows.
   Restart's bill scales with the delay; shrink pays a one-time
   migration (features + adjacency + closure re-replication) that does
   not.  Past the crossover, shrink wins.
2. **Churn asymmetry**: the same shrink on each engine.  DepCache's
   survivors must re-replicate L-hop closures for the absorbed
   vertices, so it pays more migration traffic than DepComm, whose
   survivors only re-register mirrors.
"""

from common import paper_row, parse_json_flag, print_table, write_json
from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.engines import make_engine
from repro.graph.datasets import load_dataset, spec_of
from repro.resilience import (
    FaultSchedule,
    RecoveryPolicy,
    WorkerCrashFault,
    run_chaos,
)
from repro.training.prep import prepare_graph

ENGINES = ["depcache", "depcomm", "hybrid"]
DATASET = "google"
SCALE = 0.1
NODES = 4
EPOCHS = 6
PROVISION_SWEEP_S = [0.0, 0.05, 0.2, 1.0]


def _workload(dataset: str = DATASET, scale: float = SCALE):
    graph = prepare_graph(load_dataset(dataset, scale=scale), "gcn")
    spec = spec_of(dataset)

    def model_factory():
        return GNNModel.build(
            "gcn", graph.feature_dim, spec.hidden_dim, graph.num_classes,
            seed=1,
        )

    return graph, model_factory


def _crash_time(graph, model_factory, cluster) -> float:
    """Aim the crash at roughly epoch 2.5 of a depcomm run."""
    probe = make_engine("depcomm", graph, model_factory(), cluster)
    return probe.charge_epoch() * 2.5


def run_provision_sweep(dataset: str = DATASET, engine_name: str = "hybrid"):
    """Makespan of restart vs shrink as provisioning gets slower."""
    graph, model_factory = _workload(dataset)
    cluster = ClusterSpec.ecs(NODES)
    crash_t = _crash_time(graph, model_factory, cluster)
    results = {"provision_s": PROVISION_SWEEP_S, "restart": [], "shrink": []}
    rows = []
    for provision_s in PROVISION_SWEEP_S:
        row = [f"{provision_s * 1e3:.0f}"]
        for strategy in ("restart", "shrink"):
            schedule = FaultSchedule([
                WorkerCrashFault(worker=1, at_time=crash_t, permanent=True)
            ])
            policy = RecoveryPolicy(
                checkpoint_every=2,
                provision_s=provision_s,
                strategy=strategy,
            )
            report = run_chaos(
                engine_name, graph, model_factory, cluster, schedule,
                epochs=EPOCHS, policy=policy,
            )
            results[strategy].append(report.makespan_s)
            row.append(f"{report.makespan_s * 1e3:.2f}")
        rows.append(row)
    print_table(
        f"Permanent crash on 1 of {NODES} workers ({engine_name} on "
        f"{dataset}): makespan (ms) vs replacement-provisioning delay",
        ["provision ms", "restart", "shrink"],
        rows,
    )
    paper_row(
        "expected: restart's makespan grows with the provisioning delay; "
        "shrink's one-time migration cost does not -- past the crossover "
        "shrink-and-continue wins"
    )
    return results


def run_churn_comparison(dataset: str = DATASET):
    """The same shrink on each engine: who pays what to absorb."""
    graph, model_factory = _workload(dataset)
    cluster = ClusterSpec.ecs(NODES)
    crash_t = _crash_time(graph, model_factory, cluster)
    results = {}
    rows = []
    for name in ENGINES:
        schedule = FaultSchedule([
            WorkerCrashFault(worker=1, at_time=crash_t, permanent=True)
        ])
        policy = RecoveryPolicy(checkpoint_every=2, strategy="shrink")
        report = run_chaos(
            name, graph, model_factory, cluster, schedule,
            epochs=EPOCHS, policy=policy,
        )
        results[name] = report
        event = report.recoveries[0]
        rows.append([
            name,
            f"{report.clean_epoch_s * 1e3:.2f}",
            f"{report.makespan_s * 1e3:.2f}",
            f"{event.recovery_s * 1e3:.2f}",
            f"{event.refetch_bytes / 1e3:.0f} KB",
            str(report.num_workers_final),
        ])
    print_table(
        f"Shrink-and-continue after a permanent crash ({dataset}, "
        f"{NODES} -> {NODES - 1} workers)",
        ["engine", "clean epoch ms", "makespan ms", "migration ms",
         "migrated", "workers"],
        rows,
    )
    paper_row(
        "expected: DepCache's survivors re-replicate the absorbed "
        "closures, so it migrates more bytes than DepComm (mirror "
        "re-registration only); Hybrid sits between"
    )
    return results


def check_provision_sweep(results):
    """The provisioning shapes; run by pytest and by ``__main__``."""
    restart, shrink = results["restart"], results["shrink"]
    # (a) shrink never provisions, so its makespan ignores the delay ...
    assert max(shrink) - min(shrink) < 1e-9
    # ... while restart's grows monotonically with it.
    assert restart == sorted(restart)
    assert restart[-1] > restart[0]
    # (b) the headline: when provisioning is slow, shrink wins; when a
    # replacement is free, paying the migration does not pay off.
    assert shrink[-1] < restart[-1]
    assert restart[0] < shrink[0]


def check_churn_comparison(results):
    """The churn shapes; run by pytest and by ``__main__``."""
    for name, report in results.items():
        # Exactly one shrink, and the cluster really got smaller.
        assert len(report.recoveries) == 1, name
        event = report.recoveries[0]
        assert event.strategy == "shrink"
        assert event.num_workers_after == NODES - 1
        assert report.num_workers_final == NODES - 1
        assert event.recovery_s > 0
        assert event.refetch_bytes > 0
    # The churn asymmetry: replicated closures cost more to rebuild
    # than mirror registrations.
    assert (
        results["depcache"].recoveries[0].refetch_bytes
        > results["depcomm"].recoveries[0].refetch_bytes
    )


def test_elastic_shrink_beats_slow_provisioning(benchmark):
    check_provision_sweep(run_provision_sweep())

    graph, model_factory = _workload()
    benchmark(lambda: run_chaos(
        "hybrid", graph, model_factory, ClusterSpec.ecs(NODES),
        FaultSchedule([
            WorkerCrashFault(worker=1, at_time=1e-5, permanent=True)
        ]),
        epochs=1,
        policy=RecoveryPolicy(checkpoint_every=1, strategy="shrink"),
    ))


def test_elastic_depcache_pays_more_to_shrink(benchmark):
    check_churn_comparison(run_churn_comparison())

    graph, model_factory = _workload()
    benchmark(lambda: run_chaos(
        "depcomm", graph, model_factory, ClusterSpec.ecs(NODES),
        FaultSchedule([
            WorkerCrashFault(worker=1, at_time=1e-5, permanent=True)
        ]),
        epochs=1,
        policy=RecoveryPolicy(checkpoint_every=1, strategy="shrink"),
    ))


if __name__ == "__main__":
    json_path = parse_json_flag(__doc__.splitlines()[0])
    sweep = run_provision_sweep()
    churn = run_churn_comparison()
    write_json(json_path, {
        "provision_sweep": sweep,
        "churn": {
            name: {
                "makespan_s": r.makespan_s,
                "migration_s": r.recoveries[0].recovery_s,
                "migrated_bytes": r.recoveries[0].refetch_bytes,
            }
            for name, r in churn.items()
        },
    })
    check_provision_sweep(sweep)
    check_churn_comparison(churn)
