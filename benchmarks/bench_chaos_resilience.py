"""Chaos resilience: engine degradation under faults, crash recovery.

Not a paper figure -- the paper evaluates on a healthy cluster -- but
the natural stress test of its central trade-off.  Two experiments:

1. **Straggler sweep**: one worker's host CPU (which drives packing and
   the MPI-style comm stack) is progressively slowed.  DepComm routes
   every dependency through that host, so it degrades the most;
   DepCache only feels the modest GPU slowdown; Hybrid sits between.
2. **Mid-training crash**: a worker dies mid-run, the failure detector
   fires at the next BSP barrier, and training rolls back to the last
   checkpoint.  Recovery is visible on the modeled timeline, and
   DepCache pays a bigger re-provisioning bill (its replacement must
   re-materialise the cached L-hop closures) than DepComm.
"""

from common import paper_row, parse_json_flag, print_table, write_json
from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.graph.datasets import load_dataset, spec_of
from repro.resilience import (
    FaultSchedule,
    RecoveryPolicy,
    StragglerFault,
    WorkerCrashFault,
    run_chaos,
)
from repro.training.prep import prepare_graph

ENGINES = ["depcache", "depcomm", "hybrid"]
DATASET = "google"
SCALE = 0.1
NODES = 4
EPOCHS = 4
CPU_FACTORS = [2.0, 4.0, 8.0]


def _workload(dataset: str = DATASET, scale: float = SCALE):
    graph = prepare_graph(load_dataset(dataset, scale=scale), "gcn")
    spec = spec_of(dataset)

    def model_factory():
        return GNNModel.build(
            "gcn", graph.feature_dim, spec.hidden_dim, graph.num_classes,
            seed=1,
        )

    return graph, model_factory


def run_straggler_sweep(dataset: str = DATASET):
    graph, model_factory = _workload(dataset)
    cluster = ClusterSpec.ecs(NODES)
    degradation = {name: [] for name in ENGINES}
    rows = []
    for cpu_factor in CPU_FACTORS:
        row = [f"{cpu_factor:.0f}x"]
        for name in ENGINES:
            schedule = FaultSchedule([
                StragglerFault(worker=0, gpu_factor=1.5, cpu_factor=cpu_factor)
            ])
            report = run_chaos(
                name, graph, model_factory, cluster, schedule, epochs=EPOCHS
            )
            degradation[name].append(report.degradation)
            row.append(f"{report.degradation:.2f}x")
        rows.append(row)
    print_table(
        f"Straggler sweep: host-CPU slowdown on 1 of {NODES} workers "
        f"(GCN on {dataset}, epoch-time degradation)",
        ["cpu slowdown"] + ENGINES,
        rows,
    )
    paper_row(
        "expected: DepComm (comm-heavy) degrades most, DepCache "
        "(compute-heavy, ~zero comm) least, Hybrid between"
    )
    return degradation


def run_crash_recovery(dataset: str = DATASET):
    graph, model_factory = _workload(dataset)
    cluster = ClusterSpec.ecs(NODES)
    # Crash worker 1 around epoch ~2.5 of whichever engine runs.
    from repro.engines import make_engine

    crash_t = make_engine(
        "depcomm", graph, model_factory(), cluster
    ).charge_epoch() * 2.5
    policy = RecoveryPolicy(checkpoint_every=2)
    results = {}
    rows = []
    for name in ENGINES:
        schedule = FaultSchedule([
            WorkerCrashFault(worker=1, at_time=crash_t)
        ])
        report = run_chaos(
            name, graph, model_factory, cluster, schedule,
            epochs=EPOCHS, policy=policy,
        )
        results[name] = report
        event = report.recoveries[0] if report.recoveries else None
        rows.append([
            name,
            f"{report.clean_epoch_s * 1e3:.2f}",
            f"{report.makespan_s * 1e3:.2f}",
            str(len(report.recoveries)),
            f"{report.total_recovery_s * 1e3:.2f}" if event else "-",
            f"{event.refetch_bytes / 1e3:.0f} KB" if event else "-",
            f"epoch {event.rolled_back_to_epoch}" if event else "-",
        ])
    print_table(
        f"Mid-training crash (worker 1 at t={crash_t * 1e3:.2f} ms, "
        f"checkpoint every {policy.checkpoint_every} epochs)",
        ["engine", "clean epoch ms", "makespan ms", "recoveries",
         "recovery ms", "refetch", "rolled back to"],
        rows,
    )
    paper_row(
        "expected: every engine recovers via rollback-restart; DepCache "
        "re-fetches the most state (cached closures + replicated adjacency)"
    )
    return results


def check_straggler_sweep(degradation):
    """The straggler shapes; run by pytest and by ``__main__``."""
    for i, cpu_factor in enumerate(CPU_FACTORS):
        # (a) a straggling host hurts DepComm more than DepCache.
        assert degradation["depcomm"][i] > degradation["depcache"][i], (
            f"at cpu_factor={cpu_factor}: depcomm "
            f"{degradation['depcomm'][i]:.2f}x should exceed depcache "
            f"{degradation['depcache'][i]:.2f}x"
        )
        # Everyone degrades at least a little (barrier waits).
        assert degradation["depcache"][i] > 1.0
    # Degradation grows with fault intensity for the comm-bound engine.
    assert degradation["depcomm"] == sorted(degradation["depcomm"])


def check_crash_recovery(results):
    """The crash shapes; run by pytest and by ``__main__``."""
    for name, report in results.items():
        # (b) the crash is detected and recovered exactly once ...
        assert len(report.recoveries) == 1, name
        event = report.recoveries[0]
        # ... with the recovery stall charged to the modeled timeline.
        assert event.recovery_s > 0
        assert report.makespan_s > report.clean_epoch_s * EPOCHS
        assert event.rolled_back_to_epoch == 2
        assert event.worker == 1
    # DepCache's replacement must rebuild cached closures; DepComm's
    # only re-registers mirrors -- the churn side of the trade-off.
    assert (
        results["depcache"].recoveries[0].refetch_bytes
        > results["depcomm"].recoveries[0].refetch_bytes
    )


def test_chaos_straggler_degrades_depcomm_most(benchmark):
    check_straggler_sweep(run_straggler_sweep())

    graph, model_factory = _workload()
    benchmark(lambda: run_chaos(
        "hybrid", graph, model_factory, ClusterSpec.ecs(NODES),
        FaultSchedule([StragglerFault(worker=0, gpu_factor=2.0)]),
        epochs=1,
    ))


def test_chaos_crash_recovers_from_checkpoint(benchmark):
    check_crash_recovery(run_crash_recovery())

    graph, model_factory = _workload()
    benchmark(lambda: run_chaos(
        "depcomm", graph, model_factory, ClusterSpec.ecs(NODES),
        FaultSchedule([WorkerCrashFault(worker=1, at_time=1e-5)]),
        epochs=1, policy=RecoveryPolicy(checkpoint_every=1),
    ))


if __name__ == "__main__":
    json_path = parse_json_flag(__doc__.splitlines()[0])
    degradation = run_straggler_sweep()
    crashes = run_crash_recovery()
    write_json(json_path, {
        "straggler_degradation": {
            f"{factor:g}x": {name: degradation[name][i] for name in ENGINES}
            for i, factor in enumerate(CPU_FACTORS)
        },
        "crash_recovery": {
            name: {
                "makespan_s": r.makespan_s,
                "recovery_s": r.total_recovery_s,
                "refetch_bytes": r.recoveries[0].refetch_bytes,
                "rolled_back_to_epoch": r.recoveries[0].rolled_back_to_epoch,
            }
            for name, r in crashes.items()
        },
    })
    check_straggler_sweep(degradation)
    check_crash_recovery(crashes)
