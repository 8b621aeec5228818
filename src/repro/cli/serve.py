"""Online inference: serve, serve-bench and the replicated fleet."""

from __future__ import annotations

from repro import sweeps
from repro.cli.args import (
    CLUSTER, CRASHES, FAULT_SEED, FAULTS, JSON, LIVE_SERVING, MODEL, Setup,
    crash_replica, csv, serving, straggle_replica, workload,
)
from repro.cli.base import Command, Report, UsageError, arg, echo
from repro.cluster.trace import save_chrome_trace
from repro.engines import make_engine
from repro.resilience import FaultSchedule
from repro.serving import (
    AutoscalerConfig,
    FleetConfig,
    InferenceServer,
    ServingConfig,
    ServingFleet,
    SLOConfig,
    WorkloadConfig,
    generate_workload,
)
from repro.sweeps import Column, kb, render
from repro.training.checkpoint import load_checkpoint
from repro.training.trainer import DistributedTrainer
from repro.utils import jsonable


def _model(setup, body):
    """The served model: fresh, or loaded / quick-trained per the
    LIVE_SERVING flags."""
    args, model = setup.args, setup.model()
    if args.checkpoint:
        meta = load_checkpoint(model, args.checkpoint)
        body.append(f"loaded checkpoint {args.checkpoint} "
                    f"({meta.get('dataset', '?')}, {meta.get('arch', '?')})")
    elif args.train_epochs:
        engine = make_engine("hybrid", setup.graph, model, setup.cluster)
        DistributedTrainer(engine, lr=0.01).train(
            epochs=args.train_epochs, eval_every=args.train_epochs
        )
        body.append(f"trained {args.train_epochs} epochs before serving")
    return model


def _workload(setup):
    args = setup.args
    config = WorkloadConfig(
        num_requests=args.requests, rate_rps=args.rate,
        zipf_exponent=args.zipf, seed=args.workload_seed,
        bursts=tuple(getattr(args, "burst", None) or ()),
    )
    return generate_workload(config, setup.graph.num_vertices)


def _serving_config(args) -> ServingConfig:
    return ServingConfig(
        batch_window_s=args.batch_window, max_batch=args.max_batch,
        tau_s=args.tau_s, mode=args.serve_mode,
        slo=SLOConfig(max_pending=args.max_pending),
    )


# Both tables render the same ``summary()`` dict the payload carries.
_HEAD = (
    Column("requests", "num_requests"), Column("served", "served"),
    Column("shed", "shed"),
)
_P50, _P95, _P99 = (
    Column(f"p{q} ms", f"latency_p{q}_ms", "{:.2f}") for q in (50, 95, 99)
)
_RPS = Column("rps", "throughput_rps", "{:.0f}")

SERVE_COLUMNS = (
    *_HEAD, Column("degraded", "degraded"), _P50, _P95, _P99, _RPS,
    Column("comm KB", "total_comm_bytes", kb),
    Column("staleness ms", "mean_staleness_s", lambda s: f"{s * 1e3:.1f}"),
)

FLEET_COLUMNS = (
    *_HEAD, _P50, _P99, _RPS,
    Column("replicas",
           "{0[num_replicas_started]}→{0[num_replicas_final]}".format),
    Column("hedges l/w", "{0[hedges_launched]}/{0[hedges_won]}".format),
    Column("failovers", "failovers"),
    Column("scalings", lambda summary: len(summary["scaling_events"])),
)


def serve(args) -> Report:
    setup, body = Setup(args), []
    model = _model(setup, body)
    faults = setup.faults(required=False)
    server = InferenceServer(
        setup.graph, model, setup.cluster, setup.partitioning(),
        config=_serving_config(args),
        faults=FaultSchedule(faults, seed=args.fault_seed) if faults else None,
    )
    result = server.serve(_workload(setup))
    summary = result.summary()
    modes = ", ".join(
        f"{mode} {count}" for mode, count in sorted(summary["mode_counts"].items())
    )
    body += [
        render(SERVE_COLUMNS, [summary]),
        f"modes: {modes} | {summary['num_batches']} micro-batches, "
        f"cache hits {summary['cache_hits']}",
    ]
    if args.trace:
        path = save_chrome_trace(result.timeline, args.trace)
        body.append(f"chrome trace written to {path}")
    return Report(body, {
        **echo(args, "dataset", "partitioner", "tau_s"),
        "mode": args.serve_mode,
        "batch_window_s": args.batch_window,
        "max_batch": args.max_batch,
        "summary": jsonable(summary),
        "ledger": jsonable(result.ledger.to_dict()),
    })


def serve_bench(args) -> Report:
    setup = Setup(args)
    requests = _workload(setup)
    result = sweeps.run_serve_bench(
        setup.graph, setup.model(), setup.cluster, setup.partitioning(),
        requests, requests, taus=args.taus, batch_window_s=args.batch_window,
        max_batch=args.max_batch,
    )
    body = [
        render(sweeps.BATCHING_COLUMNS, result.pop("batching")),
        f"predictions identical: {result['predictions_identical']}",
        render(sweeps.TAU_COLUMNS, result["tau_sweep"]),
    ]
    return Report(
        body, {**echo(args, "dataset", "requests"), **result}
    )


def _replica_faults(args):
    """Per-replica fault schedules: a replica fault hits every worker of
    its group.  A replica id the fleet can never reach is a usage error."""
    limit = max(args.replicas, args.max_replicas)
    per_replica: dict = {}
    for flag in ("crash_replica", "straggle_replica"):
        for replica, make_fault in getattr(args, flag) or []:
            if not 0 <= replica < limit:
                raise UsageError(
                    f"argument --{flag.replace('_', '-')}: replica {replica} "
                    f"can never exist (valid: 0..{limit - 1}, from "
                    "--replicas / --max-replicas)"
                )
            per_replica.setdefault(replica, []).extend(
                make_fault(worker=w) for w in range(args.nodes)
            )
    return {
        replica: FaultSchedule(faults, seed=args.fault_seed)
        for replica, faults in sorted(per_replica.items())
    }


def fleet(args) -> Report:
    setup, body = Setup(args), []
    model = _model(setup, body)
    autoscaler = None
    if args.autoscale_p99 is not None:
        autoscaler = AutoscalerConfig(
            target_p99_s=args.autoscale_p99, min_replicas=args.min_replicas,
            max_replicas=args.max_replicas, burn_windows=args.burn_windows,
            idle_windows=args.idle_windows,
        )
    config = FleetConfig(
        replicas=args.replicas, serving=_serving_config(args),
        seed=args.fleet_seed, health_every=args.health_every,
        pin_after=args.pin_after, hedge_factor=args.hedge_factor,
        self_heal=not args.no_self_heal, autoscaler=autoscaler,
    )
    served = ServingFleet(
        setup.graph, model, setup.cluster, setup.partitioning(),
        config=config, replica_faults=_replica_faults(args),
    )
    result = served.serve(_workload(setup))
    summary = result.summary()
    body.append(render(FLEET_COLUMNS, [summary]))
    body += [
        f"health: {e['event']} replica {e['replica']} "
        f"at {e['at_s'] * 1e3:.2f} ms (segment {e['segment']})"
        for e in result.health_events
    ]
    body += [
        f"scaling: {e.action} replica {e.replica} at {e.at_s * 1e3:.2f} ms "
        f"({e.reason}, {e.migrated_bytes / 1e3:.1f} KB migrated)"
        for e in result.scaling_events
    ]
    if args.trace:
        path = save_chrome_trace(served.groups[0].timeline, args.trace)
        body.append(f"chrome trace of replica 0 written to {path}")
    return Report(body, {
        **echo(args, "dataset", "partitioner", "replicas", "health_every"),
        "self_heal": not args.no_self_heal,
        "summary": jsonable(summary),
        "ledger": jsonable(result.ledger.to_dict()),
    })


COMMANDS = (
    Command(
        "serve", "online inference serving on the partitioned cluster",
        "serve --dataset cora --nodes 4 --train-epochs 3 --requests 500 "
        "--tau-s 0.05 --json serve.json",
        (
            MODEL, CLUSTER, workload(200, 2000.0, 1.0), serving(32),
            LIVE_SERVING, FAULTS, CRASHES, JSON,
        ),
        serve,
    ),
    Command(
        "serve-bench", "serving benchmark: batching speedup + staleness sweep",
        "serve-bench --dataset cora --nodes 4 --taus 0,0.01,0.05",
        (
            MODEL, CLUSTER, workload(400, 200000.0, 1.1), serving(64),
            arg("--taus", type=csv(float), default="0,0.01,0.05,0.2",
                help="comma-separated staleness bounds in seconds for the "
                     "sweep"),
            JSON,
        ),
        serve_bench,
    ),
    Command(
        "fleet",
        "replicated serving fleet: health-checked routing, failover, "
        "hedging, autoscaling",
        "fleet --dataset cora --nodes 2 --replicas 3 --crash-replica 1:0.02 "
        "--json fleet.json",
        (
            MODEL, CLUSTER, workload(200, 2000.0, 1.0), serving(32),
            LIVE_SERVING,
            arg("--replicas", type=int, default=2,
                help="serving groups behind the router (default %(default)s)"),
            arg("--fleet-seed", type=int, default=0,
                help="seed for routing + hedge-jitter streams"),
            arg("--health-every", type=int, default=32,
                help="requests per health-check segment (default %(default)s)"),
            arg("--pin-after", type=int, default=3,
                help="popularity pin threshold (default %(default)s)"),
            arg("--hedge-factor", type=float, default=3.0,
                help="suspect threshold: segment mean over this multiple of "
                     "the baseline p99 (default %(default)s)"),
            arg("--no-self-heal", action="store_true",
                help="disable automatic failover/hedging/autoscaling (the "
                     "ops-harness mode)"),
            arg("--crash-replica", action="append", type=crash_replica,
                metavar="SPEC",
                help="REPLICA:TIME[:TIMEOUT] -- every worker of the replica "
                     "goes dark at TIME"),
            arg("--straggle-replica", action="append", type=straggle_replica,
                metavar="SPEC",
                help="REPLICA:GPU_FACTOR[:START[:END]] -- slow every worker "
                     "of the replica"),
            FAULT_SEED,
            arg("--autoscale-p99", type=float, default=None,
                help="target p99 seconds; enables the SLO autoscaler"),
            arg("--min-replicas", type=int, default=1),
            arg("--max-replicas", type=int, default=4),
            arg("--burn-windows", type=int, default=2,
                help="consecutive burning segments before scale-out"),
            arg("--idle-windows", type=int, default=4,
                help="consecutive idle segments before scale-in"),
            JSON,
        ),
        fleet,
    ),
)
