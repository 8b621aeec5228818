"""The grid commands: cache-sweep, sample-sweep, tp-sweep, replan-sweep
and chaos (every engine under one fault schedule)."""

from __future__ import annotations

from repro import sweeps
from repro.cli.args import (
    CLUSTER, CRASHES, FAULTS, JSON, MODEL, SAMPLING, Setup,
    cluster_of, csv, fanout_groups, non_negative, sampler,
)
from repro.cli.base import Command, Report, arg, echo
from repro.resilience import (
    FaultSchedule, RecoveryPolicy, run_chaos, run_replan_sweep,
)


def cache_sweep(args) -> Report:
    setup = Setup(args)
    capacities = [None]
    if args.capacity_mb:
        capacities = [int(mb * 1024 * 1024) for mb in args.capacity_mb]
    result = sweeps.run_cache_sweep(
        setup.graph, setup.model, setup.cluster, taus=args.taus,
        epochs=args.epochs, engine_name=args.engine, capacities=capacities,
        lr=args.lr,
    )
    base = result["baseline"]
    best = sweeps.best_cache_point(result, args.accuracy_tolerance)
    verdict = "no point stayed within the accuracy tolerance"
    if best is not None:
        verdict = (f"best within {args.accuracy_tolerance * 100:.0f}% accuracy: "
                   f"tau={best['tau']:g} saves "
                   f"{best['comm_reduction'] * 100:.1f}% comm")
    return Report([
        f"baseline ({args.engine}, no cache): "
        f"{base['comm_bytes_per_epoch'] / 1e3:.1f} KB/epoch, "
        f"accuracy {base['accuracy'] * 100:.2f}%, "
        f"epoch {base['epoch_s'] * 1e3:.2f} ms",
        sweeps.render(sweeps.CACHE_COLUMNS, result["points"]),
        verdict,
    ], result)


def sample_sweep(args) -> Report:
    setup = Setup(args)
    rows = sweeps.run_sample_sweep(
        setup.graph, setup.cluster, samplers=args.samplers,
        fanouts=args.fanouts, kappas=args.kappas, cache_mb=args.cache_mb,
        arch=args.arch, hidden=setup.hidden, batch_size=args.batch_size,
        epochs=args.epochs, seed=args.seed,
    )
    return Report([sweeps.render(sweeps.SAMPLE_COLUMNS, rows)], {
        **echo(args, "dataset", "nodes", "cluster", "batch_size", "epochs"),
        "rows": rows,
    })


def tp_sweep(args) -> Report:
    result = sweeps.run_tp_sweep(
        args.exponents, args.hiddens, num_vertices=args.vertices,
        avg_degree=args.degree, num_layers=args.layers, arch=args.arch,
        cluster=cluster_of(args), seed=args.seed,
    )
    wins = result["crossover"]["four_way_win_cells"]
    verdict = "four-way never beats the best pure three-way plan on this grid"
    if wins:
        verdict = ("four-way beats the best pure three-way plan at: "
                   + ", ".join(f"(skew={e:g}, hidden={h})" for e, h in wins))
    return Report(
        [sweeps.render(sweeps.TP_COLUMNS, result["rows"]), verdict], result,
        footer=[f"sweep written to {args.json}"] if args.json else (),
    )


def replan_sweep(args) -> Report:
    setup = Setup(args)
    faults = setup.faults(required=True)
    result = run_replan_sweep(
        args.engine, setup.graph, setup.model, setup.cluster,
        lambda: FaultSchedule(list(faults), seed=args.fault_seed),
        epochs=args.epochs, check_every=args.check_every, alpha=args.alpha,
        drift_threshold=args.drift_threshold,
    )
    return Report([sweeps.render(sweeps.REPLAN_COLUMNS, [result])], result)


def chaos(args) -> Report:
    setup = Setup(args)
    faults = setup.faults(required=True)
    policy = RecoveryPolicy(
        checkpoint_every=args.checkpoint_every, strategy=args.recovery,
        rejoin_after_epochs=args.rejoin_after,
    )

    def run(engine):
        return run_chaos(
            engine, setup.graph, setup.model, setup.cluster,
            FaultSchedule(list(faults), seed=args.fault_seed),
            epochs=args.epochs, policy=policy,
            mode=args.mode, **setup.sampling(engine),
        )

    engines = sweeps.PURE_THREE_WAY if args.engine == "all" else [args.engine]
    rows = sweeps.run_chaos_grid(engines, run, policy.max_recoveries)
    failures = {r["engine"]: r["failure"] for r in rows if "failure" in r}
    return Report([sweeps.render(sweeps.CHAOS_COLUMNS, rows)], {
        **echo(args, "dataset", "mode", "recovery", "epochs"),
        "engines": {
            r["engine"]: r["report"].to_dict() for r in rows if "report" in r
        },
        "failures": failures,
    }, code=1 if failures else 0)


COMMANDS = (
    Command(
        "cache-sweep",
        "sweep the staleness bound tau against a cache-free baseline",
        "cache-sweep --dataset pubmed --engine depcomm --taus 0,2,4,8 "
        "--json sweep.json",
        (
            MODEL, CLUSTER,
            arg("--engine", default="depcomm", choices=["depcomm", "hybrid"]),
            arg("--epochs", type=int, default=20),
            arg("--lr", type=float, default=0.01),
            arg("--taus", type=csv(float), default="0,2,4,8",
                help="comma-separated staleness bounds ('inf' allowed)"),
            arg("--capacity-mb", type=csv(float), default=None,
                help="comma-separated capacity caps in MB (default: "
                     "unbounded only)"),
            arg("--accuracy-tolerance", type=float, default=0.01,
                help="accuracy drop tolerated when picking the best point "
                     "(default %(default)s)"),
            JSON,
        ),
        cache_sweep,
    ),
    Command(
        "sample-sweep",
        "sweep sampler x fanout x kappa x feature-cache capacity",
        "sample-sweep --dataset reddit --samplers uniform,labor "
        "--fanouts '10,25;5,10' --kappas 1,4",
        (
            MODEL, CLUSTER,
            arg("--samplers", type=csv(sampler), default="uniform,labor,ladies",
                help="comma-separated sampler names (default %(default)s)"),
            arg("--fanouts", type=fanout_groups, default="10,25",
                help="semicolon-separated fanout groups, e.g. '10,25;5,10' "
                     "(default '%(default)s')"),
            arg("--kappas", type=csv(non_negative), default="1",
                help="comma-separated kappa values: consecutive rounds "
                     "that share their draws"),
            arg("--cache-mb", type=csv(float), default="0",
                help="comma-separated static feature-cache capacities in MB "
                     "(0 = no cache)"),
            arg("--batch-size", type=int, default=128),
            arg("--epochs", type=int, default=2,
                help="charged epochs per grid point (default %(default)s)"),
            JSON,
        ),
        sample_sweep,
    ),
    Command(
        "tp-sweep",
        "degree-skew x hidden-dim sweep locating the hybrid <-> "
        "tensor-parallel crossover",
        "tp-sweep --nodes 16 --exponents 0.1,0.85,1.2 --hiddens 16,64,256 "
        "--json tp.json",
        (
            CLUSTER,
            arg("--exponents", type=csv(float), default="0.1,0.85,1.2",
                help="comma-separated scaled-social hub exponents (default "
                     "'%(default)s')"),
            arg("--hiddens", type=csv(int), default="16,64,256",
                help="comma-separated hidden widths (default '%(default)s')"),
            arg("--vertices", type=int, default=3072,
                help="scaled-social vertex count (default %(default)s)"),
            arg("--degree", type=float, default=16.0,
                help="scaled-social average degree (default %(default)s)"),
            arg("--arch", choices=["gcn", "gin", "gat", "sage"], default="gcn"),
            arg("--layers", type=int, default=2),
            arg("--seed", type=int, default=0),
            JSON,
        ),
        tp_sweep,
    ),
    Command(
        "replan-sweep",
        "compare static planning vs online re-planning under sustained "
        "faults",
        "replan-sweep --dataset wiki --nodes 8 --straggler 0:8:8",
        (
            MODEL, CLUSTER,
            arg("--engine", default="hybrid",
                choices=["depcache", "depcomm", "hybrid"]),
            arg("--epochs", type=int, default=10),
            FAULTS,
            arg("--check-every", type=int, default=1,
                help="epochs between health-monitor observations"),
            arg("--alpha", type=float, default=0.4,
                help="EWMA smoothing for the health estimates"),
            arg("--drift-threshold", type=float, default=0.3,
                help="relative drift that triggers a re-plan"),
            JSON,
        ),
        replan_sweep,
    ),
    Command(
        "chaos", "inject faults and compare engine degradation/recovery",
        "chaos --dataset wiki --nodes 8 --straggler 2:4 --crash 1:0.01",
        (
            MODEL, CLUSTER,
            arg("--engine", default="all",
                choices=["all", "depcache", "depcomm", "hybrid", "distdgl",
                         "sampled"]),
            SAMPLING,
            arg("--epochs", type=int, default=5),
            arg("--mode", choices=["timing", "train"], default="timing"),
            FAULTS, CRASHES,
            arg("--checkpoint-every", type=int, default=5,
                help="epochs between recovery checkpoints"),
            arg("--recovery", default="restart",
                choices=["restart", "shrink", "auto"],
                help="crash recovery strategy: re-provision and replay, "
                     "shrink onto the survivors, or pick per crash "
                     "(default %(default)s)"),
            arg("--rejoin-after", type=int, default=None,
                help="epochs after a shrink before the departed worker "
                     "rejoins (default: never)"),
            JSON,
        ),
        chaos,
    ),
)
