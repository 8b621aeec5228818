"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the Table-2 dataset catalog (scaled and paper sizes).
``probe``
    Probe the environment constants T_v / T_e / T_c for a model on a
    cluster (Algorithm 4, line 1).
``train``
    Train a model with a chosen engine on a simulated cluster; reports
    real loss/accuracy and modeled cluster time, optionally saving a
    checkpoint.
``compare``
    Per-epoch modeled time of DepCache vs DepComm vs Hybrid on one
    dataset (the Figure 2 / Figure 9 workflow as one command).
``analyze``
    Structural report (degree skew, locality, replication factor) and
    a strategy recommendation for a dataset under a partitioning.
``chaos``
    Inject faults (stragglers, link degradation, message loss, worker
    crashes) and compare how each engine degrades; crashes are
    recovered by checkpoint rollback-restart, by elastic shrink
    (survivors absorb the dead partition), or per-crash (``auto``).
``cache-sweep``
    Sweep the staleness bound tau (and optionally the cache capacity)
    of the historical-embedding cache, reporting per-epoch
    communication volume and accuracy against a cache-free baseline.
``replan-sweep``
    Compare static planning against health-monitor-driven online
    re-planning under sustained stragglers / degraded links.
``serve``
    Online inference serving: answer a seeded stream of node-level
    prediction requests on the partitioned cluster, with micro-batching,
    a staleness-bounded embedding cache, and hybrid local/remote
    dependency planning; reports the per-request latency ledger.
``serve-bench``
    Serving benchmark: batched vs unbatched throughput at identical
    predictions, plus a staleness-bound sweep showing the
    traffic/staleness trade-off.
``explain-plan``
    Print the compiled per-layer dataflow program (step kinds, vertex
    counts, bytes, applied passes) for an engine on a dataset; with
    ``--sampled`` (or a sampled engine) dry-runs the first mini-batch
    round(s) and renders each round's compiled Program.
``sample-sweep``
    Sweep the sampled-training grid (sampler x fanout x kappa x
    feature-cache capacity), reporting charged epoch time, comm
    bytes, and reuse/cache counters per grid point.
``tp-sweep``
    Sweep degree skew x hidden width on the scaled-social family and
    locate where tensor parallelism (the fourth dependency strategy)
    overtakes the best pure three-way plan.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cluster.memory import OutOfMemoryError
from repro.cluster.spec import ClusterSpec
from repro.comm.scheduler import CommOptions
from repro.core.model import GNNModel
from repro.costmodel.probe import probe_constants
from repro.engines import make_engine
from repro.graph.datasets import DATASETS, load_dataset, spec_of
from repro.training.checkpoint import load_checkpoint, save_checkpoint
from repro.training.prep import prepare_graph
from repro.training.trainer import DistributedTrainer
from repro.utils import jsonable, render_table, write_json


def _cluster(args) -> ClusterSpec:
    if args.cluster == "ecs":
        return ClusterSpec.ecs(args.nodes)
    if args.cluster == "ibv":
        return ClusterSpec.ibv(args.nodes)
    return ClusterSpec.cpu(args.nodes)


def _add_sampling_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sampler", default="uniform",
                        choices=["uniform", "labor", "ladies"],
                        help="mini-batch sampler for --engine sampled "
                             "(default uniform)")
    parser.add_argument("--fanouts", default=None,
                        help="comma-separated per-layer fanouts, seed layer "
                             "first, e.g. '10,25' (default: the engine's)")
    parser.add_argument("--kappa", type=float, default=0.0,
                        help="batch-dependency knob: fraction of the "
                             "previous batch's sampled closure reused "
                             "(default 0 = independent batches)")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="mini-batch seed count (default 128)")


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=8,
                        help="number of simulated workers (default 8)")
    parser.add_argument("--cluster", choices=["ecs", "ibv", "cpu"],
                        default="ecs", help="hardware profile (default ecs)")


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", required=True,
                        help="catalog dataset name (see `datasets`)")
    parser.add_argument("--arch", choices=["gcn", "gin", "gat", "sage"],
                        default="gcn")
    parser.add_argument("--hidden", type=int, default=None,
                        help="hidden width (default: the dataset's Table-2 value)")
    parser.add_argument("--layers", type=int, default=2)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale factor (default 1.0)")
    parser.add_argument("--seed", type=int, default=0)


def _cache_config(args):
    """Build a CacheConfig from the shared cache flags (None = no cache)."""
    tau = getattr(args, "tau", None)
    if tau is None:
        return None
    from repro.cache import CacheConfig

    capacity_mb = getattr(args, "cache_mb", None)
    return CacheConfig(
        tau=float("inf") if tau == "inf" else float(tau),
        policy=getattr(args, "cache_policy", "expectation"),
        capacity_bytes=(
            int(capacity_mb * 1024 * 1024) if capacity_mb is not None else None
        ),
    )


def _build(args, engine_name: str, comm: CommOptions = CommOptions.all(), **extra):
    graph = prepare_graph(load_dataset(args.dataset, scale=args.scale), args.arch)
    spec = spec_of(args.dataset)
    model = GNNModel.build(
        args.arch, graph.feature_dim, args.hidden or spec.hidden_dim,
        graph.num_classes, num_layers=args.layers, seed=args.seed,
    )
    engine = make_engine(
        engine_name, graph, model, _cluster(args), comm=comm,
        cache_config=_cache_config(args), **extra,
    )
    return graph, model, engine


def _parse_fanouts(text: str):
    """Parse ``'10,25;5,10'`` into ``((10, 25), (5, 10))``."""
    groups = []
    for group in text.split(";"):
        group = group.strip()
        if group:
            groups.append(tuple(int(f) for f in group.split(",")))
    if not groups:
        raise SystemExit("--fanouts needs at least one group like '10,25'")
    return tuple(groups)


def _sampling_kwargs(args, engine_name: Optional[str] = None):
    """Sampling flags forwarded to sampled engines (empty otherwise)."""
    name = engine_name or getattr(args, "engine", None)
    if name not in ("sampled", "distdgl"):
        return {}
    extra = {}
    if getattr(args, "fanouts", None):
        extra["fanouts"] = _parse_fanouts(args.fanouts)[0]
    if getattr(args, "batch_size", None) is not None:
        extra["batch_size"] = args.batch_size
    if getattr(args, "kappa", 0.0):
        extra["kappa"] = args.kappa
    # The distdgl facade hardwires uniform sampling; only the generic
    # sampled engine takes a sampler choice.
    if name == "sampled" and getattr(args, "sampler", None):
        extra["sampler"] = args.sampler
    return extra


def cmd_datasets(_args) -> int:
    rows = []
    for spec in DATASETS.values():
        rows.append([
            spec.name, str(spec.num_vertices), str(spec.num_edges),
            f"{spec.avg_degree:.1f}", str(spec.feature_dim),
            str(spec.num_labels), str(spec.hidden_dim),
            spec.paper_vertices, spec.paper_edges,
        ])
    print(render_table(
        ["name", "|V|", "|E|", "deg", "ftr", "#L", "hid",
         "paper |V|", "paper |E|"],
        rows,
    ))
    return 0


def cmd_probe(args) -> int:
    graph = load_dataset(args.dataset, scale=args.scale)
    spec = spec_of(args.dataset)
    model = GNNModel.build(
        args.arch, graph.feature_dim, args.hidden or spec.hidden_dim,
        graph.num_classes, num_layers=args.layers, seed=args.seed,
    )
    constants = probe_constants(_cluster(args), model)
    print(f"Probed constants ({args.cluster}, {args.arch} on {args.dataset}):")
    rows = []
    for l in range(1, model.num_layers + 1):
        rows.append([
            str(l), f"{constants.vertex_cost(l):.3e}",
            f"{constants.edge_cost(l):.3e}", f"{constants.comm_cost(l):.3e}",
        ])
    print(render_table(["layer", "T_v (s/vertex)", "T_e (s/edge)",
                        "T_c (s/dep)"], rows))
    return 0


def cmd_train(args) -> int:
    graph, model, engine = _build(args, args.engine, **_sampling_kwargs(args))
    try:
        plan = engine.plan()
    except OutOfMemoryError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if hasattr(plan, "cache_ratio"):
        print(f"plan: {plan.cache_ratio() * 100:.0f}% of remote "
              "dependencies cached")
    trainer = DistributedTrainer(engine, lr=args.lr)
    history = trainer.train(epochs=args.epochs, eval_every=args.eval_every)
    rows = [
        [str(p.epoch), f"{p.loss:.4f}", f"{p.accuracy * 100:.2f}%",
         f"{p.time_s:.3f}s"]
        for p in history.convergence
    ]
    print(render_table(["epoch", "loss", "accuracy", "cluster time"], rows))
    print(f"best accuracy {history.best_accuracy() * 100:.2f}%, "
          f"avg epoch {history.avg_epoch_time_s * 1e3:.2f} ms")
    if getattr(engine, "cache_config", None) is not None:
        hits = sum(r.cache_hits for r in history.reports)
        misses = sum(r.cache_misses for r in history.reports)
        saved = sum(r.comm_saved_bytes for r in history.reports)
        rate = hits / (hits + misses) if hits + misses else 0.0
        print(f"cache: {rate * 100:.0f}% hit rate, "
              f"{saved / 1e6:.2f} MB comm saved, "
              f"{history.forced_refreshes} forced refreshes")
    if args.checkpoint:
        path = save_checkpoint(
            model, args.checkpoint,
            dataset=args.dataset, arch=args.arch,
            epochs=args.epochs, accuracy=history.best_accuracy(),
        )
        print(f"checkpoint written to {path}")
    if args.json:
        payload = {
            "dataset": args.dataset,
            "arch": args.arch,
            "engine": args.engine,
            "epochs": args.epochs,
            "best_accuracy": history.best_accuracy(),
            "final_loss": history.final_loss,
            "avg_epoch_time_s": history.avg_epoch_time_s,
            "convergence": [
                {"epoch": p.epoch, "time_s": p.time_s,
                 "accuracy": p.accuracy, "loss": p.loss}
                for p in history.convergence
            ],
        }
        if getattr(engine, "cache_config", None) is not None:
            hits = sum(r.cache_hits for r in history.reports)
            misses = sum(r.cache_misses for r in history.reports)
            payload["cache"] = {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                "comm_saved_bytes": sum(
                    r.comm_saved_bytes for r in history.reports
                ),
                "forced_refreshes": history.forced_refreshes,
            }
        write_json(args.json, payload)
    return 0


def _requested_passes(args) -> tuple:
    names = []
    for attr, name in (
        ("overlap_pass", "overlap-exchange"),
        ("fuse_pass", "fuse-scatter-gather"),
        ("pipeline_pass", "chunk-pipeline"),
        ("ring_pass", "ring-reorder"),
    ):
        if getattr(args, attr, False):
            names.append(name)
    return tuple(names)


def cmd_explain_plan(args) -> int:
    if args.sampled or args.engine in ("sampled", "distdgl"):
        return _explain_sampled(args)
    from repro.execution import describe_program, render_program

    _, _, engine = _build(args, args.engine)
    engine.program_passes = _requested_passes(args)
    try:
        engine.plan()
    except OutOfMemoryError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.json:
        write_json(args.json, describe_program(engine))
        print(f"program written to {args.json}")
    else:
        print(render_program(engine))
    return 0


def _explain_sampled(args) -> int:
    """``explain-plan --sampled``: dry-run and render mini-batch rounds."""
    from repro.sampling import describe_sampled_batches, render_sampled_batches

    engine_name = (
        args.engine if args.engine in ("sampled", "distdgl") else "sampled"
    )
    _, _, engine = _build(
        args, engine_name, **_sampling_kwargs(args, engine_name)
    )
    engine.program_passes = _requested_passes(args)
    try:
        engine.plan()
    except OutOfMemoryError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.json:
        write_json(
            args.json, describe_sampled_batches(engine, num_batches=args.batches)
        )
        print(f"program written to {args.json}")
    else:
        print(render_sampled_batches(engine, num_batches=args.batches))
    return 0


def cmd_sample_sweep(args) -> int:
    from repro.sampling import run_sample_sweep

    rows_data = run_sample_sweep(
        args.dataset,
        scale=args.scale,
        samplers=tuple(s.strip() for s in args.samplers.split(",") if s.strip()),
        fanouts=_parse_fanouts(args.fanouts),
        kappas=tuple(float(k) for k in args.kappas.split(",")),
        cache_mb=tuple(float(c) for c in args.cache_mb.split(",")),
        cluster=_cluster(args),
        arch=args.arch,
        hidden=args.hidden,
        batch_size=args.batch_size,
        epochs=args.epochs,
        seed=args.seed,
    )
    rows = [
        [
            r["sampler"],
            ",".join(str(f) for f in r["fanouts"]),
            f"{r['kappa']:g}",
            f"{r['cache_mb']:g}",
            f"{r['epoch_s'] * 1e3:.2f}",
            f"{r['comm_bytes'] / 1e3:.1f}",
            str(r["sampled_edges"]),
            str(r["unique_remote"]),
            str(r["fetched_rows"]),
            str(r["reused_rows"]),
            str(r["pinned_rows"]),
        ]
        for r in rows_data
    ]
    print(render_table(
        ["sampler", "fanouts", "kappa", "cache MB", "epoch ms", "comm KB",
         "edges", "uniq remote", "fetched", "reused", "pinned"],
        rows,
    ))
    if args.json:
        write_json(args.json, {
            "dataset": args.dataset,
            "nodes": args.nodes,
            "cluster": args.cluster,
            "batch_size": args.batch_size,
            "epochs": args.epochs,
            "rows": rows_data,
        })
    return 0


def cmd_tp_sweep(args) -> int:
    from repro.engines.tp_sweep import PURE_THREE_WAY, run_tp_sweep

    result = run_tp_sweep(
        exponents=tuple(float(e) for e in args.exponents.split(",")),
        hiddens=tuple(int(h) for h in args.hiddens.split(",")),
        num_vertices=args.vertices,
        avg_degree=args.degree,
        num_layers=args.layers,
        arch=args.arch,
        cluster=_cluster(args),
        seed=args.seed,
    )
    rows = []
    for r in result["rows"]:
        times = r["times_s"]
        rows.append([
            f"{r['hub_exponent']:g}", str(r["hidden"]),
            *(f"{times[name] * 1e3:.3f}" for name in PURE_THREE_WAY),
            f"{times['tp'] * 1e3:.3f}", f"{times['hybrid4'] * 1e3:.3f}",
            "".join("T" if flag else "." for flag in r["tp_layers"]),
            "hybrid4" if r["four_way_wins"]
            else ("tp" if r["tp_wins"] else "three-way"),
        ])
    print(render_table(
        ["skew", "hidden", "depcache ms", "depcomm ms", "hybrid ms",
         "tp ms", "hybrid4 ms", "tp layers", "winner"],
        rows,
    ))
    crossover = result["crossover"]
    wins = crossover["four_way_win_cells"]
    if wins:
        print(f"four-way beats the best pure three-way plan at: "
              f"{', '.join(f'(skew={e:g}, hidden={h})' for e, h in wins)}")
    else:
        print("four-way never beats the best pure three-way plan "
              "on this grid")
    if args.json:
        write_json(args.json, result)
        print(f"sweep written to {args.json}")
    return 0


def cmd_analyze(args) -> int:
    from repro.analysis import analyze_dependencies, analyze_graph, recommend_strategy
    from repro.partition import get_partitioner

    graph = prepare_graph(load_dataset(args.dataset, scale=args.scale), args.arch)
    report = analyze_graph(graph)
    print(f"{args.dataset}: |V|={report.num_vertices} |E|={report.num_edges} "
          f"deg={report.avg_degree:.1f} gini={report.degree_gini:.2f} "
          f"locality={report.chunk_locality:.2f}")
    partitioning = get_partitioner(args.partitioner)(graph, args.nodes)
    deps = analyze_dependencies(graph, partitioning, num_layers=args.layers)
    recommendation = recommend_strategy(graph, partitioning, args.layers)
    print(f"partitioning: {args.partitioner} x {args.nodes} -> "
          f"replication {deps.replication_factor:.2f}x, "
          f"{deps.comm_bytes_per_layer / 1e6:.2f} MB/layer communicated")
    print(f"recommendation: {recommendation}")
    if args.json:
        write_json(args.json, {
            "dataset": args.dataset,
            "num_vertices": report.num_vertices,
            "num_edges": report.num_edges,
            "avg_degree": report.avg_degree,
            "degree_gini": report.degree_gini,
            "chunk_locality": report.chunk_locality,
            "partitioner": args.partitioner,
            "nodes": args.nodes,
            "replication_factor": deps.replication_factor,
            "comm_bytes_per_layer": deps.comm_bytes_per_layer,
            "recommendation": jsonable(recommendation),
        })
    return 0


def _parse_endpoint(token: str):
    return None if token in ("*", "") else int(token)


_TRUTHY = ("1", "true", "yes", "perm", "permanent")


def _parse_fault_args(args, allow_crash: bool = True, required: bool = True) -> List:
    """Build fault objects from the ``repro chaos`` flag grammar."""
    from repro.resilience import (
        LinkDegradationFault,
        MessageLossFault,
        StragglerFault,
        WorkerCrashFault,
    )

    faults: List = []
    for spec in args.straggler or []:
        parts = spec.split(":")
        faults.append(StragglerFault(
            worker=int(parts[0]),
            gpu_factor=float(parts[1]) if len(parts) > 1 else 4.0,
            cpu_factor=float(parts[2]) if len(parts) > 2 else None,
            start=float(parts[3]) if len(parts) > 3 else 0.0,
            end=float(parts[4]) if len(parts) > 4 else float("inf"),
        ))
    for spec in args.degrade or []:
        parts = spec.split(":")
        if len(parts) < 3:
            raise SystemExit(f"--degrade wants SRC:DST:FACTOR, got {spec!r}")
        faults.append(LinkDegradationFault(
            src=_parse_endpoint(parts[0]),
            dst=_parse_endpoint(parts[1]),
            bandwidth_factor=float(parts[2]),
            extra_latency_s=float(parts[3]) if len(parts) > 3 else 0.0,
        ))
    for spec in args.loss or []:
        parts = spec.split(":")
        faults.append(MessageLossFault(
            drop_fraction=float(parts[0]),
            src=_parse_endpoint(parts[1]) if len(parts) > 1 else None,
            dst=_parse_endpoint(parts[2]) if len(parts) > 2 else None,
        ))
    for spec in getattr(args, "crash", None) or []:
        if not allow_crash:
            raise SystemExit("--crash is not valid for this command")
        parts = spec.split(":")
        if len(parts) < 2:
            raise SystemExit(f"--crash wants WORKER:TIME, got {spec!r}")
        faults.append(WorkerCrashFault(
            worker=int(parts[0]),
            at_time=float(parts[1]),
            detection_timeout_s=(
                float(parts[2]) if len(parts) > 2 and parts[2] else 0.05
            ),
            permanent=(
                parts[3].lower() in _TRUTHY if len(parts) > 3 else False
            ),
        ))
    if not faults and required:
        raise SystemExit(
            "chaos needs at least one fault "
            "(--straggler / --degrade / --loss"
            + (" / --crash)" if allow_crash else ")")
        )
    return faults


def cmd_chaos(args) -> int:
    from repro.resilience import (
        FaultSchedule,
        RecoveryExhaustedError,
        RecoveryPolicy,
        RetryPolicy,
        run_chaos,
    )

    graph = prepare_graph(load_dataset(args.dataset, scale=args.scale), args.arch)
    spec = spec_of(args.dataset)

    def model_factory():
        return GNNModel.build(
            args.arch, graph.feature_dim, args.hidden or spec.hidden_dim,
            graph.num_classes, num_layers=args.layers, seed=args.seed,
        )

    cluster = _cluster(args)
    faults = _parse_fault_args(args)
    engines = (
        ["depcache", "depcomm", "hybrid"]
        if args.engine == "all" else [args.engine]
    )
    policy = RecoveryPolicy(
        checkpoint_every=args.checkpoint_every,
        strategy=args.recovery,
        rejoin_after_epochs=args.rejoin_after,
    )
    rows = []
    reports = {}
    failures = {}
    for engine_name in engines:
        schedule = FaultSchedule(list(faults), seed=args.fault_seed)
        try:
            report = run_chaos(
                engine_name, graph, model_factory, cluster, schedule,
                epochs=args.epochs, retry=RetryPolicy(), policy=policy,
                mode=args.mode,
                **_sampling_kwargs(args, engine_name),
            )
        except OutOfMemoryError as err:
            rows.append([engine_name, "OOM", "-", "-", "-", "-", "-", err.label])
            continue
        except RecoveryExhaustedError as err:
            failures[engine_name] = {
                "error": "recovery_exhausted",
                "worker": err.fault.worker,
                "detected_at_s": err.detected_at_s,
                "recoveries": err.recoveries,
                "max_recoveries": policy.max_recoveries,
                "message": str(err),
            }
            rows.append([
                engine_name, "FAILED", "-", "-", "-", "-",
                f"{err.recoveries} (budget exhausted)", "-",
            ])
            continue
        reports[engine_name] = report
        rows.append([
            engine_name,
            f"{report.clean_epoch_s * 1e3:.2f}",
            f"{report.faulty_epoch_s * 1e3:.2f}",
            f"{report.degradation:.2f}x",
            str(report.retries),
            f"{report.idle_fraction * 100:.1f}%",
            (
                f"{len(report.recoveries)} "
                f"({report.total_recovery_s * 1e3:.1f} ms)"
                if report.recoveries else "-"
            ),
            str(report.num_workers_final),
        ])
    print(render_table(
        ["engine", "clean ms", "faulty ms", "slowdown", "retries",
         "idle", "recoveries", "workers"],
        rows,
    ))
    if args.json:
        payload = {
            "dataset": args.dataset,
            "mode": args.mode,
            "recovery": args.recovery,
            "epochs": args.epochs,
            "engines": {name: r.to_dict() for name, r in reports.items()},
            "failures": failures,
        }
        write_json(args.json, payload)
    return 1 if failures else 0


def _ops_run_row(res):
    v, g = res.verdict, res.grade
    blame = "-"
    if v is not None:
        if v.worker is not None:
            blame = f"worker {v.worker}"
        elif v.link is not None:
            src, dst = v.link
            blame = f"link {src}->{'*' if dst is None else dst}"
        elif v.layer is not None:
            blame = f"layer {v.layer}"
    return [
        res.problem.name,
        res.problem.kind,
        v.kind if v is not None else "missed",
        blame,
        f"{g.detection.ttd_s * 1e3:.2f}" if g.detection.detected else "-",
        f"{g.detection.score:.2f}",
        f"{g.mitigation.score:.2f}",
        f"{g.overall:.2f}",
        "yes" if res.aborted else "no",
    ]


def cmd_ops(args) -> int:
    from repro.ops import (
        get_problem,
        list_problems,
        load_bundle,
        replay_bundle,
        run_problem,
        save_bundle,
    )

    if args.ops_command == "list":
        problems = list_problems()
        print(render_table(
            ["problem", "kind", "workload", "mitigation", "description"],
            [[p.name, p.kind, p.workload, p.mitigation, p.description]
             for p in problems],
        ))
        if args.json:
            write_json(args.json, {
                "problems": [p.spec_dict() for p in problems],
            })
        return 0

    if args.ops_command == "run":
        if args.problem and not args.all:
            problems = [get_problem(args.problem)]
        else:
            problems = list_problems()
        mitigate = not args.no_mitigate
        rows, payload, recorded = [], {}, []
        for problem in problems:
            res = run_problem(problem, seed=args.seed, mitigate=mitigate)
            rows.append(_ops_run_row(res))
            payload[problem.name] = {
                "seed": res.seed,
                "mitigate": res.mitigate,
                "aborted": res.aborted,
                "clean_unit_s": res.clean_unit_s,
                "verdict": res.verdict.to_dict() if res.verdict else None,
                "mitigation": (
                    res.mitigation.to_dict() if res.mitigation else None
                ),
                "grade": res.grade.to_dict(),
            }
            if args.record:
                stem = args.record[:-5] if args.record.endswith(".json") \
                    else args.record
                path = args.record if len(problems) == 1 \
                    else f"{stem}-{problem.name}.json"
                recorded.append(save_bundle(res, path))
        print(render_table(
            ["problem", "kind", "verdict", "blame", "ttd ms",
             "detect", "mitigate", "overall", "aborted"],
            rows,
        ))
        for path in recorded:
            print(f"bundle written to {path}")
        if args.json:
            write_json(args.json, {
                "seed": args.seed,
                "mitigate": mitigate,
                "problems": payload,
            })
        return 0

    # grade / replay consume a recorded bundle, engine-free.
    bundle = load_bundle(args.bundle)
    report = replay_bundle(bundle)
    if args.ops_command == "grade":
        g = report.grade
        print(render_table(
            ["problem", "detect", "blame", "ttd ms", "mitigate",
             "recovery ms", "regression", "overall"],
            [[
                report.name,
                f"{g.detection.score:.2f}",
                f"{g.detection.blame_score:.2f}",
                f"{g.detection.ttd_s * 1e3:.2f}"
                if g.detection.detected else "-",
                f"{g.mitigation.score:.2f}",
                f"{g.mitigation.recovery_s * 1e3:.2f}"
                if g.mitigation.recovered else "-",
                f"{g.mitigation.regression:+.2f}"
                if g.mitigation.recovered else "-",
                f"{g.overall:.2f}",
            ]],
        ))
        if args.json:
            write_json(args.json, report.to_dict())
        return 0

    # replay: verify the bundle reproduces itself bit-identically.
    status = "identical" if report.identical else "DIVERGED"
    print(render_table(
        ["problem", "seed", "observations", "verdict", "grade", "replay"],
        [[
            report.name,
            str(report.seed),
            "match" if report.observations_match else "MISMATCH",
            "match" if report.verdict_match else "MISMATCH",
            "match" if report.grade_match else "MISMATCH",
            status,
        ]],
    ))
    for line in report.mismatches:
        print(f"mismatch: {line}")
    if args.json:
        write_json(args.json, report.to_dict())
    return 0 if report.identical else 1


def cmd_compare(args) -> int:
    rows = []
    times = {}
    notes = {}
    for engine_name in ["depcache", "depcomm", "hybrid"]:
        try:
            _, _, engine = _build(args, engine_name)
            t = engine.charge_epoch()
            times[engine_name] = t
            extra = ""
            if engine_name == "hybrid":
                extra = f"{engine.plan().cache_ratio() * 100:.0f}% cached"
            notes[engine_name] = extra
            rows.append([engine_name, f"{t * 1e3:.2f}", extra])
        except OutOfMemoryError as err:
            notes[engine_name] = err.label
            rows.append([engine_name, "OOM", err.label])
    print(render_table(["engine", "epoch ms", "notes"], rows))
    best = min(times, key=times.get) if times else None
    if best:
        print(f"best: {best}")
    if args.json:
        write_json(args.json, {
            "dataset": args.dataset,
            "arch": args.arch,
            "nodes": args.nodes,
            "cluster": args.cluster,
            "engines": {
                name: {
                    "epoch_s": times.get(name, "OOM"),
                    "notes": notes[name],
                }
                for name in ["depcache", "depcomm", "hybrid"]
            },
            "best": best,
        })
    return 0


def cmd_cache_sweep(args) -> int:
    from repro.cache.sweep import run_cache_sweep

    graph = prepare_graph(load_dataset(args.dataset, scale=args.scale), args.arch)
    spec = spec_of(args.dataset)

    def model_factory():
        return GNNModel.build(
            args.arch, graph.feature_dim, args.hidden or spec.hidden_dim,
            graph.num_classes, num_layers=args.layers, seed=args.seed,
        )

    taus = [
        float("inf") if t.strip() == "inf" else float(t)
        for t in args.taus.split(",")
    ]
    capacities = (
        [int(float(c) * 1024 * 1024) for c in args.capacity_mb.split(",")]
        if args.capacity_mb else [None]
    )
    try:
        result = run_cache_sweep(
            graph, model_factory, _cluster(args),
            taus=taus, capacities=capacities, epochs=args.epochs,
            engine_name=args.engine, policy=args.cache_policy, lr=args.lr,
        )
    except OutOfMemoryError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"baseline ({args.engine}, no cache): "
          f"{result.baseline_comm_bytes / 1e3:.1f} KB/epoch, "
          f"accuracy {result.baseline_accuracy * 100:.2f}%, "
          f"epoch {result.baseline_epoch_s * 1e3:.2f} ms")
    rows = []
    for p in result.points:
        capacity = (
            "-" if p.capacity_bytes is None
            else f"{p.capacity_bytes / 1024 / 1024:g}MB"
        )
        rows.append([
            "inf" if p.tau == float("inf") else f"{p.tau:g}",
            capacity,
            f"{p.avg_comm_bytes / 1e3:.1f}",
            f"{p.comm_reduction * 100:.1f}%",
            f"{p.accuracy * 100:.2f}%",
            f"{p.accuracy_delta * 100:+.2f}%",
            f"{p.hit_rate() * 100:.0f}%",
            f"{p.speedup:.2f}x",
            str(p.forced_refreshes),
        ])
    print(render_table(
        ["tau", "capacity", "KB/epoch", "comm saved", "accuracy",
         "delta", "hit rate", "speedup", "forced"],
        rows,
    ))
    best = result.best(accuracy_tolerance=args.accuracy_tolerance)
    if best is not None:
        print(f"best within {args.accuracy_tolerance * 100:.0f}% accuracy: "
              f"tau={best.tau:g} saves {best.comm_reduction * 100:.1f}% comm")
    else:
        print("no point stayed within the accuracy tolerance")
    if args.json:
        write_json(args.json, result.to_dict())
    return 0


def cmd_replan_sweep(args) -> int:
    from repro.resilience import FaultSchedule, run_replan_sweep

    graph = prepare_graph(load_dataset(args.dataset, scale=args.scale), args.arch)
    spec = spec_of(args.dataset)

    def model_factory():
        return GNNModel.build(
            args.arch, graph.feature_dim, args.hidden or spec.hidden_dim,
            graph.num_classes, num_layers=args.layers, seed=args.seed,
        )

    faults = _parse_fault_args(args, allow_crash=False)

    def schedule_factory():
        return FaultSchedule(list(faults), seed=args.fault_seed)

    try:
        result = run_replan_sweep(
            args.engine, graph, model_factory, _cluster(args),
            schedule_factory, epochs=args.epochs,
            check_every=args.check_every, alpha=args.alpha,
            drift_threshold=args.drift_threshold,
        )
    except OutOfMemoryError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    rows = [[
        result["engine"],
        f"{result['static_makespan_s'] * 1e3:.2f}",
        f"{result['adaptive_makespan_s'] * 1e3:.2f}",
        f"{result['speedup']:.2f}x",
        str(result["replans"]),
        f"{result['static_cache_ratio'] * 100:.0f}%",
        f"{result['adaptive_cache_ratio'] * 100:.0f}%",
    ]]
    print(render_table(
        ["engine", "static ms", "adaptive ms", "speedup", "replans",
         "static cached", "adaptive cached"],
        rows,
    ))
    if args.json:
        write_json(args.json, result)
    return 0


def _serving_setup(args):
    """Graph + (optionally trained) model + partitioning for serving."""
    from repro.partition import get_partitioner

    graph = prepare_graph(load_dataset(args.dataset, scale=args.scale), args.arch)
    spec = spec_of(args.dataset)
    model = GNNModel.build(
        args.arch, graph.feature_dim, args.hidden or spec.hidden_dim,
        graph.num_classes, num_layers=args.layers, seed=args.seed,
    )
    cluster = _cluster(args)
    if getattr(args, "checkpoint", None):
        meta = load_checkpoint(model, args.checkpoint)
        print(f"loaded checkpoint {args.checkpoint} "
              f"({meta.get('dataset', '?')}, {meta.get('arch', '?')})")
    elif getattr(args, "train_epochs", 0):
        engine = make_engine("hybrid", graph, model, cluster)
        DistributedTrainer(engine, lr=0.01).train(
            epochs=args.train_epochs, eval_every=args.train_epochs
        )
        print(f"trained {args.train_epochs} epochs before serving")
    partitioning = get_partitioner(args.partitioner)(graph, args.nodes)
    return graph, model, cluster, partitioning


def _parse_bursts(specs):
    from repro.serving import BurstPhase

    bursts = []
    for spec in specs or []:
        parts = spec.split(":")
        if len(parts) < 2:
            raise SystemExit(f"--burst wants START:END[:MULTIPLIER], got {spec!r}")
        bursts.append(BurstPhase(
            start_s=float(parts[0]),
            end_s=float(parts[1]),
            rate_multiplier=float(parts[2]) if len(parts) > 2 else 4.0,
        ))
    return tuple(bursts)


def cmd_serve(args) -> int:
    from repro.resilience import FaultSchedule
    from repro.serving import (
        InferenceServer,
        ServingConfig,
        SLOConfig,
        WorkloadConfig,
        generate_workload,
    )

    graph, model, cluster, partitioning = _serving_setup(args)
    workload = generate_workload(
        WorkloadConfig(
            num_requests=args.requests,
            rate_rps=args.rate,
            zipf_exponent=args.zipf,
            seed=args.workload_seed,
            bursts=_parse_bursts(args.burst),
        ),
        graph.num_vertices,
    )
    faults = _parse_fault_args(args, required=False)
    config = ServingConfig(
        batch_window_s=args.batch_window,
        max_batch=args.max_batch,
        tau_s=args.tau_s,
        mode=args.serve_mode,
        slo=SLOConfig(max_pending=args.max_pending),
    )
    server = InferenceServer(
        graph, model, cluster, partitioning, config=config,
        faults=FaultSchedule(faults, seed=args.fault_seed) if faults else None,
    )
    result = server.serve(workload)
    ledger = result.ledger
    modes = ", ".join(
        f"{mode} {count}" for mode, count in sorted(ledger.mode_counts().items())
    )
    rows = [[
        str(len(ledger)),
        str(len(ledger.served())),
        str(ledger.shed_count),
        str(ledger.degraded_count),
        f"{ledger.p50_s * 1e3:.2f}",
        f"{ledger.p95_s * 1e3:.2f}",
        f"{ledger.p99_s * 1e3:.2f}",
        f"{ledger.throughput_rps():.0f}",
        f"{ledger.total_comm_bytes / 1e3:.1f}",
        f"{ledger.mean_staleness_s() * 1e3:.1f}",
    ]]
    print(render_table(
        ["requests", "served", "shed", "degraded", "p50 ms", "p95 ms",
         "p99 ms", "rps", "comm KB", "staleness ms"],
        rows,
    ))
    print(f"modes: {modes} | {result.num_batches} micro-batches, "
          f"cache hits {result.cache.counters.hits}")
    if args.trace:
        from repro.cluster.trace import save_chrome_trace

        path = save_chrome_trace(result.timeline, args.trace)
        print(f"chrome trace written to {path}")
    if args.json:
        write_json(args.json, {
            "dataset": args.dataset,
            "partitioner": args.partitioner,
            "tau_s": args.tau_s,
            "mode": args.serve_mode,
            "batch_window_s": args.batch_window,
            "max_batch": args.max_batch,
            "summary": jsonable(result.summary()),
            "ledger": jsonable(ledger.to_dict()),
        })
    return 0


def cmd_serve_bench(args) -> int:
    from repro.serving import (
        InferenceServer,
        ServingConfig,
        WorkloadConfig,
        generate_workload,
    )

    graph, model, cluster, partitioning = _serving_setup(args)
    workload = generate_workload(
        WorkloadConfig(
            num_requests=args.requests,
            rate_rps=args.rate,
            zipf_exponent=args.zipf,
            seed=args.workload_seed,
        ),
        graph.num_vertices,
    )

    def run(window_s, max_batch, tau_s, mode):
        config = ServingConfig(
            batch_window_s=window_s, max_batch=max_batch,
            tau_s=tau_s, mode=mode,
        )
        server = InferenceServer(
            graph, model, cluster, partitioning, config=config,
            record_timeline=False,
        )
        return server.serve(workload)

    # Batched vs unbatched at identical predictions.
    unbatched = run(0.0, 1, 0.0, "local")
    batched = run(args.batch_window, args.max_batch, 0.0, "local")
    speedup = (
        batched.ledger.throughput_rps() / unbatched.ledger.throughput_rps()
        if unbatched.ledger.throughput_rps() else float("inf")
    )
    rows = [
        ["unbatched", f"{unbatched.ledger.throughput_rps():.0f}",
         f"{unbatched.ledger.p99_s * 1e3:.2f}", "-"],
        ["batched", f"{batched.ledger.throughput_rps():.0f}",
         f"{batched.ledger.p99_s * 1e3:.2f}", f"{speedup:.2f}x"],
    ]
    print(render_table(["serving", "rps", "p99 ms", "speedup"], rows))
    identical = batched.predictions == unbatched.predictions
    print(f"predictions identical: {identical}")

    # Staleness-bound sweep (remote mode so traffic is non-trivial).
    taus = [float(t) for t in args.taus.split(",")]
    sweep = []
    rows = []
    for tau in taus:
        result = run(args.batch_window, args.max_batch, tau, "remote")
        ledger = result.ledger
        point = {
            "tau_s": tau,
            "comm_bytes": ledger.total_comm_bytes,
            "p99_ms": ledger.p99_s * 1e3,
            "mean_staleness_s": ledger.mean_staleness_s(),
            "cache_hits": result.cache.counters.hits,
        }
        sweep.append(point)
        rows.append([
            f"{tau:g}", f"{ledger.total_comm_bytes / 1e3:.1f}",
            f"{ledger.p99_s * 1e3:.2f}",
            f"{ledger.mean_staleness_s() * 1e3:.1f}",
            str(result.cache.counters.hits),
        ])
    print(render_table(
        ["tau s", "comm KB", "p99 ms", "staleness ms", "cache hits"], rows
    ))
    if args.json:
        write_json(args.json, {
            "dataset": args.dataset,
            "requests": args.requests,
            "batched_rps": batched.ledger.throughput_rps(),
            "unbatched_rps": unbatched.ledger.throughput_rps(),
            "batching_speedup": speedup,
            "predictions_identical": identical,
            "tau_sweep": sweep,
        })
    return 0


def _parse_replica_faults(args, nodes: int):
    """Per-replica fault schedules from the ``repro fleet`` grammar."""
    from repro.resilience import FaultSchedule, StragglerFault, WorkerCrashFault

    per_replica: dict = {}
    for spec in args.crash_replica or []:
        parts = spec.split(":")
        if len(parts) < 2:
            raise SystemExit(
                f"--crash-replica wants REPLICA:TIME[:TIMEOUT], got {spec!r}"
            )
        replica = int(parts[0])
        at_time = float(parts[1])
        timeout = float(parts[2]) if len(parts) > 2 else 0.05
        # Every worker of the group goes dark: the whole replica dies.
        per_replica.setdefault(replica, []).extend(
            WorkerCrashFault(
                worker=w, at_time=at_time,
                detection_timeout_s=timeout, permanent=True,
            )
            for w in range(nodes)
        )
    for spec in args.straggle_replica or []:
        parts = spec.split(":")
        if len(parts) < 2:
            raise SystemExit(
                "--straggle-replica wants REPLICA:GPU_FACTOR[:START[:END]], "
                f"got {spec!r}"
            )
        replica = int(parts[0])
        per_replica.setdefault(replica, []).extend(
            StragglerFault(
                worker=w,
                gpu_factor=float(parts[1]),
                start=float(parts[2]) if len(parts) > 2 else 0.0,
                end=float(parts[3]) if len(parts) > 3 else float("inf"),
            )
            for w in range(nodes)
        )
    return {
        replica: FaultSchedule(faults, seed=args.fault_seed)
        for replica, faults in sorted(per_replica.items())
    }


def cmd_fleet(args) -> int:
    from repro.serving import (
        AutoscalerConfig,
        FleetConfig,
        ServingConfig,
        ServingFleet,
        SLOConfig,
        WorkloadConfig,
        generate_workload,
    )

    graph, model, cluster, partitioning = _serving_setup(args)
    workload = generate_workload(
        WorkloadConfig(
            num_requests=args.requests,
            rate_rps=args.rate,
            zipf_exponent=args.zipf,
            seed=args.workload_seed,
            bursts=_parse_bursts(args.burst),
        ),
        graph.num_vertices,
    )
    autoscaler = None
    if args.autoscale_p99 is not None:
        autoscaler = AutoscalerConfig(
            target_p99_s=args.autoscale_p99,
            min_replicas=args.min_replicas,
            max_replicas=args.max_replicas,
            burn_windows=args.burn_windows,
            idle_windows=args.idle_windows,
        )
    config = FleetConfig(
        replicas=args.replicas,
        serving=ServingConfig(
            batch_window_s=args.batch_window,
            max_batch=args.max_batch,
            tau_s=args.tau_s,
            mode=args.serve_mode,
            slo=SLOConfig(max_pending=args.max_pending),
        ),
        seed=args.fleet_seed,
        health_every=args.health_every,
        pin_after=args.pin_after,
        hedge_factor=args.hedge_factor,
        self_heal=not args.no_self_heal,
        autoscaler=autoscaler,
    )
    fleet = ServingFleet(
        graph, model, cluster, partitioning, config=config,
        replica_faults=_parse_replica_faults(args, args.nodes),
    )
    result = fleet.serve(workload)
    ledger = result.ledger
    summary = result.summary()
    rows = [[
        str(len(ledger)),
        str(len(ledger.served())),
        str(ledger.shed_count),
        f"{ledger.p50_s * 1e3:.2f}",
        f"{ledger.p99_s * 1e3:.2f}",
        f"{ledger.throughput_rps():.0f}",
        f"{summary['num_replicas_started']}"
        f"→{summary['num_replicas_final']}",
        f"{result.hedges_launched}/{result.hedges_won}",
        str(result.failovers),
        str(len(result.scaling_events)),
    ]]
    print(render_table(
        ["requests", "served", "shed", "p50 ms", "p99 ms", "rps",
         "replicas", "hedges l/w", "failovers", "scalings"],
        rows,
    ))
    for event in result.health_events:
        print(f"health: {event['event']} replica {event['replica']} "
              f"at {event['at_s'] * 1e3:.2f} ms (segment {event['segment']})")
    for event in result.scaling_events:
        print(f"scaling: {event.action} replica {event.replica} "
              f"at {event.at_s * 1e3:.2f} ms ({event.reason}, "
              f"{event.migrated_bytes / 1e3:.1f} KB migrated)")
    if args.trace:
        from repro.cluster.trace import save_chrome_trace

        path = save_chrome_trace(fleet.groups[0].timeline, args.trace)
        print(f"chrome trace of replica 0 written to {path}")
    if args.json:
        write_json(args.json, {
            "dataset": args.dataset,
            "partitioner": args.partitioner,
            "replicas": args.replicas,
            "health_every": args.health_every,
            "self_heal": not args.no_self_heal,
            "summary": jsonable(summary),
            "ledger": jsonable(ledger.to_dict()),
        })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NeutronStar reproduction: distributed GNN training "
                    "with hybrid dependency management",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the dataset catalog")

    probe = sub.add_parser("probe", help="probe T_v/T_e/T_c")
    _add_model_args(probe)
    _add_cluster_args(probe)

    train = sub.add_parser("train", help="train a model")
    _add_model_args(train)
    _add_cluster_args(train)
    train.add_argument("--engine", default="hybrid",
                       choices=["depcache", "depcomm", "hybrid", "hybrid4",
                                "tp", "distdgl", "sampled"])
    _add_sampling_args(train)
    train.add_argument("--epochs", type=int, default=30)
    train.add_argument("--lr", type=float, default=0.01)
    train.add_argument("--eval-every", type=int, default=5)
    train.add_argument("--checkpoint", default=None,
                       help="path to save the trained model (.npz)")
    train.add_argument("--tau", default=None,
                       help="staleness bound for the historical-embedding "
                            "cache in epochs ('inf' allowed); omit for no "
                            "cache")
    train.add_argument("--cache-mb", type=float, default=None,
                       help="cache capacity cap in MB (default unbounded)")
    train.add_argument("--cache-policy", default="expectation",
                       choices=["degree", "lru", "expectation"],
                       help="cache admission policy (default expectation)")
    train.add_argument("--json", default=None,
                       help="write a training summary to this JSON file")

    sweep = sub.add_parser(
        "cache-sweep",
        help="sweep the staleness bound tau against a cache-free baseline",
    )
    _add_model_args(sweep)
    _add_cluster_args(sweep)
    sweep.add_argument("--engine", default="depcomm",
                       choices=["depcomm", "hybrid"])
    sweep.add_argument("--epochs", type=int, default=20)
    sweep.add_argument("--lr", type=float, default=0.01)
    sweep.add_argument("--taus", default="0,2,4,8",
                       help="comma-separated staleness bounds ('inf' allowed)")
    sweep.add_argument("--capacity-mb", default=None,
                       help="comma-separated capacity caps in MB "
                            "(default: unbounded only)")
    sweep.add_argument("--cache-policy", default="expectation",
                       choices=["degree", "lru", "expectation"])
    sweep.add_argument("--accuracy-tolerance", type=float, default=0.01,
                       help="accuracy drop tolerated when picking the best "
                            "point (default 0.01)")
    sweep.add_argument("--json", default=None,
                       help="write the sweep result to this JSON file")

    compare = sub.add_parser(
        "compare", help="compare DepCache/DepComm/Hybrid epoch times"
    )
    _add_model_args(compare)
    _add_cluster_args(compare)
    compare.add_argument("--json", default=None,
                         help="write the comparison to this JSON file")

    explain = sub.add_parser(
        "explain-plan",
        help="print the compiled per-layer dataflow program",
    )
    _add_model_args(explain)
    _add_cluster_args(explain)
    explain.add_argument("--engine", default="hybrid",
                         choices=["depcache", "depcomm", "hybrid", "hybrid4",
                                  "roc", "distdgl", "sampled", "tp"])
    explain.add_argument("--sampled", action="store_true",
                         help="dry-run and render per-batch sampled "
                              "programs (implied by a sampled engine)")
    explain.add_argument("--batches", type=int, default=1,
                         help="mini-batch rounds to render with --sampled "
                              "(default 1)")
    _add_sampling_args(explain)
    explain.add_argument("--tau", default=None,
                         help="staleness bound in epochs ('inf' allowed); "
                              "omit for no cache")
    explain.add_argument("--cache-mb", type=float, default=None,
                         help="cache capacity cap in MB (default unbounded)")
    explain.add_argument("--cache-policy", default="expectation",
                         choices=["degree", "lru", "expectation"])
    explain.add_argument("--overlap-pass", action="store_true",
                         help="apply the comm/compute overlap program pass")
    explain.add_argument("--fuse-pass", action="store_true",
                         help="apply the fuse-scatter-gather program pass")
    explain.add_argument("--pipeline-pass", action="store_true",
                         help="apply the chunk-pipeline program pass")
    explain.add_argument("--ring-pass", action="store_true",
                         help="apply the ring-reorder program pass")
    explain.add_argument("--json", default=None,
                         help="write the program description to this JSON "
                              "file")

    ssweep = sub.add_parser(
        "sample-sweep",
        help="sweep sampler x fanout x kappa x feature-cache capacity",
    )
    _add_model_args(ssweep)
    _add_cluster_args(ssweep)
    ssweep.add_argument("--samplers", default="uniform,labor,ladies",
                        help="comma-separated sampler names "
                             "(default uniform,labor,ladies)")
    ssweep.add_argument("--fanouts", default="10,25",
                        help="semicolon-separated fanout groups, e.g. "
                             "'10,25;5,10' (default '10,25')")
    ssweep.add_argument("--kappas", default="0",
                        help="comma-separated kappa values in [0,1]")
    ssweep.add_argument("--cache-mb", default="0",
                        help="comma-separated static feature-cache "
                             "capacities in MB (0 = no cache)")
    ssweep.add_argument("--batch-size", type=int, default=128)
    ssweep.add_argument("--epochs", type=int, default=2,
                        help="charged epochs per grid point (default 2)")
    ssweep.add_argument("--json", default=None,
                        help="write the sweep rows to this JSON file")

    tpsweep = sub.add_parser(
        "tp-sweep",
        help="degree-skew x hidden-dim sweep locating the hybrid <-> "
             "tensor-parallel crossover",
    )
    _add_cluster_args(tpsweep)
    tpsweep.add_argument("--exponents", default="0.1,0.85,1.2",
                         help="comma-separated scaled-social hub exponents "
                              "(default '0.1,0.85,1.2')")
    tpsweep.add_argument("--hiddens", default="16,64,256",
                         help="comma-separated hidden widths "
                              "(default '16,64,256')")
    tpsweep.add_argument("--vertices", type=int, default=3072,
                         help="scaled-social vertex count (default 3072)")
    tpsweep.add_argument("--degree", type=float, default=16.0,
                         help="scaled-social average degree (default 16)")
    tpsweep.add_argument("--arch", choices=["gcn", "gin", "gat", "sage"],
                         default="gcn")
    tpsweep.add_argument("--layers", type=int, default=2)
    tpsweep.add_argument("--seed", type=int, default=0)
    tpsweep.add_argument("--json", default=None,
                         help="write the sweep result to this JSON file")

    analyze = sub.add_parser(
        "analyze", help="structural report + strategy recommendation"
    )
    _add_model_args(analyze)
    _add_cluster_args(analyze)
    analyze.add_argument("--partitioner", default="chunk",
                         choices=["chunk", "hash", "fennel", "metis"])
    analyze.add_argument("--json", default=None,
                         help="write the report to this JSON file")

    chaos = sub.add_parser(
        "chaos",
        help="inject faults and compare engine degradation/recovery",
    )
    _add_model_args(chaos)
    _add_cluster_args(chaos)
    chaos.add_argument("--engine", default="all",
                       choices=["all", "depcache", "depcomm", "hybrid",
                                "distdgl", "sampled"])
    _add_sampling_args(chaos)
    chaos.add_argument("--epochs", type=int, default=5)
    chaos.add_argument("--mode", choices=["timing", "train"],
                       default="timing")
    chaos.add_argument("--straggler", action="append", metavar="SPEC",
                       help="WORKER:GPU_FACTOR[:CPU_FACTOR[:START[:END]]]")
    chaos.add_argument("--degrade", action="append", metavar="SPEC",
                       help="SRC:DST:FACTOR[:EXTRA_LATENCY_S]; '*' matches "
                            "any endpoint")
    chaos.add_argument("--loss", action="append", metavar="SPEC",
                       help="FRACTION[:SRC[:DST]] of sends dropped")
    chaos.add_argument("--crash", action="append", metavar="SPEC",
                       help="WORKER:TIME[:DETECTION_TIMEOUT_S[:PERMANENT]]; "
                            "a truthy 4th field marks the worker as gone "
                            "for good")
    chaos.add_argument("--checkpoint-every", type=int, default=5,
                       help="epochs between recovery checkpoints")
    chaos.add_argument("--fault-seed", type=int, default=0,
                       help="seed for message-loss draws")
    chaos.add_argument("--recovery", default="restart",
                       choices=["restart", "shrink", "auto"],
                       help="crash recovery strategy: re-provision and "
                            "replay, shrink onto the survivors, or pick "
                            "per crash (default restart)")
    chaos.add_argument("--rejoin-after", type=int, default=None,
                       help="epochs after a shrink before the departed "
                            "worker rejoins (default: never)")
    chaos.add_argument("--json", default=None,
                       help="write per-engine chaos reports to this JSON "
                            "file")

    ops = sub.add_parser(
        "ops",
        help="operations benchmark: graded detect/localize/mitigate "
             "problems with trace replay",
    )
    ops_sub = ops.add_subparsers(dest="ops_command", required=True)
    ops_list = ops_sub.add_parser(
        "list", help="list the registered ops problems"
    )
    ops_list.add_argument("--json", default=None,
                          help="write the problem specs to this JSON file")
    ops_run = ops_sub.add_parser(
        "run", help="run one problem (or all) end-to-end and grade it"
    )
    ops_run.add_argument("problem", nargs="?", default=None,
                         help="problem name (see 'repro ops list'); "
                              "omitted = all")
    ops_run.add_argument("--all", action="store_true",
                         help="run every registered problem")
    ops_run.add_argument("--seed", type=int, default=0,
                         help="single run seed; every stream (graph, "
                              "faults, workload) derives from it")
    ops_run.add_argument("--no-mitigate", action="store_true",
                         help="detect and grade only; apply no mitigation")
    ops_run.add_argument("--record", default=None,
                         help="write replayable bundle(s) to this path "
                              "(per-problem suffix when running several)")
    ops_run.add_argument("--json", default=None,
                         help="write verdicts + grades to this JSON file")
    ops_grade = ops_sub.add_parser(
        "grade", help="re-grade a recorded bundle offline"
    )
    ops_grade.add_argument("bundle", help="bundle path from ops run --record")
    ops_grade.add_argument("--json", default=None,
                           help="write the grade report to this JSON file")
    ops_replay = ops_sub.add_parser(
        "replay",
        help="replay a recorded bundle without the engine and verify "
             "bit-identity (non-zero exit on divergence)",
    )
    ops_replay.add_argument("bundle",
                            help="bundle path from ops run --record")
    ops_replay.add_argument("--json", default=None,
                            help="write the replay report to this JSON file")

    replan = sub.add_parser(
        "replan-sweep",
        help="compare static planning vs online re-planning under "
             "sustained faults",
    )
    _add_model_args(replan)
    _add_cluster_args(replan)
    replan.add_argument("--engine", default="hybrid",
                        choices=["depcache", "depcomm", "hybrid"])
    replan.add_argument("--epochs", type=int, default=10)
    replan.add_argument("--straggler", action="append", metavar="SPEC",
                        help="WORKER:GPU_FACTOR[:CPU_FACTOR[:START[:END]]]")
    replan.add_argument("--degrade", action="append", metavar="SPEC",
                        help="SRC:DST:FACTOR[:EXTRA_LATENCY_S]; '*' matches "
                             "any endpoint")
    replan.add_argument("--loss", action="append", metavar="SPEC",
                        help="FRACTION[:SRC[:DST]] of sends dropped")
    replan.add_argument("--fault-seed", type=int, default=0,
                        help="seed for message-loss draws")
    replan.add_argument("--check-every", type=int, default=1,
                        help="epochs between health-monitor observations")
    replan.add_argument("--alpha", type=float, default=0.4,
                        help="EWMA smoothing for the health estimates")
    replan.add_argument("--drift-threshold", type=float, default=0.3,
                        help="relative drift that triggers a re-plan")
    replan.add_argument("--json", default=None,
                        help="write the sweep result to this JSON file")

    serve = sub.add_parser(
        "serve",
        help="online inference serving on the partitioned cluster",
    )
    _add_model_args(serve)
    _add_cluster_args(serve)
    serve.add_argument("--partitioner", default="chunk",
                       choices=["chunk", "hash", "fennel", "metis"])
    serve.add_argument("--checkpoint", default=None,
                       help="load model weights from this .npz before serving")
    serve.add_argument("--train-epochs", type=int, default=0,
                       help="quick-train this many epochs before serving "
                            "(ignored with --checkpoint)")
    serve.add_argument("--requests", type=int, default=200,
                       help="number of requests to generate (default 200)")
    serve.add_argument("--rate", type=float, default=2000.0,
                       help="mean arrival rate in requests/s (default 2000)")
    serve.add_argument("--zipf", type=float, default=1.0,
                       help="Zipf popularity exponent; 0 = uniform")
    serve.add_argument("--workload-seed", type=int, default=0)
    serve.add_argument("--burst", action="append", metavar="SPEC",
                       help="START:END[:MULTIPLIER] arrival-rate burst window")
    serve.add_argument("--batch-window", type=float, default=0.002,
                       help="micro-batch window in seconds (default 2 ms)")
    serve.add_argument("--max-batch", type=int, default=32)
    serve.add_argument("--tau-s", type=float, default=0.0,
                       help="staleness bound for served embeddings in "
                            "seconds (0 = always recompute)")
    serve.add_argument("--serve-mode", default="auto",
                       choices=["auto", "local", "remote"],
                       help="force local recompute / remote fetch, or let "
                            "the planner pick per batch (default auto)")
    serve.add_argument("--max-pending", type=int, default=None,
                       help="shed requests arriving over this backlog")
    serve.add_argument("--straggler", action="append", metavar="SPEC",
                       help="WORKER:GPU_FACTOR[:CPU_FACTOR[:START[:END]]]")
    serve.add_argument("--degrade", action="append", metavar="SPEC",
                       help="SRC:DST:FACTOR[:EXTRA_LATENCY_S]")
    serve.add_argument("--loss", action="append", metavar="SPEC",
                       help="FRACTION[:SRC[:DST]] of sends dropped")
    serve.add_argument("--crash", action="append", metavar="SPEC",
                       help="WORKER:TIME -- serve degraded around the dead "
                            "worker")
    serve.add_argument("--fault-seed", type=int, default=0)
    serve.add_argument("--trace", default=None,
                       help="write a chrome trace of the serving timeline")
    serve.add_argument("--json", default=None,
                       help="write summary + per-request ledger to this "
                            "JSON file")

    serve_bench = sub.add_parser(
        "serve-bench",
        help="serving benchmark: batching speedup + staleness sweep",
    )
    _add_model_args(serve_bench)
    _add_cluster_args(serve_bench)
    serve_bench.add_argument("--partitioner", default="chunk",
                             choices=["chunk", "hash", "fennel", "metis"])
    serve_bench.add_argument("--requests", type=int, default=400)
    serve_bench.add_argument("--rate", type=float, default=200000.0,
                             help="arrival rate; the default saturates the "
                                  "cluster so batching gains show")
    serve_bench.add_argument("--zipf", type=float, default=1.1)
    serve_bench.add_argument("--workload-seed", type=int, default=0)
    serve_bench.add_argument("--batch-window", type=float, default=0.002)
    serve_bench.add_argument("--max-batch", type=int, default=64)
    serve_bench.add_argument("--taus", default="0,0.01,0.05,0.2",
                             help="comma-separated staleness bounds in "
                                  "seconds for the sweep")
    serve_bench.add_argument("--json", default=None,
                             help="write the benchmark result to this JSON "
                                  "file")

    fleet = sub.add_parser(
        "fleet",
        help="replicated serving fleet: health-checked routing, failover, "
             "hedging, autoscaling",
    )
    _add_model_args(fleet)
    _add_cluster_args(fleet)
    fleet.add_argument("--partitioner", default="chunk",
                       choices=["chunk", "hash", "fennel", "metis"])
    fleet.add_argument("--checkpoint", default=None,
                       help="load model weights from this .npz before serving")
    fleet.add_argument("--train-epochs", type=int, default=0,
                       help="quick-train this many epochs before serving "
                            "(ignored with --checkpoint)")
    fleet.add_argument("--requests", type=int, default=200,
                       help="number of requests to generate (default 200)")
    fleet.add_argument("--rate", type=float, default=2000.0,
                       help="mean arrival rate in requests/s (default 2000)")
    fleet.add_argument("--zipf", type=float, default=1.0,
                       help="Zipf popularity exponent; 0 = uniform")
    fleet.add_argument("--workload-seed", type=int, default=0)
    fleet.add_argument("--burst", action="append", metavar="SPEC",
                       help="START:END[:MULTIPLIER] arrival-rate burst window")
    fleet.add_argument("--batch-window", type=float, default=0.002,
                       help="micro-batch window in seconds (default 2 ms)")
    fleet.add_argument("--max-batch", type=int, default=32)
    fleet.add_argument("--tau-s", type=float, default=0.0,
                       help="staleness bound for served embeddings in "
                            "seconds (0 = always recompute)")
    fleet.add_argument("--serve-mode", default="auto",
                       choices=["auto", "local", "remote"])
    fleet.add_argument("--max-pending", type=int, default=None,
                       help="shed requests arriving over this backlog")
    fleet.add_argument("--replicas", type=int, default=2,
                       help="serving groups behind the router (default 2)")
    fleet.add_argument("--fleet-seed", type=int, default=0,
                       help="seed for routing + hedge-jitter streams")
    fleet.add_argument("--health-every", type=int, default=32,
                       help="requests per health-check segment (default 32)")
    fleet.add_argument("--pin-after", type=int, default=3,
                       help="popularity pin threshold (default 3)")
    fleet.add_argument("--hedge-factor", type=float, default=3.0,
                       help="suspect threshold: segment mean over this "
                            "multiple of the baseline p99 (default 3)")
    fleet.add_argument("--no-self-heal", action="store_true",
                       help="disable automatic failover/hedging/autoscaling "
                            "(the ops-harness mode)")
    fleet.add_argument("--crash-replica", action="append", metavar="SPEC",
                       help="REPLICA:TIME[:TIMEOUT] -- every worker of the "
                            "replica goes dark at TIME")
    fleet.add_argument("--straggle-replica", action="append", metavar="SPEC",
                       help="REPLICA:GPU_FACTOR[:START[:END]] -- slow every "
                            "worker of the replica")
    fleet.add_argument("--fault-seed", type=int, default=0)
    fleet.add_argument("--autoscale-p99", type=float, default=None,
                       help="target p99 seconds; enables the SLO autoscaler")
    fleet.add_argument("--min-replicas", type=int, default=1)
    fleet.add_argument("--max-replicas", type=int, default=4)
    fleet.add_argument("--burn-windows", type=int, default=2,
                       help="consecutive burning segments before scale-out")
    fleet.add_argument("--idle-windows", type=int, default=4,
                       help="consecutive idle segments before scale-in")
    fleet.add_argument("--trace", default=None,
                       help="write a chrome trace of replica 0's timeline")
    fleet.add_argument("--json", default=None,
                       help="write summary + per-request ledger to this "
                            "JSON file")

    return parser


_COMMANDS = {
    "datasets": cmd_datasets,
    "probe": cmd_probe,
    "train": cmd_train,
    "compare": cmd_compare,
    "analyze": cmd_analyze,
    "chaos": cmd_chaos,
    "ops": cmd_ops,
    "cache-sweep": cmd_cache_sweep,
    "replan-sweep": cmd_replan_sweep,
    "serve": cmd_serve,
    "serve-bench": cmd_serve_bench,
    "fleet": cmd_fleet,
    "explain-plan": cmd_explain_plan,
    "sample-sweep": cmd_sample_sweep,
    "tp-sweep": cmd_tp_sweep,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
