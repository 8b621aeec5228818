"""Catalog, probe, train, compare, analyze and explain-plan."""

from __future__ import annotations

from repro.analysis import analyze_dependencies, analyze_graph, recommend_strategy
from repro.cli.args import (
    CACHE, CLUSTER, JSON, MODEL, PARTITIONER, SAMPLED_ENGINES, SAMPLING, Setup,
)
from repro.cli.base import Command, Report, arg, echo
from repro.costmodel.probe import probe_constants
from repro.execution import describe_program, render_program
from repro.graph.datasets import DATASETS
from repro.sampling import describe_sampled_batches, render_sampled_batches
from repro.sweeps import COMPARE_COLUMNS, Column, render, run_compare
from repro.training.checkpoint import save_checkpoint
from repro.training.trainer import DistributedTrainer
from repro.utils import jsonable

DATASET_COLUMNS = (
    Column("name", "name"), Column("|V|", "num_vertices"),
    Column("|E|", "num_edges"), Column("deg", "avg_degree", "{:.1f}"),
    Column("ftr", "feature_dim"), Column("#L", "num_labels"),
    Column("hid", "hidden_dim"), Column("paper |V|", "paper_vertices"),
    Column("paper |E|", "paper_edges"),
)


def datasets(_args) -> Report:
    return Report([render(DATASET_COLUMNS, DATASETS.values())])


def probe(args) -> Report:
    setup = Setup(args)
    model = setup.model()
    constants = probe_constants(setup.cluster, model)
    layers = range(1, model.num_layers + 1)
    columns = (
        Column("layer", lambda l: l),
        Column("T_v (s/vertex)", constants.vertex_cost, "{:.3e}"),
        Column("T_e (s/edge)", constants.edge_cost, "{:.3e}"),
        Column("T_c (s/dep)", constants.comm_cost, "{:.3e}"),
    )
    return Report([
        f"Probed constants ({args.cluster}, {args.arch} on {args.dataset}):",
        render(columns, layers),
    ])


CONVERGENCE_COLUMNS = (
    Column("epoch", "epoch"), Column("loss", "loss", "{:.4f}"),
    Column("accuracy", "accuracy", "{:.2%}"),
    Column("cluster time", "time_s", "{:.3f}s"),
)


def train(args) -> Report:
    engine = Setup(args).engine(args.engine)
    plan = engine.plan()
    body = []
    if hasattr(plan, "cache_ratio"):
        body.append(f"plan: {plan.cache_ratio() * 100:.0f}% of remote "
                    "dependencies cached")
    history = DistributedTrainer(engine, lr=args.lr).train(
        epochs=args.epochs, eval_every=args.eval_every
    )
    convergence = [
        {"epoch": p.epoch, "time_s": p.time_s, "accuracy": p.accuracy,
         "loss": p.loss}
        for p in history.convergence
    ]
    body.append(render(CONVERGENCE_COLUMNS, convergence))
    body.append(f"best accuracy {history.best_accuracy() * 100:.2f}%, "
                f"avg epoch {history.avg_epoch_time_s * 1e3:.2f} ms")
    payload = {
        **echo(args, "dataset", "arch", "engine", "epochs"),
        "best_accuracy": history.best_accuracy(),
        "final_loss": history.final_loss,
        "avg_epoch_time_s": history.avg_epoch_time_s,
        "convergence": convergence,
    }
    if getattr(engine, "cache_config", None) is not None:
        hits = sum(r.cache_hits for r in history.reports)
        misses = sum(r.cache_misses for r in history.reports)
        cache = payload["cache"] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "comm_saved_bytes": sum(r.comm_saved_bytes for r in history.reports),
            "forced_refreshes": history.forced_refreshes,
        }
        body.append(f"cache: {cache['hit_rate'] * 100:.0f}% hit rate, "
                    f"{cache['comm_saved_bytes'] / 1e6:.2f} MB comm saved, "
                    f"{cache['forced_refreshes']} forced refreshes")
    if args.checkpoint:
        path = save_checkpoint(
            engine.model, args.checkpoint, dataset=args.dataset,
            arch=args.arch, epochs=args.epochs,
            accuracy=history.best_accuracy(),
        )
        body.append(f"checkpoint written to {path}")
    return Report(body, payload)


def compare(args) -> Report:
    rows = run_compare(Setup(args).engine)
    fits = [r for r in rows if r["epoch_s"] != "OOM"]
    best = min(fits, key=lambda r: r["epoch_s"])["engine"] if fits else None
    return Report(
        [render(COMPARE_COLUMNS, rows)] + ([f"best: {best}"] if best else []),
        {
            **echo(args, "dataset", "arch", "nodes", "cluster"),
            "engines": {
                r["engine"]: {"epoch_s": r["epoch_s"], "notes": r["notes"]}
                for r in rows
            },
            "best": best,
        },
    )


def analyze(args) -> Report:
    setup = Setup(args)
    report = analyze_graph(setup.graph)
    partitioning = setup.partitioning()
    deps = analyze_dependencies(
        setup.graph, partitioning, num_layers=args.layers
    )
    recommendation = recommend_strategy(setup.graph, partitioning, args.layers)
    body = [
        f"{args.dataset}: |V|={report.num_vertices} |E|={report.num_edges} "
        f"deg={report.avg_degree:.1f} gini={report.degree_gini:.2f} "
        f"locality={report.chunk_locality:.2f}",
        f"partitioning: {args.partitioner} x {args.nodes} -> "
        f"replication {deps.replication_factor:.2f}x, "
        f"{deps.comm_bytes_per_layer / 1e6:.2f} MB/layer communicated",
        f"recommendation: {recommendation}",
    ]
    return Report(body, {
        "dataset": args.dataset,
        "num_vertices": report.num_vertices,
        "num_edges": report.num_edges,
        "avg_degree": report.avg_degree,
        "degree_gini": report.degree_gini,
        "chunk_locality": report.chunk_locality,
        **echo(args, "partitioner", "nodes"),
        "replication_factor": deps.replication_factor,
        "comm_bytes_per_layer": deps.comm_bytes_per_layer,
        "recommendation": jsonable(recommendation),
    })


def explain_plan(args) -> Report:
    name = args.engine
    if args.sampled and name not in SAMPLED_ENGINES:
        name = "sampled"
    engine = Setup(args).engine(name)
    engine.plan()
    sampled = name in SAMPLED_ENGINES  # dry-run the first mini-batch round(s)
    if args.json:
        payload = (describe_sampled_batches(engine, args.batches) if sampled
                   else describe_program(engine))
        return Report(payload=payload,
                      footer=[f"program written to {args.json}"])
    return Report([render_sampled_batches(engine, args.batches) if sampled
                   else render_program(engine)])


COMMANDS = (
    Command(
        "datasets", "list the dataset catalog",
        "datasets", run=datasets,
    ),
    Command(
        "probe", "probe T_v/T_e/T_c",
        "probe --dataset wiki --nodes 8",
        (MODEL, CLUSTER), probe,
    ),
    Command(
        "train", "train a model",
        "train --dataset reddit --engine hybrid --epochs 30 "
        "--checkpoint out/model --tau 4 --cache-mb 64",
        (
            MODEL, CLUSTER,
            arg("--engine", default="hybrid",
                choices=["depcache", "depcomm", "hybrid", "hybrid4", "tp",
                         "distdgl", "sampled"]),
            SAMPLING,
            arg("--epochs", type=int, default=30),
            arg("--lr", type=float, default=0.01),
            arg("--eval-every", type=int, default=5),
            arg("--checkpoint", default=None,
                help="path to save the trained model (.npz)"),
            CACHE, JSON,
        ),
        train,
    ),
    Command(
        "compare", "compare DepCache/DepComm/Hybrid epoch times",
        "compare --dataset wiki --nodes 8",
        (MODEL, CLUSTER, JSON), compare,
    ),
    Command(
        "analyze", "structural report + strategy recommendation",
        "analyze --dataset pokec --nodes 4 --partitioner metis",
        (MODEL, CLUSTER, PARTITIONER, JSON), analyze,
    ),
    Command(
        "explain-plan", "print the compiled per-layer dataflow program",
        "explain-plan --dataset cora --nodes 4 --engine tp",
        (
            MODEL, CLUSTER,
            arg("--engine", default="hybrid",
                choices=["depcache", "depcomm", "hybrid", "hybrid4", "roc",
                         "distdgl", "sampled", "tp"]),
            arg("--sampled", action="store_true",
                help="dry-run and render per-batch sampled programs "
                     "(implied by a sampled engine)"),
            arg("--batches", type=int, default=1,
                help="mini-batch rounds to render with --sampled (default 1)"),
            SAMPLING, CACHE, JSON,
        ),
        explain_plan,
    ),
)
