"""Sampled mini-batch training: speedup, LABOR frontier, kappa sweep.

Sampling-side evaluation of the compiled-program machinery (DistDGL is
the paper's sampled baseline, Section 5.3; this harness asks what the
sampling subsystem buys once mini-batches lower to the same Program IR
as full-batch training).  The workload is a hub-skewed social graph at
~12x the largest catalog dataset -- large enough that a full-batch
epoch is communication-bound while a sampled epoch touches only the
mini-batch closures.

Headline shapes this module asserts:

- sampled training charges >= 5x less per epoch than full-batch hybrid
  on the same cluster, at a <= 2 point final-accuracy gap after the
  same number of epochs;
- LABOR's shared per-source coin flips shrink the unique remote
  frontier >= 20% versus uniform fanout at the exact same fanout;
- raising the batch-dependency knob kappa monotonically removes comm
  bytes (reused closure rows are never re-fetched).
"""

import numpy as np
from common import paper_row, parse_json_flag, print_table, write_json
from repro.cluster.memory import OutOfMemoryError
from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.engines import make_engine
from repro.graph import generators
from repro.tensor.optim import Adam
from repro.training.prep import prepare_graph

NUM_VERTICES = 40960  # ~12x the largest catalog graph
AVG_DEGREE = 16.0
NODES = 4
FANOUTS = (4, 8)  # below the average degree, so sampling actually prunes
BATCH_SIZE = 512
EPOCHS = 8
LR = 0.01
KAPPAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _graph():
    graph = generators.scaled_social(
        NUM_VERTICES, avg_degree=AVG_DEGREE, num_communities=16,
        hub_exponent=0.85, seed=0,
    )
    generators.attach_features(graph, 64, 16, seed=1, class_signal=0.6)
    # A small labelled set is the mini-batch regime: full-batch still
    # pays for every vertex, sampling pays only for the seeds' closures.
    graph.set_split(
        train_fraction=0.05, val_fraction=0.1, rng=np.random.default_rng(0)
    )
    return prepare_graph(graph, "gcn")


def _model(graph):
    return GNNModel.build(
        "gcn", graph.feature_dim, 64, graph.num_classes, num_layers=2, seed=1
    )


def _sampled(graph, **kwargs):
    kwargs.setdefault("fanouts", FANOUTS)
    kwargs.setdefault("batch_size", BATCH_SIZE)
    kwargs.setdefault("seed", 0)
    return make_engine(
        "sampled", graph, _model(graph), ClusterSpec.ecs(NODES), **kwargs
    )


def _train_accuracy(graph, engine):
    optimizer = Adam(engine.model.parameters(), lr=LR)
    for _ in range(EPOCHS):
        engine.run_epoch(optimizer)
    return float(engine.evaluate(graph.test_mask))


def run_experiment():
    graph = _graph()
    cluster = ClusterSpec.ecs(NODES)

    # -- full-batch vs sampled: charged epoch time + accuracy ----------
    full_name = "hybrid"
    try:
        full = make_engine(full_name, graph, _model(graph), cluster)
        full_epoch_s = full.charge_epoch()
    except OutOfMemoryError:
        full_name = "depcomm"
        full = make_engine(full_name, graph, _model(graph), cluster)
        full_epoch_s = full.charge_epoch()
    full_accuracy = _train_accuracy(graph, full)

    sampled = _sampled(graph, sampler="uniform")
    sampled_epoch_s = sampled.charge_epoch()
    sampled_accuracy = _train_accuracy(graph, sampled)

    speedup = full_epoch_s / sampled_epoch_s
    gap = full_accuracy - sampled_accuracy
    print_table(
        f"full-batch vs sampled on scaled_social({NUM_VERTICES}), "
        f"2-layer GCN, {NODES} workers, fanouts {FANOUTS}, "
        f"batch {BATCH_SIZE}, {EPOCHS} epochs",
        ["training", "epoch ms", "accuracy", "speedup"],
        [
            [f"full-batch {full_name}", f"{full_epoch_s * 1e3:.2f}",
             f"{full_accuracy * 100:.2f}%", "-"],
            ["sampled uniform", f"{sampled_epoch_s * 1e3:.2f}",
             f"{sampled_accuracy * 100:.2f}%", f"{speedup:.2f}x"],
        ],
    )
    print(f"accuracy gap: {gap * 100:+.2f} points")

    # -- LABOR vs uniform at matched fanout ----------------------------
    frontier = {}
    rows = []
    for sampler in ("uniform", "labor"):
        engine = _sampled(graph, sampler=sampler)
        engine.charge_epoch()
        stats = engine.last_epoch_stats
        frontier[sampler] = stats
        rows.append([
            sampler, str(stats["unique_remote"]), str(stats["fetched_rows"]),
            str(stats["sampled_edges"]),
        ])
    labor_reduction = 1.0 - (
        frontier["labor"]["unique_remote"] / frontier["uniform"]["unique_remote"]
    )
    print_table(
        f"unique remote vertices per epoch at matched fanout {FANOUTS}",
        ["sampler", "uniq remote", "fetched rows", "sampled edges"],
        rows,
    )
    print(f"LABOR unique-remote reduction: {labor_reduction * 100:.1f}%")

    # -- kappa sweep: batch-dependency vs comm volume ------------------
    kappa_sweep = []
    rows = []
    for kappa in KAPPAS:
        engine = _sampled(graph, sampler="uniform", kappa=kappa)
        engine.charge_epoch()
        engine.charge_epoch()  # reuse needs one epoch of history
        stats = engine.last_epoch_stats
        kappa_sweep.append({
            "kappa": kappa,
            "comm_bytes": int(stats["comm_bytes"]),
            "fetched_rows": int(stats["fetched_rows"]),
            "reused_rows": int(stats["reused_rows"]),
            "epoch_s": float(stats["epoch_time_s"]),
        })
        rows.append([
            f"{kappa:g}", f"{stats['comm_bytes'] / 1e3:.1f}",
            str(stats["fetched_rows"]), str(stats["reused_rows"]),
            f"{stats['epoch_time_s'] * 1e3:.2f}",
        ])
    print_table(
        "batch-dependency kappa vs per-epoch comm (uniform sampler)",
        ["kappa", "comm KB", "fetched", "reused", "epoch ms"],
        rows,
    )

    paper_row(
        "DistDGL-style sampling (Sec 5.3) rebuilt on the Program IR: "
        "mini-batch closures compile to the same typed programs as "
        "full-batch training; LABOR/LADIES and kappa reuse are this "
        "repo's extensions"
    )
    return {
        "full_engine": full_name,
        "full_epoch_s": full_epoch_s,
        "sampled_epoch_s": sampled_epoch_s,
        "speedup": speedup,
        "full_accuracy": full_accuracy,
        "sampled_accuracy": sampled_accuracy,
        "accuracy_gap": gap,
        "uniform_unique_remote": int(frontier["uniform"]["unique_remote"]),
        "labor_unique_remote": int(frontier["labor"]["unique_remote"]),
        "labor_reduction": labor_reduction,
        "kappa_sweep": kappa_sweep,
    }


def check(result):
    """The headline shapes; run by pytest and by ``__main__`` (CI)."""
    # Sampling is the headline: >= 5x cheaper epochs, <= 2 point gap.
    assert result["speedup"] >= 5.0, result["speedup"]
    assert result["accuracy_gap"] <= 0.02, result["accuracy_gap"]

    # Shared coin flips shrink the union frontier at identical fanout.
    assert result["labor_reduction"] >= 0.20, result["labor_reduction"]

    # kappa only ever removes traffic, and actually removes some.
    volumes = [p["comm_bytes"] for p in result["kappa_sweep"]]
    assert all(a >= b for a, b in zip(volumes, volumes[1:])), volumes
    assert volumes[-1] < volumes[0], volumes


def test_sampling_pipeline(benchmark):
    result = run_experiment()
    check(result)
    benchmark(lambda: result["speedup"])


if __name__ == "__main__":
    json_path = parse_json_flag("sampled mini-batch training benchmark")
    result = run_experiment()
    write_json(json_path, result)
    check(result)
