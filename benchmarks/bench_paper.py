"""The paper's evaluation as one table: Figs. 2, 9-15, Tables 3-5, five ablations.

Each :class:`Experiment` has named axes, a cell function measuring one
table row (modeled seconds; OOM is NaN, a cell a system cannot run is
``None``), its ``Column``\\ s and a shape predicate: who wins, by roughly
what factor, where a crossover or OOM falls.  ``python bench_paper.py
[ID ...] [--json PATH]`` (from ``benchmarks/``) prints the experiments
(default: all), writes their rows and then asserts every predicate; a
full run writes ``BENCH_paper.json`` and regenerates EXPERIMENTS.md's
``<!-- paper:ID -->`` blocks from the same rows.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from common import OOM, build_engine, epoch_time, is_oom
from repro.cluster.memory import OutOfMemoryError
from repro.cluster.spec import ClusterSpec
from repro.comm.scheduler import CommOptions
from repro.core.model import GNNModel
from repro.costmodel.oracle import greedy_cost, oracle_partition
from repro.costmodel.partitioner import partition_dependencies
from repro.costmodel.probe import probe_constants
from repro.graph import generators
from repro.graph.datasets import load_dataset, spec_of
from repro.partition import get_partitioner
from repro.partition.chunk import chunk_partition
from repro.sweeps import Column, ms, render, run_grid
from repro.training.prep import prepare_graph
from repro.training.trainer import DistributedTrainer
from repro.utils.jsonio import jsonable, write_json

ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_paper.json"
EXPERIMENTS_MD = ROOT / "EXPERIMENTS.md"

RAW = CommOptions.none()  # "vanilla versions ... without advanced optimizations"
ALL = CommOptions.all()
SEVEN = ("google", "pokec", "livejournal", "reddit", "orkut", "wiki", "twitter")
SYSTEMS = {  # Figs. 10, 12, 13: label -> (engine, comm options)
    "DistDGL": ("distdgl", RAW),
    "ROC": ("roc", RAW),
    "DepCache": ("depcache", RAW),
    "DepComm": ("depcomm", ALL),
    "NeutronStar": ("hybrid", ALL),
}
BEST_NODES = {"ROC": 4}  # ROC at its best cluster size; everyone else on 16


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One figure or table: ``cell(**point)`` per point of ``axes``."""

    title: str
    axes: Mapping[str, Sequence]
    cell: Callable[..., Dict]
    columns: Tuple[Column, ...]
    check: Callable[[List[Dict]], None]


EXPERIMENTS: Dict[str, Experiment] = {}


def experiment(experiment_id: str, title: str, axes, cell, columns):
    """Declare ``experiment_id`` with the decorated shape predicate."""
    def declare(check):
        EXPERIMENTS[experiment_id] = Experiment(title, axes, cell, tuple(columns), check)
        return check
    return declare


def _fmt(template):
    """``template`` for a number; JSON's ``"OOM"`` and ``None`` (n/a) as words."""
    def fmt(value):
        if value is None or value == "OOM":
            return "n/a" if value is None else value
        return template(value) if callable(template) else template.format(value)
    return fmt


MS, X, PCT = _fmt(ms), _fmt("{:.2f}x"), _fmt("{:.0%}")
EPOCH = Column("epoch ms", "epoch_s", MS)


def _cols(keys, fmt, field: Optional[str] = None, header=str) -> Tuple[Column, ...]:
    """One column per key: ``row[key]``, or ``row[field][key]`` (JSON keys are str)."""
    return tuple(
        Column(header(k), (lambda r, k=str(k): r[field][k]) if field else k, fmt)
        for k in keys
    )


def _nest(rows: List[Dict], *keys: str, value: Optional[str] = None) -> Dict:
    """``rows`` as ``{row[k0]: {row[k1]: ... row[value] (or the row)}}``."""
    nested: Dict = {}
    for r in rows:
        inner = nested
        for k in keys[:-1]:
            inner = inner.setdefault(r[k], {})
        inner[r[keys[-1]]] = r if value is None else r[value]
    return nested


def _epochs(systems: Mapping[str, tuple], dataset: str, **kwargs) -> Dict[str, float]:
    """``{label: epoch seconds}`` for ``systems`` = ``{label: (engine, comm)}``."""
    return {
        label: epoch_time(engine, dataset, comm=comm, **kwargs)
        for label, (engine, comm) in systems.items()
    }


FIG2_ENGINES = {"DepCache": ("depcache", RAW), "DepComm": ("depcomm", RAW)}
PAPER_2A = {"google": 0.81, "livejournal": 0.97, "pokec": 1.54, "reddit": 7.76}
PAPER_2B = {64: 1.16, 256: 0.81, 640: 0.70}
PAPER_2C = {"ECS": 0.81, "IBV": 1.41}


def cache_vs_comm(dataset: str = "google", hidden: Optional[int] = None,
                  cluster: str = "ECS"):
    """Vanilla DepCache / DepComm epochs of a 2-layer GCN on 8 nodes."""
    spec = {"ECS": ClusterSpec.ecs, "IBV": ClusterSpec.ibv}[cluster](8)
    t = _epochs(FIG2_ENGINES, dataset, cluster=spec, hidden=hidden)
    return {"dataset": dataset, "hidden": hidden or spec_of(dataset).hidden_dim,
            "cluster": cluster, **t, "ratio": t["DepCache"] / t["DepComm"]}


def _fig2_columns(key: str, paper: Dict) -> Tuple[Column, ...]:
    return (Column(key, key),) + _cols(FIG2_ENGINES, MS, header="{} ms".format) + (
        Column("cache/comm", "ratio", X),
        Column("paper", lambda r: paper[r[key]], "{:.2f}x"),
    )


@experiment("fig2a", "Figure 2(a): graph inputs (vanilla engines, GCN, 8-node ECS)",
            {"dataset": tuple(PAPER_2A)}, cache_vs_comm, _fig2_columns("dataset", PAPER_2A))
def check_fig2a(rows):
    ratios = _nest(rows, "dataset", value="ratio")
    # Cache wins google & ~ties livejournal; comm wins pokec, reddit by far.
    assert ratios["google"] < 1.0
    assert ratios["livejournal"] < 1.3
    assert ratios["pokec"] > 1.2
    assert ratios["reddit"] > 2.5
    assert ratios["reddit"] > ratios["pokec"]


@experiment("fig2b", "Figure 2(b): hidden-layer size (Google, 8-node ECS)",
            {"hidden": tuple(PAPER_2B)}, cache_vs_comm, _fig2_columns("hidden", PAPER_2B))
def check_fig2b(rows):
    ratios = _nest(rows, "hidden", value="ratio")
    assert ratios[640] < ratios[256] < ratios[64]  # wider -> cache-friendlier
    assert ratios[640] < 1.0
    assert ratios[64] > 1.0  # ...and narrow flips the winner to DepComm


@experiment("fig2c", "Figure 2(c): cluster environments (Google, GCN, 8 nodes)",
            {"cluster": tuple(PAPER_2C)}, cache_vs_comm, _fig2_columns("cluster", PAPER_2C))
def check_fig2c(rows):
    ratios = _nest(rows, "cluster", value="ratio")
    assert ratios["ECS"] < 1.0  # cache wins on slow network
    assert ratios["IBV"] > 1.0  # fast network flips to comm


FIG9_VARIANTS = {
    "DepCache": ("depcache", RAW),
    "DepComm": ("depcomm", RAW),
    "Hybrid": ("hybrid", RAW),
    "Hybrid+R": ("hybrid", CommOptions(ring=True)),
    "Hybrid+RL": ("hybrid", CommOptions(ring=True, lock_free=True)),
    "Hybrid+RLP (NTS)": ("hybrid", ALL),
}


def gain_ladder(dataset: str):
    """Raw DepCache / DepComm / Hybrid, then Hybrid + R, + L, + P."""
    t = _epochs(FIG9_VARIANTS, dataset, cluster=ClusterSpec.ecs(16))
    return {"dataset": dataset, "epoch_s": t,
            "speedup": {label: t["DepCache"] / s for label, s in t.items()}}


@experiment("fig9", "Figure 9: speedup over raw DepCache (GCN, 16-node ECS)",
            {"dataset": SEVEN}, gain_ladder,
            (Column("dataset", "dataset"),) + _cols(FIG9_VARIANTS, X, field="speedup"))
def check_fig9(rows):
    results = _nest(rows, "dataset", value="epoch_s")
    for name, times in results.items():
        hybrid = times["Hybrid"]
        # Hybrid matches the best single strategy (15% slack: cache-dominant Google).
        assert hybrid <= min(times["DepCache"], times["DepComm"]) * 1.15, name
        # Each optimization is monotone.
        assert times["Hybrid+R"] <= hybrid
        assert times["Hybrid+RL"] <= times["Hybrid+R"]
        assert times["Hybrid+RLP (NTS)"] <= times["Hybrid+RL"]
        # Full optimization pays off noticeably.
        assert hybrid / times["Hybrid+RLP (NTS)"] > 1.1, name
    # On dense graphs Hybrid crushes DepCache.
    assert results["reddit"]["DepCache"] / results["reddit"]["Hybrid"] > 3.0
    # On Google, Hybrid ~ DepCache (paper: "nearly same performance").
    google = results["google"]
    assert google["Hybrid"] <= google["DepCache"] * 1.15


UNSUPPORTED = {"DistDGL": "gin", "ROC": "gat"}  # no distributed GIN; no edge NN ops


def overall(arch: str, system: str):
    """One system's epoch on every graph; ``None`` where it lacks the model."""
    engine, comm = SYSTEMS[system]
    return {"arch": arch, "system": system, "epoch_s": {
        name: None if UNSUPPORTED.get(system) == arch else epoch_time(
            engine, name, arch=arch, cluster=ClusterSpec.ecs(BEST_NODES.get(system, 16)),
            comm=comm)
        for name in SEVEN
    }}


@experiment("fig10", "Figure 10: per-epoch time (ms), 16-node ECS (ROC at its best 4 nodes)",
            {"arch": ("gcn", "gin", "gat"), "system": tuple(SYSTEMS)}, overall,
            (Column("model", "arch", str.upper), Column("system", "system"))
            + _cols(SEVEN, MS, field="epoch_s", header=lambda n: n[:3].capitalize()))
def check_fig10(rows):
    results = _nest(rows, "arch", "system", value="epoch_s")
    for arch, per_arch in results.items():
        nts = per_arch["NeutronStar"]
        for name in SEVEN:
            # NeutronStar completes everything.
            assert not is_oom(nts[name]), (arch, name)
            for label in ["DistDGL", "ROC", "DepCache", "DepComm"]:
                other = per_arch[label][name]
                if other is None or is_oom(other):
                    continue
                # NTS at least as fast as every baseline (small slack).
                assert nts[name] <= other * 1.1, (arch, name, label)
    # DistDGL completes everything it supports (paper: completes all).
    for name in SEVEN:
        assert not is_oom(results["gcn"]["DistDGL"][name])
    # At least one OOM each for ROC and DepCache across the matrix.
    roc_ooms = sum(is_oom(results[arch]["ROC"][n]) for arch in results for n in SEVEN)
    cache_ooms = sum(is_oom(results[arch]["DepCache"][n]) for arch in results for n in SEVEN)
    assert roc_ooms >= 1 and cache_ooms >= 1
    # Headline speedups in a paper-plausible band.
    gcn = results["gcn"]
    speedups = [
        gcn["DepCache"][n] / gcn["NeutronStar"][n]
        for n in SEVEN
        if not is_oom(gcn["DepCache"][n])
    ]
    assert max(speedups) > 4.0


FIG11_ARCH = {"livejournal": "gcn", "orkut": "gat"}


def forced_ratio(dataset: str, fraction):
    """Hybrid with probing disabled and the cached share forced, or ``"auto"``."""
    forced = {} if fraction == "auto" else {
        "force_cache_fraction": fraction,
        "memory_limit_bytes": 1 << 40,  # probing disabled: no S cap
    }
    try:
        engine = build_engine("hybrid", dataset, arch=FIG11_ARCH[dataset],
                              cluster=ClusterSpec.ecs(8), comm=ALL, **forced)
        seconds = engine.charge_epoch()
        cached = engine.plan().cache_ratio()
    except OutOfMemoryError:
        seconds = cached = OOM
    return {"dataset": dataset, "arch": FIG11_ARCH[dataset], "fraction": fraction,
            "epoch_s": seconds, "cached": cached}


@experiment("fig11", "Figure 11: forced cached fraction vs Algorithm 4 (8-node ECS)",
            {"dataset": tuple(FIG11_ARCH), "fraction": (0.0, 0.25, 0.5, 0.75, 1.0, "auto")},
            forced_ratio,
            (Column("workload", lambda r: f"{r['arch'].upper()} on {r['dataset']}"),
             Column("forced", "fraction", lambda f: "Alg. 4" if f == "auto" else f"{f:.0%}"),
             EPOCH, Column("cached", "cached", PCT)))
def check_fig11(rows):
    sweeps = _nest(rows, "dataset", "fraction", value="epoch_s")
    lj_times, orkut_times = sweeps["livejournal"], sweeps["orkut"]
    lj_auto, orkut_auto = lj_times.pop("auto"), orkut_times.pop("auto")
    # All-cache OOMs GAT on Orkut (paper's headline for this figure).
    assert orkut_times[1.0] != orkut_times[1.0]  # NaN
    # LiveJournal sweep completes everywhere.
    assert all(t == t for t in lj_times.values())
    # A middle ratio beats at least one extreme on both graphs.
    lj_mid = min(lj_times[0.25], lj_times[0.5], lj_times[0.75])
    assert lj_mid <= min(lj_times[0.0], lj_times[1.0]) * 1.02
    orkut_valid = [t for t in orkut_times.values() if t == t]
    orkut_mid = min(orkut_times[0.25], orkut_times[0.5], orkut_times[0.75])
    assert orkut_mid <= orkut_times[0.0] * 1.02
    # The automatic decision is competitive with the best forced ratio.
    assert lj_auto <= min(t for t in lj_times.values() if t == t) * 1.1
    assert orkut_auto <= min(orkut_valid) * 1.1


NODES = (1, 2, 4, 8, 16)


def scaling(dataset: str, system: str):
    """One system's epoch on 1..16 nodes, and its 4 -> 16 speedup (NaN on OOM)."""
    engine, comm = SYSTEMS[system]
    series = {m: epoch_time(engine, dataset, cluster=ClusterSpec.ecs(m), comm=comm)
              for m in NODES}
    return {"dataset": dataset, "system": system, "epoch_s": series,
            "gain_4_16": series[4] / series[16]}


@experiment("fig12", "Figure 12: GCN per-epoch time (ms) vs cluster size",
            {"dataset": ("pokec", "reddit", "orkut", "wiki"), "system": tuple(SYSTEMS)},
            scaling,
            (Column("dataset", "dataset"), Column("system", "system"))
            + _cols(NODES, MS, field="epoch_s", header="{} node(s)".format)
            + (Column("4->16", "gain_4_16", X),))
def check_fig12(rows):
    for name, per_system in _nest(rows, "dataset", "system").items():
        hybrid = per_system["NeutronStar"]["epoch_s"]
        # Hybrid monotically improves with more nodes.
        feasible = [m for m in NODES if not is_oom(hybrid[m])]
        times = [hybrid[m] for m in feasible]
        assert all(a > b for a, b in zip(times, times[1:])), name
        # Hybrid scales clearly better than DepCache 4 -> 16.
        hybrid_gain, cache_gain, roc_gain, comm_gain = (
            per_system[s]["gain_4_16"] for s in ("NeutronStar", "DepCache", "ROC", "DepComm"))
        assert hybrid_gain > 1.5, name
        if cache_gain == cache_gain:
            assert hybrid_gain > cache_gain, name
        # ...and better than ROC where ROC runs.
        if roc_gain == roc_gain:
            assert hybrid_gain > roc_gain, name
            # ROC's whole-block broadcast scales worse than DepComm too.
            assert comm_gain > roc_gain, name
        # ROC's non-chunked buffers do not fit a single node.
        assert is_oom(per_system["ROC"]["epoch_s"][1]), name


def utilization(system: str):
    """Average busy fractions and received bytes over five recorded epochs."""
    engine_name, comm = SYSTEMS[system]
    engine = build_engine(engine_name, "orkut", cluster=ClusterSpec.ecs(BEST_NODES.get(system, 16)),
                          comm=comm, record_timeline=True)
    for _ in range(5):
        engine.charge_epoch()
    summary = engine.timeline.utilization_summary()
    net_trace = engine.timeline.bytes_per_window(engine.timeline.makespan / 20)
    return {
        "system": system, "gpu": summary["gpu"], "cpu": summary["cpu"],
        "net": summary["net_recv"],
        "bytes_per_s": float(net_trace.sum() / engine.timeline.makespan),
        "burstiness": net_trace.std() / net_trace.mean() if net_trace.mean() > 0 else 0.0,
    }


@experiment("fig13", "Figure 13: utilization during GCN on Orkut (5-epoch window)",
            {"system": tuple(SYSTEMS)}, utilization,
            (Column("system", "system"), Column("GPU busy", "gpu", "{:.1%}"),
             Column("CPU busy", "cpu", "{:.1%}"),
             Column("net received", "bytes_per_s", lambda b: f"{b / 1e6:.1f} MB/s"),
             Column("burstiness (cv)", "burstiness", "{:.2f}")))
def check_fig13(rows):
    results = _nest(rows, "system")
    # GPU ordering: DepCache busiest; NTS above DepComm (overlap).
    assert results["DepCache"]["gpu"] > results["NeutronStar"]["gpu"]
    assert results["NeutronStar"]["gpu"] >= results["DepComm"]["gpu"]
    assert results["DepCache"]["gpu"] > results["DistDGL"]["gpu"]
    # DepCache communicates (almost) nothing beyond the all-reduce.
    assert results["DepCache"]["bytes_per_s"] < results["DepComm"]["bytes_per_s"] / 5
    # DistDGL's sampling traffic exceeds DepCache's.
    assert results["DistDGL"]["bytes_per_s"] > results["DepCache"]["bytes_per_s"]
    # Hybrid caching cuts NTS's bandwidth need below optimized DepComm's.
    assert (
        results["NeutronStar"]["bytes_per_s"] < results["DepComm"]["bytes_per_s"]
    )
    # Sampling is host-bound: DistDGL has the lowest GPU, highest CPU share.
    assert min(results, key=lambda s: results[s]["gpu"]) == "DistDGL"
    assert max(results, key=lambda s: results[s]["cpu"]) == "DistDGL"


FIG14 = {"cluster": ClusterSpec.ecs(4), "scale": 0.5, "seed": 1}


@functools.lru_cache(maxsize=None)
def _trained(system: str):
    """60 epochs of real training on Reddit (scale 0.5, 4 nodes)."""
    engine, comm = SYSTEMS[system]
    trainer = DistributedTrainer(build_engine(engine, "reddit", comm=comm, **FIG14), lr=0.01)
    return trainer.train(epochs=60, eval_every=5)


def accuracy_race(system: str):
    """Best accuracy and modeled seconds to the sampling ceiling.

    The full-batch engines share numerics: one NeutronStar run is their
    curve, stretched by each one's epoch.  DistDGL trains separately.
    """
    sampling = _trained("DistDGL")
    target = sampling.best_accuracy()  # the paper's target: sampling's ceiling
    if system == "DistDGL":
        return {"system": system, "best_accuracy": target,
                "epoch_s": sampling.avg_epoch_time_s,
                "time_to_target_s": sampling.time_to_accuracy(target)}
    curve = _trained("NeutronStar").convergence
    engine, comm = SYSTEMS[system]
    per_epoch = epoch_time(engine, "reddit", comm=comm, **FIG14)
    return {"system": system, "best_accuracy": max(p.accuracy for p in curve),
            "epoch_s": per_epoch,
            "time_to_target_s": next(
                (p.epoch * per_epoch for p in curve if p.accuracy >= target), None)}


@experiment("fig14", "Figure 14: accuracy vs modeled time, GCN on Reddit (scale 0.5, "
            "4 nodes; target = DistDGL's best accuracy)",
            {"system": ("NeutronStar", "DepComm", "DepCache", "DistDGL")}, accuracy_race,
            (Column("system", "system"), Column("best accuracy", "best_accuracy", "{:.2%}"),
             EPOCH, Column("time to target", "time_to_target_s", _fmt("{:.3f} s"))))
def check_fig14(rows):
    results = _nest(rows, "system")
    full_best = results["NeutronStar"]["best_accuracy"]
    sample_best = results["DistDGL"]["best_accuracy"]
    # Full-batch training beats the sampling ceiling.
    assert full_best > sample_best
    assert full_best > 0.80
    # Everyone reaches the sampling target; Hybrid first.
    t_hybrid = results["NeutronStar"]["time_to_target_s"]
    t_comm = results["DepComm"]["time_to_target_s"]
    t_cache = results["DepCache"]["time_to_target_s"]
    assert t_hybrid is not None and t_comm is not None and t_cache is not None
    assert t_hybrid <= t_comm
    assert t_hybrid < t_cache / 1.5  # DepCache far behind
    assert t_hybrid < results["DistDGL"]["time_to_target_s"]


FIG15_ENGINES = {"depcomm": ("depcomm", ALL), "hybrid": ("hybrid", ALL)}


def partitioned(dataset: str, partitioner: str):
    """Optimized DepComm and Hybrid on one partitioning of ``dataset``."""
    partitioning = get_partitioner(partitioner)(prepare_graph(load_dataset(dataset), "gcn"), 16)
    t = _epochs(FIG15_ENGINES, dataset, cluster=ClusterSpec.ecs(16), partitioning=partitioning)
    return {"dataset": dataset, "partitioner": partitioner, **t,
            "speedup": t["depcomm"] / t["hybrid"]}


@experiment("fig15", "Figure 15: Hybrid vs optimized DepComm under graph partitioners "
            "(GCN, 16-node ECS)",
            {"dataset": ("reddit", "orkut", "wiki"), "partitioner": ("chunk", "metis", "fennel")},
            partitioned,
            (Column("dataset", "dataset"), Column("partitioner", "partitioner"),
             Column("DepComm ms", "depcomm", MS), Column("Hybrid ms", "hybrid", MS),
             Column("speedup", "speedup", X)))
def check_fig15(rows):
    results = _nest(rows, "dataset", "partitioner")
    for name, per_method in results.items():
        for method, times in per_method.items():
            # Hybrid wins under every partitioner.
            assert times["hybrid"] < times["depcomm"], (name, method)
    # The gap persists across partitioners (orthogonality): a narrow band.
    speedups = [r["speedup"] for r in rows]  # depcomm / hybrid
    assert min(speedups) > 1.05
    assert max(speedups) / min(speedups) < 1.5


TABLE3_ENGINES = {label: (label.lower(), RAW) for label in ("DepCache", "DepComm", "Hybrid")}


def hybrid_cost(dataset: str):
    """100 raw epochs per engine plus Hybrid's one-time dependency split."""
    cluster = ClusterSpec.ecs(16)
    per_epoch = _epochs(TABLE3_ENGINES, dataset, cluster=cluster)
    hybrid = build_engine("hybrid", dataset, cluster=cluster, comm=RAW)
    return {"dataset": dataset, **{k: v * 100 for k, v in per_epoch.items()},
            "Preprocessing": hybrid.plan().preprocessing_s}


@experiment("table3", "Table 3: runtime of 100 epochs (s), raw engines, GCN on 16-node ECS",
            {"dataset": SEVEN}, hybrid_cost,
            (Column("dataset", "dataset"),) + _cols(TABLE3_ENGINES, _fmt("{:.2f}")) + (
                Column("Preprocessing", "Preprocessing", "+{:.3f}"),
                Column("of Hybrid", lambda r: r["Preprocessing"] / r["Hybrid"], "{:.1%}")))
def check_table3(rows):
    for r in rows:
        name = r["dataset"]
        assert not is_oom(r["Hybrid"])
        # Hybrid <= both baselines (15% heuristic tolerance).
        assert r["Hybrid"] <= min(r["DepCache"], r["DepComm"]) * 1.15, name
        # Preprocessing overhead stays small relative to 100 epochs.
        assert r["Preprocessing"] <= 0.05 * r["Hybrid"], name


CPU_SYSTEMS = {"DGL-CPU": ("dgl", ALL), "PyG-CPU": ("pyg", ALL), "NTS-CPU": ("nts", ALL)}


def shared_memory(dataset: str):
    """Single-machine CPU baselines vs NeutronStar on 16 GPUs."""
    return {"dataset": dataset, **_epochs(CPU_SYSTEMS, dataset, cluster=ClusterSpec.cpu()),
            "NTS (16 GPUs)": epoch_time("hybrid", dataset, cluster=ClusterSpec.ecs(16))}


@experiment("table4", "Table 4: shared-memory systems, GCN per-epoch time (ms)",
            {"dataset": ("pubmed", "google", "pokec", "livejournal")}, shared_memory,
            (Column("dataset", "dataset"),) + _cols((*CPU_SYSTEMS, "NTS (16 GPUs)"), MS))
def check_table4(rows):
    results = _nest(rows, "dataset")
    # PyG-CPU OOMs on exactly the three large graphs.
    for name in ["google", "pokec", "livejournal"]:
        assert is_oom(results[name]["PyG-CPU"]), name
    assert not is_oom(results["pubmed"]["PyG-CPU"])
    # DGL-CPU and NTS-CPU run everywhere.
    for name in results:
        assert not is_oom(results[name]["DGL-CPU"]), name
        assert not is_oom(results[name]["NTS-CPU"]), name
        # The 16-GPU cluster beats every CPU system.
        distributed = results[name]["NTS (16 GPUs)"]
        for label in ["DGL-CPU", "PyG-CPU", "NTS-CPU"]:
            if not is_oom(results[name][label]):
                assert distributed < results[name][label], (name, label)


TABLE5_DATASETS = ("cora", "citeseer", "pubmed", "google")


def _single_gpu_epoch(system: str, dataset: str, arch: str) -> float:
    if system != "roc":
        return epoch_time(system, dataset, arch=arch, cluster=ClusterSpec.single_gpu())
    # Single-node ROC pages through host memory like NTS, but unchunked it
    # re-stages whole-graph blocks over PCIe every layer (the paper's gap).
    try:
        engine = build_engine("nts", dataset, arch=arch, cluster=ClusterSpec.single_gpu())
        t = engine.charge_epoch()
    except OutOfMemoryError:
        return OOM
    return t + sum(
        3 * engine.cluster.device.transfer_time(engine.graph.num_vertices * dim * 4)
        for dim in engine.dims[:-1]
    )


def single_gpu(arch: str, system: str):
    """One system's single-T4 epoch per graph; ROC has no GAT (n/a)."""
    return {"arch": arch, "system": system, "epoch_s": {
        name: None if (system, arch) == ("roc", "gat") else _single_gpu_epoch(system, name, arch)
        for name in TABLE5_DATASETS
    }}


@experiment("table5", "Table 5: single-GPU per-epoch time (ms)",
            {"arch": ("gcn", "gat"), "system": ("roc", "dgl", "pyg", "nts")}, single_gpu,
            (Column("model", "arch", str.upper), Column("system", "system", str.upper))
            + _cols(TABLE5_DATASETS, MS, field="epoch_s", header=str.capitalize))
def check_table5(rows):
    results = _nest(rows, "arch", "system", value="epoch_s")
    for arch in ["gcn", "gat"]:
        per_arch = results[arch]
        # DGL and PyG OOM on Google; NTS survives.
        assert is_oom(per_arch["dgl"]["google"]), arch
        assert is_oom(per_arch["pyg"]["google"]), arch
        assert not is_oom(per_arch["nts"]["google"]), arch
        # Small citation graphs fit everywhere.
        for name in ["cora", "citeseer", "pubmed"]:
            for system in ["dgl", "pyg", "nts"]:
                assert not is_oom(per_arch[system][name]), (arch, name, system)
    # NTS comparable with DGL/PyG on citation graphs (within 2x).
    for name in ["cora", "citeseer", "pubmed"]:
        nts = results["gcn"]["nts"][name]
        dgl = results["gcn"]["dgl"][name]
        assert nts < dgl * 2.0
    # NTS clearly faster than single-node ROC on GCN.
    for name in TABLE5_DATASETS:
        roc = results["gcn"]["roc"][name]
        if not is_oom(roc):
            assert results["gcn"]["nts"][name] < roc


def cost_knob(setting):
    """Hybrid on wiki (8 nodes) with one cost-model knob set: ``(name, value)``."""
    knob, value = setting
    engine = build_engine("hybrid", "wiki", cluster=ClusterSpec.ecs(8), comm=ALL,
                          **{knob: value})
    seconds = engine.charge_epoch()
    return {"knob": knob, "value": value, "epoch_s": seconds,
            "cached": engine.plan().cache_ratio()}


@experiment("ablation_costmodel", "Ablation: Eq. 3's mu and Algorithm 4's memory budget S "
            "(Hybrid on wiki, 8-node ECS)",
            {"setting": (("mu", 0.2), ("mu", 0.5), ("mu", 0.8), ("mu", 1.0),
                         ("memory_limit_bytes", 1 << 18), ("memory_limit_bytes", 1 << 21),
                         ("memory_limit_bytes", 1 << 24), ("memory_limit_bytes", 1 << 30))},
            cost_knob,
            (Column("knob", "knob"), Column("value", "value"), EPOCH,
             Column("cached", "cached", PCT)))
def check_ablation_costmodel(rows):
    mu_times = {r["value"]: r["epoch_s"] for r in rows if r["knob"] == "mu"}
    budget_times = {r["value"]: (r["epoch_s"], r["cached"])
                    for r in rows if r["knob"] == "memory_limit_bytes"}
    # Robust to mu: spread below 25%.
    values = list(mu_times.values())
    assert max(values) / min(values) < 1.25
    # Cache ratio grows monotonically with the budget.
    ratios = [budget_times[b][1] for b in sorted(budget_times)]
    assert all(a <= b + 1e-9 for a, b in zip(ratios, ratios[1:]))
    # A starved budget caches (almost) nothing.
    assert ratios[0] < 0.2


DEPTH_ENGINES = {"DepCache": ("depcache", RAW), "DepComm": ("depcomm", ALL),
                 "Hybrid": ("hybrid", ALL)}


def depth(layers: int):
    """DepCache / DepComm / Hybrid epochs of a ``layers``-deep GCN."""
    t = _epochs(DEPTH_ENGINES, "livejournal", cluster=ClusterSpec.ecs(8), num_layers=layers)
    return {"layers": layers, **t, "gap": t["DepCache"] / t["Hybrid"]}


@experiment("ablation_depth", "Ablation: model depth, GCN on LiveJournal (8-node ECS)",
            {"layers": (2, 3, 4)}, depth,
            (Column("layers", "layers"),) + _cols(DEPTH_ENGINES, MS, header="{} ms".format)
            + (Column("cache/hybrid", "gap", X),))
def check_ablation_depth(rows):
    results = _nest(rows, "layers")

    def gap(layers):
        r = results[layers]
        if is_oom(r["DepCache"]):
            return float("inf")
        return r["DepCache"] / r["Hybrid"]

    # The DepCache/Hybrid gap widens (or DepCache dies) with depth.
    assert gap(4) >= gap(3) >= gap(2) * 0.95
    assert gap(4) > gap(2)
    # Hybrid completes at every depth.
    for layers, r in results.items():
        assert not is_oom(r["Hybrid"]), layers


def greedy_vs_oracle(seed: int, worker: int):
    """Eq.-3 cost of the greedy split over the optimum's; n/a if not enumerable."""
    model = GNNModel.gcn(8, 4, 2)
    constants = probe_constants(ClusterSpec.ecs(3), model)
    g = generators.locality_graph(24, 48, locality_width=0.1, global_fraction=0.3, seed=seed)
    args = (g, chunk_partition(g, 3), worker, model.dims(), constants)
    try:
        oracle = oracle_partition(*args)
    except ValueError:
        return {"seed": seed, "worker": worker, "gap": None, "subsets": None}
    cost = greedy_cost(*args, partition_dependencies(*args).cached)
    return {"seed": seed, "worker": worker,
            "gap": cost / oracle.total_cost_s if oracle.total_cost_s else 1.0,
            "subsets": oracle.subsets_evaluated}


@experiment("ablation_oracle", "Ablation: greedy (Algorithm 4) vs exhaustive oracle, "
            "Eq.-3 cost (24-vertex locality graphs, 3 workers)",
            {"seed": tuple(range(12)), "worker": (0, 1, 2)}, greedy_vs_oracle,
            (Column("seed", "seed"), Column("worker", "worker"),
             Column("gap", "gap", _fmt("{:.3f}x")), Column("subsets", "subsets", _fmt("{}"))))
def check_ablation_oracle(rows):
    gaps = [r["gap"] for r in rows if r["gap"] is not None]
    assert len(gaps) >= 10
    assert all(g >= 1.0 - 1e-9 for g in gaps)  # oracle is a lower bound
    assert float(np.mean(gaps)) < 1.15
    assert float(np.max(gaps)) < 1.5


def sampled_training(config):
    """20 epochs on 4 nodes of ``(fanouts, batch size)``; ``(None, None)``: full batch."""
    fanouts, batch_size = config
    sampler = {} if fanouts is None else {"fanouts": fanouts, "batch_size": batch_size}
    engine = build_engine("hybrid" if fanouts is None else "distdgl", "reddit",
                          cluster=ClusterSpec.ecs(4), comm=RAW if sampler else ALL,
                          scale=0.4, seed=1, **sampler)
    history = DistributedTrainer(engine, lr=0.01).train(epochs=20, eval_every=20)
    return {"fanouts": fanouts or "full", "batch_size": batch_size,
            "best_accuracy": history.best_accuracy(), "epoch_s": history.avg_epoch_time_s}


@experiment("ablation_sampling", "Ablation: sampling fanout / batch size (Reddit scale 0.4, "
            "4 nodes, 20 epochs)",
            # (10, 25) x 64 is on both sweeps, so it runs once
            {"config": (((2, 2), 64), ((5, 10), 64), ((10, 25), 64), ((25, 50), 64),
                        ((10, 25), 16), ((10, 25), 256), (None, None))},
            sampled_training,
            (Column("fanouts", "fanouts", lambda f: f"({f[0]}, {f[1]})" if f != "full" else f),
             Column("batch", "batch_size", _fmt("{}")),
             Column("best accuracy", "best_accuracy", "{:.1%}"), EPOCH))
def check_ablation_sampling(rows):
    results = {r["fanouts"]: (r["best_accuracy"], r["epoch_s"])
               for r in rows if r["batch_size"] in (64, None)}
    full_acc = results["full"][0]
    # Starved fanouts lose accuracy vs full batch.
    assert results[(2, 2)][0] < full_acc
    # Richer fanouts close (most of) the gap.
    assert results[(25, 50)][0] >= results[(2, 2)][0]
    # ...but cost more per epoch than starved ones.
    assert results[(25, 50)][1] > results[(2, 2)][1]


def _under_probe_error(error: float):
    cluster = ClusterSpec.ecs(8)
    engine = build_engine("hybrid", "google", cluster=cluster, comm=ALL)
    true_constants = probe_constants(cluster, engine.model)
    engine.constants = dataclasses.replace(
        true_constants,
        t_c=true_constants.t_c * error,
        t_c_layer=[t * error for t in true_constants.t_c_layer],
    )
    return engine.charge_epoch(), engine.plan().cache_ratio()


def probe_error(error: float):
    """Hybrid planned with T_c mis-probed ``error``-fold; regret vs the true probe."""
    seconds, cached = _under_probe_error(error)
    return {"error": error, "epoch_s": seconds, "cached": cached,
            "regret": seconds / _under_probe_error(1.0)[0]}


@experiment("ablation_probe_error", "Ablation: Hybrid under probe error on T_c "
            "(google, 8-node ECS)",
            {"error": (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0)}, probe_error,
            (Column("T_c error", "error", "{:.2f}x"), EPOCH, Column("cached", "cached", PCT),
             Column("regret vs true probe", "regret", "{:.3f}x")))
def check_ablation_probe_error(rows):
    times = _nest(rows, "error", value="epoch_s")
    baseline = times[1.0]
    # 2x probe error costs little.
    for error in (0.5, 2.0):
        assert times[error] <= baseline * 1.2, error
    # Even large errors stay within 2x of the true plan.
    for error, t in times.items():
        assert t <= baseline * 2.0, error


_BLOCK = re.compile(r"(<!-- paper:(\w+) -->\n).*?(<!-- /paper -->)", re.S)


def regenerate(doc: str, results: Dict[str, List[Dict]]) -> str:
    """``doc`` with every ``<!-- paper:ID -->`` block rendered from ``results``."""
    def block(match):
        table = render(EXPERIMENTS[match[2]].columns, results[match[2]])
        body = "\n".join(line.rstrip() for line in table.splitlines())
        return f"{match[1]}```\n{body}\n```\n{match[3]}"
    return _BLOCK.sub(block, doc)


def run(experiment_id: str) -> List[Dict]:
    """One experiment's rows, its table printed (not checked)."""
    experiment = EXPERIMENTS[experiment_id]
    rows = run_grid(experiment.axes, experiment.cell)
    print(f"\n### {experiment_id}: {experiment.title}")
    print(render(experiment.columns, jsonable(rows)))
    return rows


def pytest_generate_tests(metafunc):
    if "experiment_id" in metafunc.fixturenames:
        metafunc.parametrize("experiment_id", list(EXPERIMENTS))


def test_paper(experiment_id):
    EXPERIMENTS[experiment_id].check(run(experiment_id))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", metavar="ID",
                        help=f"experiments to run (default: all): {', '.join(EXPERIMENTS)}")
    parser.add_argument("--json", metavar="PATH", help="write the rows to PATH as JSON")
    args = parser.parse_args(argv)
    unknown = [i for i in args.ids if i not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment {', '.join(unknown)}")
    results = {i: run(i) for i in args.ids or EXPERIMENTS}
    write_json(args.json or (None if args.ids else BENCH_JSON), results)
    if not args.ids:
        EXPERIMENTS_MD.write_text(regenerate(EXPERIMENTS_MD.read_text(), jsonable(results)))
    # Checked after writing, so the numbers that failed are kept.
    for experiment_id, rows in results.items():
        EXPERIMENTS[experiment_id].check(rows)


if __name__ == "__main__":
    main()
