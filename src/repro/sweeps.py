"""Parameter grids: one runner, one table renderer, every sweep.

The paper's evaluation is a set of grids over system x dataset x
configuration.  Here a grid is declared, not coded: :func:`run_grid`
walks the ordered product of named axes and calls one ``cell`` function
per point, each cell returning one JSON-ready row dict; a list of
:class:`Column` per sweep says how those same rows render as a text
table.  ``repro cache-sweep`` / ``sample-sweep`` / ``tp-sweep`` /
``serve-bench`` / ``compare`` / ``chaos`` call the ``run_*`` functions
below and :func:`render` with the sweep's column list; the system rows
of ``benchmarks/bench_paper.py`` (experiments ``tp``, ``cache_sweep``,
``serving``) call the same functions, or their per-point parts.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.cache.budget import CacheConfig
from repro.cluster.memory import OutOfMemoryError
from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.engines import make_engine
from repro.graph import generators
from repro.resilience import RecoveryExhaustedError
from repro.sampling.engine import SampledTrainingEngine
from repro.serving import InferenceServer, ServingConfig
from repro.training.prep import prepare_graph
from repro.training.trainer import DistributedTrainer
from repro.utils import render_table


def run_grid(axes: Mapping[str, Sequence], cell: Callable[..., Dict]) -> List[Dict]:
    """One ``cell(**point)`` row per point of the axes' ordered product.

    ``axes`` maps axis name -> values; the first axis varies slowest, so
    row order is the nested-loop order the axes are declared in, and an
    empty axis yields no rows.
    """
    return [
        cell(**dict(zip(axes, point)))
        for point in itertools.product(*axes.values())
    ]


@dataclass(frozen=True)
class Column:
    """One table column over row dicts (or row objects).

    ``key`` is a row-dict key (attribute name, on an object) or a
    function of the row; ``fmt`` is a ``str.format`` template or a
    function of the value.
    """

    header: str
    key: Union[str, Callable]
    fmt: Union[str, Callable] = "{}"

    def cell(self, row) -> str:
        if callable(self.key):
            value = self.key(row)
        elif isinstance(row, Mapping):
            value = row[self.key]
        else:
            value = getattr(row, self.key)
        return self.fmt(value) if callable(self.fmt) else self.fmt.format(value)


def render(columns: Sequence[Column], rows: Sequence) -> str:
    """The aligned text table of ``rows`` under ``columns``."""
    return render_table(
        [c.header for c in columns],
        [[c.cell(row) for c in columns] for row in rows],
    )


def ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}"


def kb(num_bytes: float) -> str:
    return f"{num_bytes / 1e3:.1f}"


# -- cache-sweep: tau x capacity against a cache-free baseline ---------

CACHE_COLUMNS = (
    Column("tau", "tau", "{:g}"),
    Column(
        "capacity", "capacity_bytes",
        lambda b: "-" if b is None else f"{b / 1024 / 1024:g}MB",
    ),
    Column("KB/epoch", "comm_bytes_per_epoch", kb),
    Column("comm saved", "comm_reduction", "{:.1%}"),
    Column("accuracy", "accuracy", "{:.2%}"),
    Column("delta", "accuracy_delta", "{:+.2%}"),
    Column("hit rate", "hit_rate", "{:.0%}"),
    Column("speedup", "speedup", "{:.2f}x"),
    Column("forced", "forced_refreshes"),
)


def run_cache_sweep(
    graph,
    model_factory: Callable[[], object],
    cluster: ClusterSpec,
    taus: Sequence[float],
    epochs: int,
    engine_name: str,
    capacities: Sequence[Optional[int]] = (None,),
    lr: float = 0.01,
) -> Dict:
    """Train the (capacity, tau) grid and compare against no cache.

    ``model_factory`` must return a *fresh* identically-seeded model on
    every call so each grid point trains from the same initialisation.
    ``capacities`` entries are byte caps (``None`` = unbounded).  Real
    numerics (accuracies are exact), modeled time.  Returns
    ``{"engine", "epochs", "baseline": {...}, "points": [row, ...]}``.
    """
    def train(cache):
        engine = make_engine(
            engine_name, graph, model_factory(), cluster, cache_config=cache
        )
        history = DistributedTrainer(engine, lr=lr).train(epochs)
        reports = history.reports
        comm = sum(r.comm_bytes for r in reports) / len(reports)
        return history, comm, engine.evaluate()

    base_history, base_comm, base_accuracy = train(None)
    base_epoch_s = base_history.avg_epoch_time_s

    def cell(capacity, tau):
        history, comm, accuracy = train(
            CacheConfig(tau=tau, capacity_bytes=capacity)
        )
        reports = history.reports
        hits = sum(r.cache_hits for r in reports)
        lookups = hits + sum(r.cache_misses for r in reports)
        epoch_s = history.avg_epoch_time_s
        return {
            "tau": tau,
            "capacity_bytes": capacity,
            "comm_bytes_per_epoch": comm,
            "comm_reduction": 1.0 - comm / base_comm if base_comm else 0.0,
            "accuracy": accuracy,
            "accuracy_delta": accuracy - base_accuracy,
            "epoch_s": epoch_s,
            "speedup": base_epoch_s / epoch_s if epoch_s else 1.0,
            "hit_rate": hits / lookups if lookups else 0.0,
            "saved_bytes": sum(r.comm_saved_bytes for r in reports),
            "refresh_bytes": sum(r.refresh_bytes for r in reports),
            "forced_refreshes": history.forced_refreshes,
        }

    return {
        "engine": engine_name,
        "epochs": epochs,
        "baseline": {
            "comm_bytes_per_epoch": base_comm,
            "accuracy": base_accuracy,
            "epoch_s": base_epoch_s,
        },
        "points": run_grid({"capacity": capacities, "tau": taus}, cell),
    }


def best_cache_point(result: Dict, accuracy_tolerance: float) -> Optional[Dict]:
    """Largest comm reduction whose accuracy stays within tolerance."""
    eligible = [
        p for p in result["points"] if p["accuracy_delta"] >= -accuracy_tolerance
    ]
    return max(eligible, key=lambda p: p["comm_reduction"], default=None)


# -- sample-sweep: sampler x fanout x kappa x feature-cache capacity ---

SAMPLE_COLUMNS = (
    Column("sampler", "sampler"),
    Column("fanouts", "fanouts", lambda f: ",".join(str(x) for x in f)),
    Column("kappa", "kappa"),
    Column("cache MB", "cache_mb", "{:g}"),
    Column("epoch ms", "epoch_s", ms),
    Column("comm KB", "comm_bytes", kb),
    Column("edges", "sampled_edges"),
    Column("uniq remote", "unique_remote"),
    Column("fetched", "fetched_rows"),
    Column("resident", "resident_rows"),
    Column("pinned", "pinned_rows"),
)

_SAMPLE_COUNTERS = (
    "comm_bytes", "sampled_edges", "remote_rows", "fetched_rows",
    "resident_rows", "pinned_rows", "unique_remote", "saved_bytes",
)


def run_sample_sweep(
    graph,
    cluster: ClusterSpec,
    samplers: Sequence[str],
    fanouts: Sequence[Sequence[int]],
    kappas: Sequence[int],
    cache_mb: Sequence[float],
    arch: str,
    hidden: int,
    batch_size: int,
    epochs: int,
    seed: int,
) -> List[Dict]:
    """Charge ``epochs`` sampled epochs per grid point; one row each.

    Every point builds a fresh :class:`SampledTrainingEngine` with the
    same model seed, so rows differ only in the sampling configuration.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be positive, got {epochs}")

    def cell(sampler, fanout, kappa, cache):
        model = GNNModel.build(
            arch, graph.feature_dim, hidden, graph.num_classes,
            num_layers=len(fanout), seed=seed + 1,
        )
        engine = SampledTrainingEngine(
            graph, model, cluster, fanouts=fanout, batch_size=batch_size,
            sampler=sampler, kappa=kappa,
            feature_cache_bytes=int(cache * 1024 * 1024), seed=seed,
        )
        times = [engine.charge_epoch() for _ in range(epochs)]
        stats = engine.last_epoch_stats or {}
        row = {
            "dataset": graph.name,
            "sampler": sampler,
            "fanouts": list(fanout),
            "kappa": int(kappa),
            "cache_mb": float(cache),
            "epoch_s": float(np.mean(times)),
        }
        row.update((key, int(stats.get(key, 0))) for key in _SAMPLE_COUNTERS)
        return row

    return run_grid(
        {"sampler": samplers, "fanout": fanouts, "kappa": kappas,
         "cache": cache_mb},
        cell,
    )


# -- tp-sweep: degree skew x hidden width on scaled-social -------------
#
# NeutronTP's claim is the interesting diagonal: dense slice transposes
# are volume-balanced and framing-free, so they overtake the per-vertex
# exchange exactly where skew concentrates sends on hub owners *and*
# wide hiddens make the straggler's bytes expensive, while at narrow
# hiddens the all-to-all's per-peer latency floor loses everywhere.

PURE_THREE_WAY = ("depcache", "depcomm", "hybrid")
STRATEGIES = PURE_THREE_WAY + ("tp", "hybrid4")

#: The catalog's ``social-flat`` / ``social-skewed`` endpoints plus
#: ``social-large``'s midpoint skew, against narrow / medium / wide
#: hiddens; the crossover sits on the wide-hidden column.
DEFAULT_EXPONENTS = (0.1, 0.85, 1.2)
DEFAULT_HIDDENS = (16, 64, 256)
_TP_FEATURE_DIM, _TP_NUM_LABELS, _TP_COMMUNITIES = 64, 16, 8


def _strategy_ms(name: str) -> Column:
    return Column(f"{name} ms", lambda r: r["times_s"][name] * 1e3, "{:.3f}")


TP_COLUMNS = (
    Column("skew", "hub_exponent", "{:g}"),
    Column("hidden", "hidden"),
    *(_strategy_ms(name) for name in STRATEGIES),
    Column(
        "tp layers", "tp_layers",
        lambda flags: "".join("T" if flag else "." for flag in flags),
    ),
    Column(
        "winner",
        lambda r: "hybrid4" if r["four_way_wins"]
        else ("tp" if r["tp_wins"] else "three-way"),
    ),
)


def run_tp_sweep(
    exponents: Sequence[float] = DEFAULT_EXPONENTS,
    hiddens: Sequence[int] = DEFAULT_HIDDENS,
    *,
    num_vertices: int = 3072,
    avg_degree: float = 16.0,
    num_layers: int = 2,
    arch: str = "gcn",
    cluster: ClusterSpec,
    seed: int = 0,
) -> Dict:
    """Charge every (exponent, hidden) cell for all five strategies.

    Returns ``{"rows": [...], "crossover": {...}}``.  Each row carries
    the per-strategy modeled epoch seconds, the best pure three-way
    time, and ``hybrid4``'s chosen ``tp_layers``.  ``crossover``
    summarises where tensor parallelism wins: the cells whose four-way
    plan beats the best pure three-way plan, and the cells where even
    the pure TP engine does.
    """
    @functools.lru_cache(maxsize=1)  # hidden varies fastest: one graph live
    def graph_for(exponent):
        graph = generators.scaled_social(
            num_vertices, avg_degree=avg_degree,
            num_communities=_TP_COMMUNITIES, hub_exponent=exponent, seed=seed,
        )
        generators.attach_features(
            graph, _TP_FEATURE_DIM, _TP_NUM_LABELS, seed=seed + 1,
            class_signal=0.6,
        )
        graph.name = f"social-exp{exponent:g}"
        return prepare_graph(graph, arch)

    def cell(hub_exponent, hidden):
        model = GNNModel.build(
            arch, _TP_FEATURE_DIM, hidden, _TP_NUM_LABELS,
            num_layers=num_layers, seed=seed,
        )
        times, tp_layers = {}, []
        for name in STRATEGIES:
            engine = make_engine(name, graph_for(hub_exponent), model, cluster)
            times[name] = engine.charge_epoch()
            if name == "hybrid4":
                tp_layers = list(engine.plan().tp_layers)
        best_three = min(times[name] for name in PURE_THREE_WAY)
        return {
            "hub_exponent": hub_exponent,
            "hidden": hidden,
            "times_s": times,
            "best_three_s": best_three,
            "tp_layers": tp_layers,
            "four_way_wins": times["hybrid4"] < best_three,
            "tp_wins": times["tp"] < best_three,
        }

    rows = run_grid({"hub_exponent": exponents, "hidden": hiddens}, cell)
    return {
        "num_vertices": num_vertices,
        "avg_degree": avg_degree,
        "num_workers": cluster.num_workers,
        "feature_dim": _TP_FEATURE_DIM,
        "num_layers": num_layers,
        "arch": arch,
        "exponents": list(exponents),
        "hiddens": list(hiddens),
        "rows": rows,
        "crossover": _summarise_crossover(rows),
    }


def _summarise_crossover(rows: List[Dict]) -> Dict:
    """Locate the flip region and the two corner verdicts.

    Cells are ordered by (exponent, hidden): the flattest cell is the
    narrow-hidden low-skew corner, the most skewed the wide-hidden
    high-skew corner -- the two ends of the sweep's diagonal.
    """
    ordered = sorted(rows, key=lambda r: (r["hub_exponent"], r["hidden"]))

    def cells(flag):
        return [[r["hub_exponent"], r["hidden"]] for r in ordered if r[flag]]

    def corner(r):
        return {
            "cell": [r["hub_exponent"], r["hidden"]],
            "tp_wins": r["tp_wins"],
            "four_way_wins": r["four_way_wins"],
        }

    return {
        "four_way_win_cells": cells("four_way_wins"),
        "tp_win_cells": cells("tp_wins"),
        "flattest": corner(ordered[0]),
        "most_skewed": corner(ordered[-1]),
    }


# -- serve-bench: batching speedup + staleness-bound sweep -------------

BATCHING_COLUMNS = (
    Column("serving", "serving"),
    Column("rps", "rps", "{:.0f}"),
    Column("p99 ms", "p99_s", ms),
    Column("speedup", "speedup", lambda s: "-" if s is None else f"{s:.2f}x"),
)

TAU_COLUMNS = (
    Column("tau s", "tau_s", "{:g}"),
    Column("comm KB", "comm_bytes", kb),
    Column("p99 ms", "p99_ms", "{:.2f}"),
    Column("staleness ms", "mean_staleness_s", lambda s: f"{s * 1e3:.1f}"),
    Column("cache hits", "cache_hits"),
)


def serve_once(
    graph, model, cluster, partitioning, requests,
    window_s: float, max_batch: int, tau_s: float, mode: str,
):
    """One timeline-free :class:`InferenceServer` run over ``requests``."""
    config = ServingConfig(
        batch_window_s=window_s, max_batch=max_batch, tau_s=tau_s, mode=mode,
    )
    server = InferenceServer(
        graph, model, cluster, partitioning, config=config,
        record_timeline=False,
    )
    return server.serve(requests)


def staleness_row(tau_s: float, result) -> Dict:
    """One serving ``result``'s traffic, p99 and staleness (``TAU_COLUMNS``)."""
    ledger = result.ledger
    return {
        "tau_s": tau_s,
        "comm_bytes": ledger.total_comm_bytes,
        "p99_ms": ledger.p99_s * 1e3,
        "mean_staleness_s": ledger.mean_staleness_s(),
        "cache_hits": result.cache.counters.hits,
    }


def run_serve_bench(
    graph, model, cluster, partitioning, workload, sweep_workload,
    taus: Sequence[float], batch_window_s: float, max_batch: int,
) -> Dict:
    """Batched vs unbatched local serving of ``workload`` at identical
    predictions, then remote (DepComm-style) serving of
    ``sweep_workload`` per staleness bound in ``taus``."""
    serve = functools.partial(serve_once, graph, model, cluster, partitioning)
    unbatched = serve(workload, 0.0, 1, 0.0, "local")
    batched = serve(workload, batch_window_s, max_batch, 0.0, "local")
    unbatched_rps = unbatched.ledger.throughput_rps()
    batched_rps = batched.ledger.throughput_rps()
    speedup = batched_rps / unbatched_rps if unbatched_rps else float("inf")

    def cell(tau):
        return staleness_row(
            tau, serve(sweep_workload, batch_window_s, max_batch, tau, "remote"),
        )

    return {
        "batching": [
            {"serving": "unbatched", "rps": unbatched_rps,
             "p99_s": unbatched.ledger.p99_s, "speedup": None},
            {"serving": "batched", "rps": batched_rps,
             "p99_s": batched.ledger.p99_s, "speedup": speedup},
        ],
        "batched_rps": batched_rps,
        "unbatched_rps": unbatched_rps,
        "batching_speedup": speedup,
        "predictions_identical": batched.predictions == unbatched.predictions,
        "tau_sweep": run_grid({"tau": taus}, cell),
    }


# -- compare: one charged epoch per pure engine ------------------------

COMPARE_COLUMNS = (
    Column("engine", "engine"),
    Column("epoch ms", "epoch_s", lambda t: t if t == "OOM" else ms(t)),
    Column("notes", "notes"),
)


def run_compare(build_engine: Callable[[str], object]) -> List[Dict]:
    """Per-epoch modeled seconds of DepCache / DepComm / Hybrid (the
    Figure 2 / Figure 9 workflow); an engine that does not fit reports
    ``"OOM"`` with the exhausted allocation as its note."""

    def cell(engine):
        try:
            built = build_engine(engine)
            epoch_s = built.charge_epoch()
        except OutOfMemoryError as err:
            return {"engine": engine, "epoch_s": "OOM", "notes": err.label}
        notes = ""
        if engine == "hybrid":
            notes = f"{built.plan().cache_ratio() * 100:.0f}% cached"
        return {"engine": engine, "epoch_s": epoch_s, "notes": notes}

    return run_grid({"engine": PURE_THREE_WAY}, cell)


# -- chaos: every engine under the same fault schedule -----------------

CHAOS_COLUMNS = tuple(
    Column(header, key) for header, key in (
        ("engine", "engine"), ("clean ms", "clean"), ("faulty ms", "faulty"),
        ("slowdown", "slowdown"), ("retries", "retries"), ("idle", "idle"),
        ("recoveries", "recoveries"), ("workers", "workers"),
    )
)


def run_chaos_grid(
    engines: Sequence[str], run: Callable[[str], object], max_recoveries: int
) -> List[Dict]:
    """``run(engine) -> ChaosReport`` per engine.  Each row carries the
    table cells plus the raw ``report`` (or ``failure`` dict when the
    ``max_recoveries`` budget ran out; an engine that does not fit has
    neither)."""
    def cell(engine):
        blank = dict.fromkeys(
            ("faulty", "slowdown", "retries", "idle", "recoveries"), "-"
        )
        try:
            report = run(engine)
        except OutOfMemoryError as err:
            return {"engine": engine, "clean": "OOM", **blank,
                    "workers": err.label}
        except RecoveryExhaustedError as err:
            failure = {
                "error": "recovery_exhausted",
                "worker": err.fault.worker,
                "detected_at_s": err.detected_at_s,
                "recoveries": err.recoveries,
                "max_recoveries": max_recoveries,
                "message": str(err),
            }
            return {
                "engine": engine, "clean": "FAILED", **blank,
                "recoveries": f"{err.recoveries} (budget exhausted)",
                "workers": "-", "failure": failure,
            }
        recoveries = "-"
        if report.recoveries:
            recoveries = (
                f"{len(report.recoveries)} "
                f"({report.total_recovery_s * 1e3:.1f} ms)"
            )
        return {
            "engine": engine,
            "clean": ms(report.clean_epoch_s),
            "faulty": ms(report.faulty_epoch_s),
            "slowdown": f"{report.degradation:.2f}x",
            "retries": report.retries,
            "idle": f"{report.idle_fraction * 100:.1f}%",
            "recoveries": recoveries,
            "workers": report.num_workers_final,
            "report": report,
        }

    return run_grid({"engine": engines}, cell)


# -- replan-sweep: resilience.run_replan_sweep's one-row table ---------

REPLAN_COLUMNS = (
    Column("engine", "engine"),
    Column("static ms", "static_makespan_s", ms),
    Column("adaptive ms", "adaptive_makespan_s", ms),
    Column("speedup", "speedup", "{:.2f}x"),
    Column("replans", "replans"),
    Column("static cached", "static_cache_ratio", "{:.0%}"),
    Column("adaptive cached", "adaptive_cache_ratio", "{:.0%}"),
)
