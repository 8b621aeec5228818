"""Shared helpers for the benchmark scripts.

``bench_paper.py`` builds the paper's evaluation on :func:`build_engine`
/ :func:`epoch_time`.  Scripts that take ``--json PATH`` write their
result there (OOM entries as the string ``"OOM"``: JSON has no NaN).
"""

from __future__ import annotations

import argparse
import time
from typing import Callable, Optional

from repro.cluster.memory import OutOfMemoryError
from repro.cluster.spec import ClusterSpec
from repro.comm.scheduler import CommOptions
from repro.core.model import GNNModel
from repro.engines import SharedMemoryEngine, make_engine
from repro.graph.datasets import load_dataset, spec_of
from repro.training.prep import prepare_graph
from repro.utils import render_table
from repro.utils.jsonio import write_json  # noqa: F401 (re-export)

OOM = float("nan")


def build_engine(
    engine_name: str,
    dataset: str,
    arch: str = "gcn",
    cluster: Optional[ClusterSpec] = None,
    comm: CommOptions = CommOptions.all(),
    hidden: Optional[int] = None,
    scale: float = 1.0,
    seed: int = 1,
    num_layers: int = 2,
    **kwargs,
):
    """Construct an engine on a prepared catalog dataset."""
    graph = prepare_graph(load_dataset(dataset, scale=scale), arch)
    spec = spec_of(dataset)
    model = GNNModel.build(
        arch, graph.feature_dim, hidden or spec.hidden_dim,
        graph.num_classes, num_layers=num_layers, seed=seed,
    )
    cluster = cluster or ClusterSpec.ecs(16)
    if engine_name in SharedMemoryEngine.VARIANTS:
        kwargs.setdefault("paper_num_vertices", spec.paper_num_vertices)
        return SharedMemoryEngine(
            graph, model, cluster=cluster, variant=engine_name, **kwargs
        )
    return make_engine(engine_name, graph, model, cluster, comm=comm, **kwargs)


def epoch_time(engine_name: str, dataset: str, **kwargs) -> float:
    """Modeled per-epoch seconds, or NaN on out-of-memory."""
    try:
        engine = build_engine(engine_name, dataset, **kwargs)
        return engine.charge_epoch()
    except OutOfMemoryError:
        return OOM


def is_oom(value: float) -> bool:
    return value != value  # NaN


def wallclock(fn: Callable[[], object], repeats: int = 3,
              warmup: int = 1) -> dict:
    """Real (``time.perf_counter``) seconds of ``fn``, best-of-N.

    Convention for wall-clock benchmark JSON: ``compile_s`` is the
    seconds to build an engine's plan/program, ``epoch_s`` the seconds
    of one charged epoch -- both *measured host* time, unlike the
    modeled cluster seconds :func:`epoch_time` reports.  Returns
    ``{"min_s", "median_s", "runs"}``; ``min_s`` is the headline number
    (least scheduler noise), ``runs`` keeps the raw samples honest.
    """
    for _ in range(warmup):
        fn()
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - t0)
    runs.sort()
    return {
        "min_s": runs[0],
        "median_s": runs[len(runs) // 2],
        "runs": runs,
    }


def fmt_time(seconds: float) -> str:
    """Milliseconds, or ``OOM``."""
    return "OOM" if is_oom(seconds) else f"{seconds * 1e3:.2f}"


def print_table(title: str, headers, rows) -> None:
    print()
    print(f"### {title}")
    print(render_table(headers, rows))


def paper_row(note: str) -> None:
    print(f"    (paper: {note})")


def parse_json_flag(description: str) -> Optional[str]:
    """Parse a benchmark module's ``--json PATH`` flag (None if absent)."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the result dictionary to PATH as JSON")
    return parser.parse_args().json
