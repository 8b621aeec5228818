"""Shared helpers for the benchmark scripts.

``bench_paper.py`` builds its table on :func:`build_engine` /
:func:`epoch_time`.  Scripts that take ``--json PATH`` write their result
there (OOM entries as the string ``"OOM"``: JSON has no NaN).
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.memory import OutOfMemoryError
from repro.cluster.spec import ClusterSpec
from repro.comm.scheduler import CommOptions
from repro.core.model import GNNModel
from repro.engines import SharedMemoryEngine, make_engine
from repro.graph.datasets import load_dataset, spec_of
from repro.training.prep import prepare_graph
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
