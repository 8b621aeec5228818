"""Training engines: the paper's strategies and its baselines."""

from repro.engines.base import BaseEngine, EnginePlan, EpochReport
from repro.engines.depcache import DepCacheEngine
from repro.engines.depcomm import DepCommEngine
from repro.engines.hybrid import HybridEngine
from repro.engines.roc_like import RocLikeEngine
from repro.engines.sampling import SamplingEngine
from repro.engines.shared_memory import SharedMemoryEngine
from repro.engines.tensor_parallel import (
    FourWayHybridEngine,
    TensorParallelEngine,
)
from repro.sampling.engine import SampledTrainingEngine

_ENGINES = {
    "depcache": DepCacheEngine,
    "depcomm": DepCommEngine,
    "hybrid": HybridEngine,
    "hybrid4": FourWayHybridEngine,
    "roc": RocLikeEngine,
    "distdgl": SamplingEngine,
    "sampled": SampledTrainingEngine,
    "tp": TensorParallelEngine,
}


def make_engine(name: str, graph, model, cluster, **kwargs):
    """Build an engine by registered name: depcache | depcomm | hybrid |
    hybrid4 | tp | roc | distdgl | sampled."""
    try:
        engine_cls = _ENGINES[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_ENGINES))
        raise KeyError(f"unknown engine {name!r}; known: {known}") from None
    return engine_cls(graph, model, cluster, **kwargs)


__all__ = [
    "BaseEngine",
    "EnginePlan",
    "EpochReport",
    "DepCacheEngine",
    "DepCommEngine",
    "FourWayHybridEngine",
    "HybridEngine",
    "RocLikeEngine",
    "SampledTrainingEngine",
    "SamplingEngine",
    "SharedMemoryEngine",
    "TensorParallelEngine",
    "make_engine",
]
