"""Sampled mini-batch training as a first-class subsystem.

Samplers (uniform fanout / LABOR / LADIES) behind one seeded
interface, a batch-dependency key kappa (the kappa consecutive rounds
of one block share their draws), a static degree-pinned feature cache,
and a per-round compiler that fetches only the remote rows a worker
does not already hold and lowers every mini-batch onto the typed
Program IR, so the accountant, overlap marks, traces, and ops signals
price sampled training exactly like full-batch training.
"""

from repro.sampling.cache import StaticFeatureCache
from repro.sampling.closure import SampledClosure
from repro.sampling.compile import RoundTraffic, compile_round
from repro.sampling.costs import SamplingCostModel
from repro.sampling.engine import SampledTrainingEngine
from repro.sampling.explain import (
    describe_sampled_batches,
    render_sampled_batches,
)
from repro.sampling.samplers import (
    SAMPLER_NAMES,
    LaborSampler,
    LadiesSampler,
    NeighborSampler,
    UniformFanoutSampler,
    make_sampler,
)

__all__ = [
    "SAMPLER_NAMES",
    "LaborSampler",
    "LadiesSampler",
    "NeighborSampler",
    "RoundTraffic",
    "SampledClosure",
    "SampledTrainingEngine",
    "SamplingCostModel",
    "StaticFeatureCache",
    "UniformFanoutSampler",
    "compile_round",
    "describe_sampled_batches",
    "make_sampler",
    "render_sampled_batches",
]
