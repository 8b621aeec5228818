"""Sampled mini-batch training as a first-class subsystem.

Samplers (uniform fanout / LABOR / LADIES) behind one seeded
interface, a batch-dependency knob kappa that re-serves a hashed
fraction of the previous mini-batch's realized neighbor lists, a
static degree-pinned feature cache, and a per-round compiler that
lowers every mini-batch onto the typed Program IR so the accountant,
passes, traces, and ops signals price sampled training exactly like
full-batch training.
"""

from repro.sampling.cache import StaticFeatureCache
from repro.sampling.closure import ReuseState, SampledClosure
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
    LegacyStreamSampler,
    NeighborSampler,
    UniformFanoutSampler,
    make_sampler,
)

__all__ = [
    "SAMPLER_NAMES",
    "LaborSampler",
    "LadiesSampler",
    "LegacyStreamSampler",
    "NeighborSampler",
    "ReuseState",
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
