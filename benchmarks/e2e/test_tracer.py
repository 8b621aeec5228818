"""Self-test of the span tracer: ``python -m pytest benchmarks/e2e -q``.

Not part of the tier-1 suite (``testpaths = ["tests"]``): it guards the
benchmark's own instrument, and breaks when a traced public name is
renamed, which is the point.
"""

import itertools
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import layers  # noqa: E402
from tracer import (  # noqa: E402
    PARENT,
    TAG,
    Target,
    TraceTargetError,
    Tracer,
    _resolve,
    chrome_trace,
)


@pytest.fixture
def fake_modules():
    """``provider.inner/outer`` plus a consumer that did ``from provider import``."""
    provider = types.ModuleType("e2e_fake_provider")
    consumer = types.ModuleType("e2e_fake_consumer")

    def inner():
        return 1

    def outer():
        return provider.inner() + provider.inner()

    provider.inner, provider.outer = inner, outer
    consumer.renamed_inner = inner  # ``from provider import inner as renamed_inner``
    consumer.call = lambda: consumer.renamed_inner()
    sys.modules.update({provider.__name__: provider, consumer.__name__: consumer})
    yield provider, consumer
    del sys.modules[provider.__name__], sys.modules[consumer.__name__]


FAKE_TARGETS = [
    Target("e2e_fake_provider:inner", "low"),
    Target("e2e_fake_provider:outer", "high"),
]


def test_spans_nest_and_self_times_sum_to_the_root(fake_modules):
    provider, _ = fake_modules
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.installed(FAKE_TARGETS):
        with tracer.span("op", "root"):
            provider.outer()
            provider.inner()
    names = [(r[0], r[PARENT]) for r in tracer.spans]
    assert names == [("op", -1), ("outer", 0), ("inner", 1), ("inner", 1), ("inner", 0)]
    root = tracer.spans[0]
    assert sum(Tracer.self_time(r) for r in tracer.spans) == Tracer.duration(root)
    assert all(Tracer.self_time(r) > 0 for r in tracer.spans)
    assert tracer.root_of() == [0, 0, 0, 0, 0]
    events = chrome_trace(tracer)["traceEvents"]
    assert [e["name"] for e in events] == [r[0] for r in tracer.spans]
    assert events[0]["ts"] == 0.0 and events[0]["dur"] == Tracer.duration(root) * 1e6


def test_from_import_bindings_are_patched_in_the_consumer(fake_modules):
    _, consumer = fake_modules
    tracer = Tracer()
    with tracer.installed(FAKE_TARGETS):
        assert consumer.call() == 1
    assert [r[0] for r in tracer.spans] == ["inner"]


def test_real_from_import_binding_is_patched():
    import repro.graph.khop
    import repro.serving.server

    original = repro.graph.khop.khop_closure
    assert repro.serving.server.khop_closure is original
    with Tracer().installed([Target("repro.graph.khop:khop_closure", "graph")]):
        assert repro.serving.server.khop_closure is not original
        assert repro.serving.server.khop_closure is repro.graph.khop.khop_closure
    assert repro.serving.server.khop_closure is original


@pytest.mark.parametrize("path, named", [
    ("repro.graph.khop:no_such_function", "no_such_function"),
    ("repro.no_such_module:f", "repro.no_such_module"),
    ("repro.tensor.tensor:NoSuchClass.apply", "NoSuchClass"),
    # Defined on NeighborSampler; naming the subclass must not pass.
    ("repro.sampling.samplers:UniformFanoutSampler.sample_batch", "sample_batch"),
])
def test_a_missing_target_raises_naming_it_and_patches_nothing(path, named):
    import repro.graph.khop

    original = repro.graph.khop.khop_closure
    tracer = Tracer()
    with pytest.raises(TraceTargetError, match=named):
        tracer.install([Target("repro.graph.khop:khop_closure", "graph"), Target(path, "x")])
    assert repro.graph.khop.khop_closure is original


def test_every_benchmark_target_resolves_and_is_restored_by_identity():
    resolved = [_resolve(t.path) for t in layers.TARGETS]
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    try:
        for owner, attr, raw in resolved:
            assert vars(owner)[attr] is not raw, attr
    finally:
        tracer.uninstall()
    for owner, attr, raw in resolved:
        assert vars(owner)[attr] is raw, attr


def test_classmethod_spans_carry_the_op_class_and_counts_are_kept():
    from repro.tensor.tensor import Tensor

    tracer = Tracer()
    with tracer.installed(layers.TARGETS):
        (Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])).sum()
    assert [r[TAG] for r in tracer.spans] == ["Add", "Sum"]
    assert tracer.counts == {"DependencyCostModel.t_r": 0}


def test_per_layer_metric_names_match_the_contract():
    from metrics import load_contract

    tracer = Tracer()
    with tracer.installed(layers.TARGETS):
        with tracer.span("op", "root"):
            pass
    produced = (
        set(layers.op_metrics(tracer)) | set(layers.SETUP_METRICS) | set(layers.COLLECTED)
    )
    named = {m["name"] for m in load_contract()["per_layer"]}
    # run.py adds these four itself.
    assert named - produced == {
        "costmodel.probe_s", "engines.first_op_host_s", "training.eval_s",
        "trace.overhead_share",
    }
    assert produced <= named
