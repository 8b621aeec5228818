"""Aggregation plans kept on a block and run again, compared as raw bits.

A block's edge list does not change between epochs, so the kernel's
ranked-round layout (:class:`~repro.tensor.scatter.ScatterPlan`) is
built once per (block, direction, row width) and every later forward and
adjoint runs from it.  A reused plan must give exactly the bits a fresh
``np.add.at`` gives on the new rows, and a plan must not outlive what
it was built from: a reassigned ``edge_weight`` or patched cut-over
constants build a new one.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.spec import ClusterSpec
from repro.core import ops
from repro.core.blocks import LayerBlock
from repro.core.model import GNNModel
from repro.engines import make_engine
from repro.graph import generators
from repro.tensor import scatter
from repro.tensor.scatter import gather_scatter_rows
from repro.tensor.tensor import Tensor
from repro.training.prep import prepare_graph

pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view({4: np.uint32, 8: np.uint64}[a.dtype.itemsize])


def _same(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert np.array_equal(_bits(got), _bits(expected))


def _add_at(x, gather, index, weights, num_rows):
    """The reference: the message array built whole, then np.add.at."""
    messages = x[gather]
    if weights is not None:
        messages = messages * weights.reshape(-1, 1)
    out = np.zeros((num_rows,) + x.shape[1:], dtype=messages.dtype)
    np.add.at(out, index, messages)
    return out


def _block(rng, num_rows, num_inputs, max_degree, weight_dtype):
    counts = rng.integers(0, max_degree + 1, size=num_rows)
    # One hub row, so the rounds leave a tail when they stop early.
    counts[rng.integers(num_rows)] += 4 * max_degree
    num_edges = int(counts.sum())
    return LayerBlock(
        compute_vertices=np.arange(num_rows),
        input_vertices=np.arange(num_inputs),
        edge_src_global=rng.integers(0, num_inputs, size=num_edges),
        edge_ids=np.arange(num_edges),
        edge_counts=counts,
        weight_source=rng.standard_normal(num_edges).astype(weight_dtype),
    )


@st.composite
def blocks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 100_000)))
    block = _block(
        rng,
        num_rows=draw(st.integers(1, 30)),
        num_inputs=draw(st.integers(1, 40)),
        max_degree=draw(st.integers(0, 12)),
        weight_dtype=draw(st.sampled_from(["f4", "f8"])),
    )
    x_dtype = draw(st.sampled_from(["f4", "f8"]))
    width = draw(st.sampled_from([1, 7, 64]))
    weighted = draw(st.booleans())
    special = draw(st.sampled_from([None, -0.0, np.inf, np.nan]))
    return block, rng, x_dtype, width, weighted, special


def _rows(rng, num, width, dtype, special):
    x = (rng.standard_normal((num, width)) * 1e3).astype(dtype)
    if special is not None:
        x[rng.random(num) < 0.3] = special
    return x


class TestReusedPlanBits:
    @settings(
        max_examples=80, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=blocks())
    def test_forward_and_adjoint_through_a_reused_plan(self, constants, case):
        block, rng, x_dtype, width, weighted, special = case
        src, dst = block.edge_src_pos, block.edge_dst_pos
        weights = block.edge_weight if weighted else None
        forward, adjoint = block.scatter_plans
        # Three passes over fresh rows: the first builds, the rest reuse.
        for _ in range(3):
            x = _rows(rng, block.num_inputs, width, x_dtype, special)
            _same(
                gather_scatter_rows(x, src, dst, weights, block.num_outputs, forward),
                _add_at(x, src, dst, weights, block.num_outputs),
            )
            y = _rows(rng, block.num_outputs, width, x_dtype, special)
            _same(
                gather_scatter_rows(y, dst, src, weights, block.num_inputs, adjoint),
                _add_at(y, dst, src, weights, block.num_inputs),
            )
        # Plans are kept only where the kernel would lay the block out.
        assert len(forward) <= 1 and len(adjoint) <= 1

    def test_plans_are_built_once_and_kept_per_width(self, monkeypatch):
        monkeypatch.setattr(scatter, "MIN_ELEMENTS", 0)
        monkeypatch.setattr(scatter, "ROUND_ELEMENTS", 16)
        builds = _count_builds(monkeypatch)
        rng = np.random.default_rng(3)
        block = _block(rng, 20, 30, 6, "f4")
        for width in (8, 3, 8, 3):
            x = Tensor(_rows(rng, block.num_inputs, width, "f4", None), requires_grad=True)
            out = ops.fused_scatter_gather(block, x, "weighted_sum")
            out.backward(np.ones_like(out.data))
        forward, adjoint = block.scatter_plans
        assert set(forward) == set(adjoint) == {(8, True), (3, True)}
        assert len(builds) == 4

    def test_reassigned_edge_weight_gives_the_new_bits(self, monkeypatch):
        monkeypatch.setattr(scatter, "MIN_ELEMENTS", 0)
        monkeypatch.setattr(scatter, "ROUND_ELEMENTS", 16)
        builds = _count_builds(monkeypatch)
        rng = np.random.default_rng(4)
        block = _block(rng, 25, 40, 8, "f4")
        x = _rows(rng, block.num_inputs, 8, "f4", None)
        ops.fused_scatter_gather(block, Tensor(x), "weighted_sum")
        assert len(builds) == 1
        # A reweighting (LADIES' rescale) assigns the field.
        block.edge_weight = (block.edge_weight * 3.0).astype(np.float32)
        got = ops.fused_scatter_gather(block, Tensor(x), "weighted_sum").data
        _same(got, _add_at(
            x, block.edge_src_pos, block.edge_dst_pos, block.edge_weight,
            block.num_outputs,
        ))
        assert len(builds) == 2

    def test_patched_constants_build_a_new_plan(self, monkeypatch):
        monkeypatch.setattr(scatter, "MIN_ELEMENTS", 0)
        monkeypatch.setattr(scatter, "ROUND_ELEMENTS", 16)
        builds = _count_builds(monkeypatch)
        rng = np.random.default_rng(5)
        block = _block(rng, 25, 40, 8, "f8")
        x = _rows(rng, block.num_inputs, 8, "f8", None)
        first = ops.fused_scatter_gather(block, Tensor(x), "sum").data
        monkeypatch.setattr(scatter, "ROUND_ELEMENTS", 1)
        again = ops.fused_scatter_gather(block, Tensor(x), "sum").data
        assert len(builds) == 2
        _same(again, first)


def _count_builds(monkeypatch):
    """Each plan the kernel builds for an aggregation, as (gather id,
    index id, width, weighted); a plain ``scatter_add_rows`` call (no
    gather) builds one for itself alone and is not counted."""
    builds = []
    build = scatter._plan

    def spy(gather, index, weights, num_inputs, num_rows, width, min_elements):
        if gather is not None:
            builds.append((id(gather), id(index), width, weights is not None))
        return build(gather, index, weights, num_inputs, num_rows, width, min_elements)

    monkeypatch.setattr(scatter, "_plan", spy)
    return builds


def test_hybrid_epochs_after_the_first_build_no_plan(monkeypatch):
    # The cut-over patched low so every layer-2 and layer-3 block of a
    # small graph is laid out by rounds.
    monkeypatch.setattr(scatter, "MIN_ELEMENTS", 0)
    monkeypatch.setattr(scatter, "ROUND_ELEMENTS", 16)
    g = generators.scaled_social(
        120, avg_degree=6.0, num_communities=4, hub_exponent=1.1, seed=0
    )
    generators.attach_features(g, 12, 4, seed=1, class_signal=0.6)
    graph = prepare_graph(g, "gcn")
    model = GNNModel.build(
        "gcn", graph.feature_dim, 16, graph.num_classes, num_layers=3, seed=0
    )
    engine = make_engine(
        "hybrid", graph, model, ClusterSpec.ecs(4), force_cache_fraction=0.5
    )
    builds = _count_builds(monkeypatch)
    per_epoch = []
    for _ in range(3):
        before = len(builds)
        engine.run_epoch()
        per_epoch.append(len(builds) - before)
    assert per_epoch[0] > 0 and per_epoch[1:] == [0, 0]
    # One build per (block, direction, width, weighted), never two.
    assert len(set(builds)) == len(builds)
