"""Every block stores its edges as runs, and derives the rest on read.

For every builder -- :func:`build_block`, :func:`closure_block` and
each sampler's blocks, LADIES' reweighted ones included -- a block's
edges are grouped by destination row, rows ascending, and each field
that is derived on first read equals its eager formula.  A
fused-reducer sampled epoch reads its bottom blocks only through the
layer-1 feature store, so it never derives their positions or weights.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.spec import ClusterSpec
from repro.core.blocks import build_block, closure_block
from repro.core.model import GNNModel
from repro.graph.graph import Graph
from repro.sampling import SAMPLER_NAMES, SampledTrainingEngine, make_sampler
from repro.tensor import optim
from repro.training.prep import prepare_graph

DERIVED = ("edge_src_pos", "edge_dst_pos", "edge_weight", "compute_pos_in_inputs")


def _assert_runs(graph, block, weight_scale=None):
    """Runs by destination row, and every derived field as computed
    eagerly; ``weight_scale`` is a reweighting folded into the weights."""
    counts = block.edge_counts
    assert len(counts) == block.num_outputs and counts.min(initial=0) >= 0
    assert counts.sum() == block.num_edges == len(block.edge_src_global)
    rows = np.repeat(np.arange(block.num_outputs), counts)
    # Grouped by destination row, rows ascending, each edge an in-edge
    # of its row's vertex from its recorded source.
    assert np.array_equal(graph.dst[block.edge_ids], block.compute_vertices[rows])
    assert np.array_equal(graph.src[block.edge_ids], block.edge_src_global)
    assert np.array_equal(block.edge_dst_pos, rows)
    inputs = block.input_vertices
    assert np.array_equal(block.edge_src_pos, inputs.searchsorted(block.edge_src_global))
    assert np.array_equal(
        block.compute_pos_in_inputs, inputs.searchsorted(block.compute_vertices)
    )
    weight = graph.edge_weight[block.edge_ids]
    if weight_scale is not None:
        weight = weight * weight_scale
    assert block.edge_weight.dtype == weight.dtype
    assert block.edge_weight.tobytes() == weight.tobytes()
    for name in DERIVED:
        assert getattr(block, name).dtype == (
            weight.dtype if name == "edge_weight" else np.int64
        )


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    m = draw(st.integers(min_value=0, max_value=6 * n))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    weights = draw(st.lists(
        st.floats(min_value=0.0625, max_value=4.0, width=32), min_size=m, max_size=m,
    ))
    return Graph(n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
                 edge_weight=np.array(weights, dtype=np.float32))


def _subset(draw, n):
    ids = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return np.sort(np.array(ids, dtype=np.int64))


@settings(max_examples=80, deadline=None)
@given(graph=graphs(), data=st.data())
def test_full_and_closure_blocks_are_runs(graph, data):
    compute = _subset(data.draw, graph.num_vertices)
    in_edges = graph.csc.select(compute)
    inputs = np.union1d(compute, in_edges[1])
    for block in (build_block(graph, compute), closure_block(graph, compute, inputs, in_edges)):
        assert np.array_equal(block.input_vertices, inputs)
        _assert_runs(graph, block)


def _spy_on_samples(sampler):
    """Record the ``LayerSample`` list each layer of ``sample_batch``
    builds its blocks from (top layer first)."""
    layers = []
    sample_layer = sampler._sample_layer

    def spy_layer(*args, **kwargs):
        samples = sample_layer(*args, **kwargs)
        layers.append(samples)
        return samples

    sampler._sample_layer = spy_layer
    return layers


@settings(max_examples=60, deadline=None)
@given(
    graph=graphs(),
    name=st.sampled_from(SAMPLER_NAMES),
    num_workers=st.integers(1, 3),
    data=st.data(),
)
def test_sampled_blocks_are_runs(graph, name, num_workers, data):
    sampler = make_sampler(name, (2, 3), seed=data.draw(st.integers(0, 3)))
    layers = _spy_on_samples(sampler)
    for batch in range(3):
        seeds = {w: _subset(data.draw, graph.num_vertices) for w in range(num_workers)}
        layers.clear()
        closures = sampler.sample_batch(graph, seeds, epoch=1, batch=batch)
        assert len(layers) == 2
        for w, closure in closures.items():
            for l, block in enumerate(closure.blocks):
                src, counts, eids, scale = layers[len(layers) - 1 - l][w]
                assert np.array_equal(block.edge_counts, counts)
                assert np.array_equal(block.edge_ids, eids)
                # A rescale always comes with kept edges to rescale.
                assert scale is None or len(eids) > 0
                assert block.edge_weight_rescaled == (scale is not None)
                _assert_runs(graph, block, scale)


@pytest.mark.parametrize("name", SAMPLER_NAMES)
def test_a_fused_reducer_epoch_never_derives_bottom_positions(small_graph, name):
    graph = prepare_graph(small_graph, "gcn")
    model = GNNModel.gcn(graph.feature_dim, 12, graph.num_classes, seed=1)
    assert model.layer(1).fused_reducer()
    engine = SampledTrainingEngine(
        graph, model, ClusterSpec.ecs(2), fanouts=(3, 5), batch_size=8,
        sampler=name, kappa=2,
    )
    seen = []
    train_round = engine._train_round

    def keep_closures(closures, optimizer, total):
        seen.extend(closures.values())
        return train_round(closures, optimizer, total)

    engine._train_round = keep_closures
    opt = optim.Adam(model.parameters(), lr=0.01)
    for _ in range(2):
        engine.run_epoch(opt)
    assert seen
    for closure in seen:
        bottom, top = closure.blocks
        assert "edge_src_pos" not in vars(bottom)
        assert "compute_pos_in_inputs" not in vars(bottom)
        # Only a LADIES rescale writes the bottom block's weights.
        assert ("edge_weight" in vars(bottom)) == bottom.edge_weight_rescaled
        assert "edge_src_pos" in vars(top)
