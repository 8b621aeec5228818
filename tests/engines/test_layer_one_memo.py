"""Full-batch engines through the layer-1 feature-aggregate memo.

``LayerExecutor.forward`` used to gather ``features[input_vertices]``
and run ``layer.forward`` over it at layer 1 like at any other layer.
That body is kept here as the reference: with the executor entering
fused-reducer layers through
:class:`~repro.core.feature_aggregate.FeatureAggregateStore` instead,
every strategy must train to hex-identical losses -- cold store in
epoch 1, every row served from it afterwards.
"""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.engines import SharedMemoryEngine, make_engine
from repro.execution.executor import LayerExecutor
from repro.graph import generators
from repro.tensor import optim
from repro.tensor.tensor import Tensor, no_grad
from repro.training.prep import prepare_graph

ARCHS = ["gcn", "gin", "sage", "gat"]
ENGINES = [
    "depcache", "depcomm", "hybrid", "hybrid4", "tp", "roc", "shared-memory",
]
EPOCHS = 3


def reference_forward(self, plan, training):
    """The parent commit's ``LayerExecutor.forward``."""
    engine = self.engine
    m = engine.cluster.num_workers
    h_values = [[None] * m for _ in range(engine.num_layers + 1)]
    in_tensors = [[None] * m for _ in range(engine.num_layers)]
    out_tensors = [[None] * m for _ in range(engine.num_layers)]
    for l in range(1, engine.num_layers + 1):
        engine.accountant.charge_forward_layer(l)
        layer = engine.model.layer(l)
        tp = plan.is_tp_layer(l)
        for w in range(m):
            if tp and w > 0:
                h_values[l][w] = h_values[l][0]
                in_tensors[l - 1][w] = in_tensors[l - 1][0]
                out_tensors[l - 1][w] = out_tensors[l - 1][0]
                continue
            block = plan.blocks[l - 1][w]
            rows = self.gather_inputs(plan, h_values, l, w, block)
            h_in = Tensor(rows, requires_grad=training and l > 1)
            if training:
                out = layer.forward(block, h_in)
            else:
                with no_grad():
                    out = layer.forward(block, h_in)
            h_values[l][w] = out.data
            in_tensors[l - 1][w] = h_in
            out_tensors[l - 1][w] = out
        engine._sync()
    return h_values, in_tensors, out_tensors


def build(name, arch):
    g = generators.scaled_social(
        120, avg_degree=6.0, num_communities=4, hub_exponent=1.1, seed=0
    )
    generators.attach_features(g, 12, 4, seed=1, class_signal=0.8)
    graph = prepare_graph(g, arch)
    model = GNNModel.build(arch, graph.feature_dim, 8, graph.num_classes, seed=2)
    if name == "shared-memory":
        return SharedMemoryEngine(graph, model)
    engine = make_engine(name, graph, model, ClusterSpec.ecs(4))
    if name == "hybrid4":
        # Layer 1 itself tensor-parallel: worker 0 computes the
        # full-graph block once and the others alias it.
        engine._choose_tp_layers = lambda: [True, False]
    return engine


def train(engine):
    opt = optim.Adam(engine.model.parameters(), lr=0.01)
    losses = [engine.run_epoch(opt).loss.hex() for _ in range(EPOCHS)]
    return losses, engine.evaluate()


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("name", ENGINES)
def test_losses_hex_identical(name, arch, monkeypatch):
    try:
        got_engine = build(name, arch)
        got = train(got_engine)
    except NotImplementedError:
        got_engine, got = None, None  # ROC has no edge-associated NN ops
    monkeypatch.setattr(LayerExecutor, "forward", reference_forward)
    try:
        want = train(build(name, arch))
    except NotImplementedError:
        want = None
    assert got == want
    if got is None:
        pytest.skip(f"{name} cannot run {arch}")
    store = got_engine.feature_aggregates
    if arch == "gat":
        assert store.rows_served == 0
        return
    # Full-batch blocks hold every in-edge: all rows are served from
    # the store from the second forward on.
    first = sum(
        block.num_outputs
        for w, block in enumerate(got_engine.plan().blocks[0])
        if w == 0 or not got_engine.plan().is_tp_layer(1)
    )
    assert store.rows_served == first * (EPOCHS + 1)
    assert store.rows_memoised >= first * EPOCHS
    assert store._known.sum() == len(
        np.unique(np.concatenate(
            [b.compute_vertices for b in got_engine.plan().blocks[0]]
        ))
    )
