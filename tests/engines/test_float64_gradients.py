"""A float64 model keeps float64 between layers on the full-batch engines.

Training is float32 end to end, but gradcheck and the golden's float64
reference run a float64 model through the same executor.  Its
inter-layer rows (``gather_inputs``) and gradient accumulators
(``accumulate``) once were float32 whatever the model's dtype, which
rounded every layer boundary to float32 (about 1e-7 relative on the
parameter gradients).
"""

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.core.blocks import build_block
from repro.core.model import GNNModel
from repro.engines import make_engine
from repro.execution.executor import LayerExecutor
from repro.graph.datasets import load_dataset
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from repro.training.prep import prepare_graph


def _model64(graph):
    model = GNNModel.build("gcn", graph.feature_dim, 8, graph.num_classes, seed=1)
    for p in model.parameters():
        p.data = p.data.astype(np.float64)
    return model


def _whole_graph_grads(graph):
    """One block over every vertex per layer, then the train-mask loss."""
    model = _model64(graph)
    block = build_block(graph, np.arange(graph.num_vertices))
    h = Tensor(graph.features[block.input_vertices])
    for l in range(1, model.num_layers + 1):
        h = model.layer(l).forward(block, h)
    train = np.flatnonzero(graph.train_mask)
    F.cross_entropy(h[train], graph.labels[train]).backward()
    return [p.grad for p in model.parameters()]


def test_hybrid_backward_matches_whole_graph_float64(monkeypatch):
    graph = prepare_graph(load_dataset("cora", scale=0.1, seed=0), "gcn")
    engine = make_engine("hybrid", graph, _model64(graph), ClusterSpec.ecs(2))
    accumulators = []
    accumulate = LayerExecutor.accumulate

    def recording(self, plan, grad_acc, layer_idx, worker, positions, rows):
        accumulate(self, plan, grad_acc, layer_idx, worker, positions, rows)
        accumulators.extend(a for a in grad_acc[layer_idx] if a is not None)

    monkeypatch.setattr(LayerExecutor, "accumulate", recording)
    engine.run_epoch()  # no optimizer: the gradients stay to be read
    assert accumulators
    assert all(a.dtype == np.float64 for a in accumulators)
    expected = _whole_graph_grads(graph)
    got = [p.grad for p in engine.model.parameters()]
    assert len(got) == len(expected) > 0
    for g, e in zip(got, expected):
        assert g.dtype == np.float64
        assert np.abs(g - e).max() <= 1e-10 * np.abs(e).max()
