"""The tape skips adjoints nobody reads; parameter gradients do not move.

``Function.needs_input_grad`` lets ``backward`` return ``None`` for an
input that is off the tape (the constant edge-weight operand of every
GCN/GIN message multiply), and ``LayerExecutor.forward`` keeps layer-1
inputs -- raw features, or their memoised aggregate -- off the tape
altogether.  Both only remove
work whose result was discarded, so every parameter gradient must be
bit-identical to a run where each op still computes every adjoint.
"""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.engines import HybridEngine
from repro.execution.executor import LayerExecutor
from repro.graph.datasets import load_dataset
from repro.tensor.tensor import Function
from repro.training.prep import prepare_graph

ARCHS = ["gcn", "gin", "sage", "gat"]


def _epoch_grads(arch):
    """Parameter gradients left by one hybrid epoch on scaled cora."""
    graph = prepare_graph(load_dataset("cora", scale=0.2), arch)
    model = GNNModel.build(arch, graph.feature_dim, 8, graph.num_classes, seed=2)
    engine = HybridEngine(graph, model, ClusterSpec.ecs(4))
    loss = engine.run_epoch().loss
    return loss, [p.grad.copy() for p in model.parameters()]


def _force_every_adjoint(monkeypatch):
    """Every op recorded from now on believes all inputs need a gradient."""
    init = Function.__init__

    def forced(self, *inputs, **kwargs):
        init(self, *inputs, **kwargs)
        self.needs_input_grad = (True,) * len(inputs)

    monkeypatch.setattr(Function, "__init__", forced)


class TestParameterGradientsUnmoved:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_bit_identical_to_all_adjoints(self, arch, monkeypatch):
        loss, grads = _epoch_grads(arch)
        _force_every_adjoint(monkeypatch)
        loss_all, grads_all = _epoch_grads(arch)
        assert loss == loss_all
        assert len(grads) == len(grads_all) > 0
        for got, expected in zip(grads, grads_all):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)


class TestLayerOneInputsOffTheTape:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_feature_rows_get_no_gradient(self, arch, monkeypatch):
        captured = {}
        forward = LayerExecutor.forward

        def spy(self, plan, training):
            result = forward(self, plan, training)
            if training:
                captured["in_tensors"] = result[1]
            return result

        monkeypatch.setattr(LayerExecutor, "forward", spy)
        _epoch_grads(arch)
        layer1, layer2 = captured["in_tensors"]
        # A fused-reducer layer 1 starts from the memoised feature
        # aggregate and records no input tensor at all; GAT's feature
        # rows are recorded, off the tape.
        assert all(t is None for t in layer1) == (arch != "gat")
        assert all(
            t is None or (not t.requires_grad and t.grad is None)
            for t in layer1
        )
        # Layer-2 inputs are other workers' outputs: their gradient is
        # what PostToDepNbr routes, so it must still be there.
        assert all(t.requires_grad for t in layer2)
        assert any(t.grad is not None for t in layer2)
