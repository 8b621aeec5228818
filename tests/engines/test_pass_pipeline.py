"""Golden-parity and cost properties of the optimizer pass pipeline.

Every registered pass is annotation-only IR surgery: with a pass
enabled the trained losses and predictions must stay **bit-identical**
to the pass-off run of the same seeded scenario, while the charged
wall-clock never increases.  The fuse-scatter-gather pass additionally
rewires the worker step tuples, so its structural effect on the IR is
pinned too (the overlap pass has its own properties in
``test_overlap_pass.py``).
"""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.engines import HybridEngine
from repro.execution import PASS_REGISTRY
from repro.graph import generators
from repro.sampling.engine import SampledTrainingEngine
from repro.tensor import optim
from repro.training.prep import prepare_graph

PASSES = ["fuse-scatter-gather"]
ARCHS = ["gcn", "gin", "sage"]


def _engine(arch, passes, cls=HybridEngine, num_workers=2, **kwargs):
    g = generators.community(64, 4, avg_degree=8.0, seed=3)
    generators.attach_features(g, 16, 4, seed=4, class_signal=2.0)
    graph = prepare_graph(g, arch)
    model = GNNModel.build(arch, graph.feature_dim, 8, graph.num_classes, seed=2)
    return cls(
        graph, model, ClusterSpec.ecs(num_workers),
        program_passes=passes, **kwargs,
    )


def _train(engine, epochs=3):
    opt = optim.Adam(engine.model.parameters(), lr=0.01)
    losses = [engine.run_epoch(opt).loss for _ in range(epochs)]
    params = [p.data.copy() for p in engine.model.parameters()]
    return losses, params


class TestPassParity:
    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("name", PASSES)
    def test_losses_and_params_bit_identical(self, arch, name):
        losses_off, params_off = _train(_engine(arch, None))
        losses_on, params_on = _train(_engine(arch, (name,)))
        assert losses_on == losses_off
        for a, b in zip(params_on, params_off):
            assert np.array_equal(a, b)

    def test_all_passes_together_bit_identical(self):
        losses_off, params_off = _train(_engine("gcn", None))
        losses_on, params_on = _train(_engine("gcn", tuple(PASS_REGISTRY)))
        assert losses_on == losses_off
        for a, b in zip(params_on, params_off):
            assert np.array_equal(a, b)

    def test_sampled_engine_bit_identical(self):
        losses_off, _ = _train(
            _engine("sage", None, cls=SampledTrainingEngine, seed=5)
        )
        losses_on, _ = _train(
            _engine(
                "sage", tuple(PASS_REGISTRY), cls=SampledTrainingEngine, seed=5
            )
        )
        assert losses_on == losses_off


class TestPassCost:
    @pytest.mark.parametrize("name", PASSES)
    def test_epoch_wall_clock_monotone(self, name):
        t_off = _engine("gcn", None, num_workers=4).charge_epoch()
        t_on = _engine("gcn", (name,), num_workers=4).charge_epoch()
        assert t_on <= t_off + 1e-12

    def test_fuse_discounts_sparse_time(self):
        t_off = _engine("gcn", None, num_workers=4).charge_epoch()
        t_on = _engine(
            "gcn", ("fuse-scatter-gather",), num_workers=4
        ).charge_epoch()
        assert t_on < t_off


class TestPassStructure:
    def test_fused_steps_in_ir(self):
        engine = _engine("gcn", ("fuse-scatter-gather",))
        engine.plan()
        program = engine.program_
        assert "fuse-scatter-gather" in program.passes
        for lp in program.layers:
            assert lp.fused_reducer == "weighted_sum"
            for wp in lp.workers:
                kinds = [s.kind for s in wp.steps]
                assert kinds == [
                    "get_from_dep_nbr", "fused_scatter_gather",
                    "vertex_forward",
                ]
                assert "edge_forward" not in kinds

    def test_attention_layers_not_fused(self):
        engine = _engine("gat", ("fuse-scatter-gather",))
        engine.plan()
        for lp in engine.program_.layers:
            assert lp.fused_reducer is None
            assert len(lp.workers[0].steps) == 5

    def test_unknown_pass_name_rejected(self):
        with pytest.raises(ValueError, match="unknown program pass"):
            _engine("gcn", ("loop-unroll",)).plan()
