"""Eq. 1 (t_r) and Eq. 2 (t_c): subtree walks and exclusions."""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.costmodel.costs import DependencyCostModel
from repro.costmodel.probe import probe_constants
from repro.graph import generators
import references


@pytest.fixture
def setup():
    g = generators.chain(6)  # 0 -> 1 -> ... -> 5
    model = GNNModel.gcn(8, 4, 2)
    constants = probe_constants(ClusterSpec.ecs(2), model)
    owned = np.zeros(6, dtype=bool)
    owned[[4, 5]] = True
    cm = DependencyCostModel(g, model.dims(), constants, owned, mu=1.0)
    return g, model, constants, cm


class TestTr:
    def test_layer1_dep_costs_no_compute(self, setup):
        g, model, constants, cm = setup
        m = cm.t_r(3, layer=1)
        assert m.cost_s == 0.0  # features are cached, not recomputed
        assert m.memory_bytes > 0  # but they do take space

    def test_layer2_dep_chain(self, setup):
        g, model, constants, cm = setup
        # Caching dep 3 at layer 2 => recompute h^1(3) from 2's feature:
        # 1 vertex op + 1 edge op at layer 1.
        m = cm.t_r(3, layer=2)
        expected = constants.vertex_cost(1) + constants.edge_cost(1)
        assert m.cost_s == pytest.approx(expected)
        assert m.new_edge_count == 1

    def test_owned_vertices_excluded(self, setup):
        g, model, constants, cm = setup
        # Dep 5's subtree is entirely owned: no redundant work.
        m = cm.t_r(5, layer=2)
        assert m.cost_s == 0.0

    def test_commit_prevents_double_counting(self, setup):
        g, model, constants, cm = setup
        first = cm.t_r(3, layer=2)
        cm.commit(3, 2, first)
        again = cm.t_r(3, layer=2)
        assert again.cost_s == 0.0

    def test_overlapping_subtrees_share(self, setup):
        g, model, constants, cm = setup
        # Vertices 3 and 2 chain: caching 3 first makes 2's feature cached.
        m3 = cm.t_r(3, layer=2)
        cm.commit(3, 2, m3)
        m2 = cm.t_r(2, layer=2)
        # 2's subtree: recompute h^1(2) needing feature of 1 (new).
        assert m2.cost_s == pytest.approx(
            constants.vertex_cost(1) + constants.edge_cost(1)
        )

    def test_mu_scales_cost(self, setup):
        g, model, constants, cm = setup
        half = DependencyCostModel(
            g, model.dims(), constants, cm.owned_mask, mu=0.5
        )
        assert half.t_r(3, 2).cost_s == pytest.approx(0.5 * cm.t_r(3, 2).cost_s)

    def test_mu_validation(self, setup):
        g, model, constants, cm = setup
        with pytest.raises(ValueError):
            DependencyCostModel(g, model.dims(), constants, cm.owned_mask, mu=0.0)

    def test_star_dep_counts_all_in_edges(self):
        g = references.star(4, inward=True)  # 1..4 -> 0
        model = GNNModel.gcn(8, 4, 2)
        constants = probe_constants(ClusterSpec.ecs(2), model)
        owned = np.zeros(5, dtype=bool)  # nothing owned
        cm = DependencyCostModel(g, model.dims(), constants, owned, mu=1.0)
        m = cm.t_r(0, layer=2)
        assert m.new_edge_count == 4
        assert m.cost_s == pytest.approx(
            constants.vertex_cost(1) + 4 * constants.edge_cost(1)
        )


class TestTc:
    def test_matches_probe(self, setup):
        g, model, constants, cm = setup
        assert cm.t_c(1) == constants.comm_cost(1)
        assert cm.t_c(2) == constants.comm_cost(2)
