"""The layer-1 feature-aggregate memo against the chain it replaced.

``SampledTrainingEngine._forward_closure`` used to copy
``features[input_vertices]`` and run ``layer.forward`` over it at every
layer.  That chain is kept here as the reference: through
:class:`~repro.core.feature_aggregate.FeatureAggregateStore` every
closure's logits and every epoch loss must carry the same bits and the
same float dtype, for every sampler, with and without kappa-blocks,
warm store or cold.  The property the store relies on -- a bottom row
with as many edges as the vertex's in-degree lists exactly its CSC run,
in CSC order -- is checked over graphs, fanouts and kappa, and the
degenerate inputs get a case each.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.spec import ClusterSpec
from repro.core.blocks import build_block
from repro.core.feature_aggregate import FeatureAggregateStore
from repro.core.model import GNNModel
from repro.graph import generators
from repro.graph.graph import Graph
from repro.partition.base import Partitioning
from repro.sampling import SampledTrainingEngine
from repro.sampling.samplers import make_sampler
from repro.tensor import optim
from repro.tensor.tensor import Tensor, no_grad
from repro.training.prep import prepare_graph
import references

ARCHS = ["gcn", "gin", "sage", "gat"]
FANOUTS = (3, 4)


def reference_forward_closure(engine, closure, training):
    """The parent commit's ``_forward_closure`` body."""
    out = Tensor(
        engine.graph.features[closure.blocks[0].input_vertices],
        requires_grad=False,
    )
    for l in range(1, engine.num_layers + 1):
        layer = engine.model.layer(l)
        if training:
            out = layer.forward(closure.blocks[l - 1], out)
        else:
            with no_grad():
                out = layer.forward(closure.blocks[l - 1], out)
    return out


class Recording(SampledTrainingEngine):
    """Keeps every closure's logits."""

    reference = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.logits = []

    def _forward_closure(self, closure, training):
        if self.reference:
            out = reference_forward_closure(self, closure, training)
        else:
            out = super()._forward_closure(closure, training)
        self.logits.append(out.data.copy())
        return out


class Reference(Recording):
    reference = True


def social(arch, num_vertices=160, seed=0):
    g = generators.scaled_social(
        num_vertices, avg_degree=6.0, num_communities=4, hub_exponent=1.1,
        seed=seed,
    )
    generators.attach_features(g, 12, 4, seed=seed + 1, class_signal=0.8)
    return prepare_graph(g, arch)


def engine_of(cls, graph, arch, sampler="uniform", workers=2, **kwargs):
    kwargs.setdefault("fanouts", FANOUTS)
    kwargs.setdefault("batch_size", 16)
    model = GNNModel.build(
        arch, graph.feature_dim, 8, graph.num_classes, seed=2
    )
    return cls(
        graph, model, ClusterSpec.ecs(workers), sampler=sampler, seed=3,
        **kwargs,
    )


def run(engine, epochs=2):
    opt = optim.Adam(engine.model.parameters(), lr=0.01)
    losses = [engine.run_epoch(opt).loss for _ in range(epochs)]
    return losses, engine.evaluate()


def assert_same_run(got_engine, want_engine, epochs=2):
    got, want = run(got_engine, epochs), run(want_engine, epochs)
    assert [x.hex() for x in got[0]] == [x.hex() for x in want[0]]
    assert got[1] == want[1]
    assert len(got_engine.logits) == len(want_engine.logits) > 0
    for a, b in zip(got_engine.logits, want_engine.logits):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestSampledDifferential:
    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize(
        "sampler,kappa",
        [
            (sampler, kappa)
            for sampler in ["uniform", "labor", "ladies"]
            for kappa in [0.0, 4]
        ],
    )
    def test_logits_and_losses_bit_identical(self, sampler, kappa, arch):
        graph = social(arch)
        assert_same_run(
            engine_of(Recording, graph, arch, sampler, kappa=kappa),
            engine_of(Reference, graph, arch, sampler, kappa=kappa),
        )

    def test_stats_count_the_rows_served(self):
        graph = social("gcn")
        engine = engine_of(Recording, graph, "gcn")
        assert engine.last_epoch_stats is None
        run(engine, epochs=1)
        cold = engine.last_epoch_stats
        engine.run_epoch()
        warm = engine.last_epoch_stats
        assert 0 < cold["bottom_rows_memoised"] < cold["bottom_rows"]
        assert warm["bottom_rows_memoised"] > cold["bottom_rows_memoised"]
        assert warm["bottom_rows_memoised"] <= warm["bottom_rows"]
        # A timing-only epoch aggregates nothing.
        engine.charge_epoch()
        assert engine.last_epoch_stats["bottom_rows"] == 0
        assert engine.last_epoch_stats["bottom_rows_memoised"] == 0

    def test_set_up_builds_nothing(self):
        graph = social("gcn")
        engine = engine_of(SampledTrainingEngine, graph, "gcn")
        engine.plan()
        assert engine._feature_aggregates is None
        store = engine.feature_aggregates
        assert store._rows is None and store._known is None


# ----------------------------------------------------------------------
# (c) the property the store relies on
# ----------------------------------------------------------------------
@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 50),
    fanout=st.integers(1, 12),
    kappa=st.sampled_from([0, 1, 4]),
    sampler=st.sampled_from(["uniform", "labor", "ladies"]),
)
def test_full_rows_list_the_csc_run_in_order(seed, fanout, kappa, sampler):
    graph = social("gcn", num_vertices=96, seed=seed)
    engine = engine_of(
        SampledTrainingEngine, graph, "gcn", sampler, fanouts=(2, fanout),
        batch_size=8, kappa=kappa,
    )
    csc = graph.csc
    full_rows = 0
    for _, closures, _, _, _ in engine.rounds(shuffle=True):
        for closure in closures.values():
            block = closure.blocks[0]
            counts = np.bincount(block.edge_dst_pos, minlength=block.num_outputs)
            for row, v in enumerate(block.compute_vertices):
                lo, hi = csc.indptr[v], csc.indptr[v + 1]
                if counts[row] != hi - lo:
                    continue
                full_rows += 1
                listed = block.edge_ids[block.edge_dst_pos == row]
                assert np.array_equal(listed, csc.edge_ids[lo:hi])
                assert np.array_equal(
                    block.edge_src_global[block.edge_dst_pos == row],
                    csc.other[lo:hi],
                )
    assert full_rows > 0 or fanout < 4


# ----------------------------------------------------------------------
# (d) degenerate inputs
# ----------------------------------------------------------------------
def two_in_edges_everywhere(num_vertices=48):
    """Every vertex has exactly two in-edges and no self loop."""
    ids = np.arange(num_vertices, dtype=np.int64)
    src = np.concatenate([ids, ids])
    dst = np.concatenate([(ids + 1) % num_vertices, (ids + 5) % num_vertices])
    g = Graph(num_vertices, src, dst, name="two-in")
    return generators.attach_features(g, 6, 3, seed=1)


class TestDegenerateInputs:
    def test_fanout_above_max_degree_serves_everything_when_warm(self):
        graph = social("gcn")
        top = int(graph.csc.degrees().max())
        kwargs = {"fanouts": (top + 1, top + 1), "batch_size": 32}
        engine = engine_of(Recording, graph, "gcn", **kwargs)
        reference = engine_of(Reference, graph, "gcn", **kwargs)
        assert_same_run(engine, reference)
        engine.run_epoch()
        stats = engine.last_epoch_stats
        assert stats["bottom_rows_memoised"] == stats["bottom_rows"] > 0

    def test_fanout_one_keeps_the_store_empty(self):
        graph = two_in_edges_everywhere()
        kwargs = {"fanouts": (1, 1), "batch_size": 8}
        engine = engine_of(Recording, graph, "gin", **kwargs)
        assert_same_run(engine, engine_of(Reference, graph, "gin", **kwargs))
        store = engine.feature_aggregates
        assert store.rows_served > 0
        assert store.rows_memoised == 0
        assert not store._known.any()

    def test_untouched_rows_stay_unallocated(self):
        statm = "/proc/self/statm"
        try:
            open(statm).close()
        except OSError:
            pytest.skip("needs /proc/self/statm")

        def resident_bytes():
            with open(statm) as handle:
                return int(handle.read().split()[1]) * 4096

        n = 1 << 18  # a 64 MB feature matrix, itself never touched
        g = Graph(n, np.arange(64), np.arange(1, 65), name="wide")
        g.features = np.zeros((n, 64), dtype=np.float32)
        store = FeatureAggregateStore(g)
        before = resident_bytes()
        out = store.aggregate(build_block(g, np.arange(1, 65)), "weighted_sum")
        assert out.shape == (64, 64)
        assert store._known.sum() == 64
        assert store._rows.nbytes == 64 << 20
        assert resident_bytes() - before < 8 << 20

    @pytest.mark.parametrize("arch", ["gin", "sage"])
    def test_zero_in_degree_vertices(self, arch):
        g = references.star(10, inward=True)  # the leaves have no in-edge
        generators.attach_features(g, 5, 2, seed=0)
        layer = GNNModel.build(arch, 5, 4, 2, seed=1).layer(1)
        block = build_block(g, np.arange(g.num_vertices))
        want = layer.forward(block, Tensor(g.features[block.input_vertices]))
        store = FeatureAggregateStore(g)
        for _ in range(2):  # cold, then every row from the store
            got = store.forward(layer, block)
            assert got.data.dtype == want.data.dtype
            assert got.data.tobytes() == want.data.tobytes()
        assert store.rows_memoised == g.num_vertices
        assert not store._rows[1:].any()

    def test_worker_with_no_batch_this_round(self):
        graph = social("gcn")
        # Worker 1 owns two train vertices: one batch against worker
        # 0's many, so most rounds run without it.
        assignment = np.zeros(graph.num_vertices, dtype=np.int64)
        assignment[np.flatnonzero(graph.train_mask)[:2]] = 1
        kwargs = {"partitioning": Partitioning(assignment, 2)}
        engine = engine_of(Recording, graph, "gcn", **kwargs)
        sizes = [
            len(closures)
            for _, closures, _, _, _ in engine.rounds(False)
        ]
        assert min(sizes) == 1 and max(sizes) == 2
        assert_same_run(engine, engine_of(Reference, graph, "gcn", **kwargs))

    @pytest.mark.parametrize("arch", ["gcn", "sage"])
    def test_ladies_scaled_block_bypasses_the_store(self, arch):
        graph = social(arch)
        sampler = make_sampler("ladies", (2, 2), seed=0)
        seeds = np.flatnonzero(graph.train_mask)[:8]
        block = sampler.sample_batch(graph, {0: seeds})[0].blocks[0]
        assert block.edge_weight_rescaled
        # The rescale is applied in the weights' own dtype.
        assert block.edge_weight.dtype == graph.edge_weight.dtype == np.float32
        layer = GNNModel.build(
            arch, graph.feature_dim, 8, graph.num_classes, seed=2
        ).layer(1)
        want = layer.forward(
            block, Tensor(graph.features[block.input_vertices])
        )
        store = FeatureAggregateStore(graph)
        got = store.forward(layer, block)
        assert got.data.dtype == want.data.dtype
        assert got.data.tobytes() == want.data.tobytes()
        if arch == "gcn":
            assert got.data.dtype == np.float32
            assert store._rows is None and store.rows_memoised == 0

    def test_rescale_in_the_graphs_own_dtype_bypasses_too(self):
        graph = social("gcn")
        block = build_block(graph, np.arange(20))
        store = FeatureAggregateStore(graph)
        own = store.aggregate(block, "weighted_sum")
        assert store._known[:20].all()
        block.edge_weight = block.edge_weight * np.float32(2.0)
        block.edge_weight_rescaled = True
        doubled = store.aggregate(block, "weighted_sum")
        assert doubled.dtype == own.dtype
        assert np.array_equal(doubled, own * np.float32(2.0))
        assert store.rows_memoised == 0


class TestInvalidation:
    def test_new_feature_or_weight_arrays_empty_the_store(self):
        graph = social("gcn")
        layer = GNNModel.build(
            "gcn", graph.feature_dim, 8, graph.num_classes, seed=2
        ).layer(1)
        store = FeatureAggregateStore(graph)
        block = build_block(graph, np.arange(30))
        first = store.forward(layer, block).data
        assert store._known.sum() == 30

        graph.features = graph.features * np.float32(0.5)
        graph.__dict__.pop("_block_cache", None)
        want = layer.forward(
            block, Tensor(graph.features[block.input_vertices])
        ).data
        got = store.forward(layer, block).data
        assert got.tobytes() == want.tobytes() != first.tobytes()
        assert store.rows_memoised == 0

        graph.edge_weight = graph.edge_weight.copy()
        assert store.forward(layer, block).data.tobytes() == want.tobytes()
        assert store.rows_memoised == 0
        assert store.forward(layer, block).data.tobytes() == want.tobytes()
        assert store.rows_memoised == 30
