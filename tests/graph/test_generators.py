"""Synthetic generators: determinism, shapes, structural properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import generators
from repro.partition.chunk import chunk_partition


class TestDeterminism:
    @pytest.mark.parametrize("make", [
        lambda s: generators.rmat(128, 512, seed=s),
        lambda s: generators.erdos_renyi(100, 300, seed=s),
        lambda s: generators.locality_graph(128, 512, seed=s),
        lambda s: generators.community(60, 4, 6.0, seed=s),
        lambda s: generators.citation(80, seed=s),
    ])
    def test_same_seed_same_graph(self, make):
        a, b = make(7), make(7)
        assert np.array_equal(a.src, b.src)
        assert np.array_equal(a.dst, b.dst)

    def test_different_seed_different_graph(self):
        a = generators.rmat(128, 512, seed=1)
        b = generators.rmat(128, 512, seed=2)
        assert not (
            np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)
        )


class TestCleanliness:
    @pytest.mark.parametrize("g", [
        generators.rmat(64, 256, seed=0),
        generators.erdos_renyi(64, 200, seed=0),
        generators.locality_graph(64, 256, seed=0),
        generators.community(64, 4, 5.0, seed=0),
    ])
    def test_no_self_loops_no_duplicates(self, g):
        assert (g.src != g.dst).all()
        pairs = set(zip(g.src.tolist(), g.dst.tolist()))
        assert len(pairs) == g.num_edges


def _dedup_by_unique(src, dst):
    """``generators._dedup`` as it was: the ``np.unique`` form, kept as
    the reference for the packed-key sort that replaced it."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    combined = src.astype(np.int64) * (dst.max() + 1 if len(dst) else 1) + dst
    _, unique_idx = np.unique(combined, return_index=True)
    unique_idx.sort()
    return src[unique_idx], dst[unique_idx]


class TestDedup:
    @staticmethod
    def _same(src, dst):
        got = generators._dedup(src, dst)
        expected = _dedup_by_unique(src, dst)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype
            assert np.array_equal(g, e)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        num_vertices=st.integers(1, 60),
        num_edges=st.integers(0, 400),
    )
    def test_random_coo(self, seed, num_vertices, num_edges):
        rng = np.random.default_rng(seed)
        self._same(
            rng.integers(0, num_vertices, size=num_edges),
            rng.integers(0, num_vertices, size=num_edges),
        )

    def test_empty_input(self):
        empty = np.zeros(0, dtype=np.int64)
        self._same(empty, empty)

    def test_all_self_loops(self):
        ids = np.arange(50)
        self._same(ids, ids.copy())
        assert len(generators._dedup(ids, ids.copy())[0]) == 0

    def test_all_duplicates_keep_the_first(self):
        src, dst = np.full(40, 3), np.full(40, 9)
        self._same(src, dst)
        assert generators._dedup(src, dst)[0].tolist() == [3]

    def test_first_copy_stays_in_input_order(self):
        src = np.array([5, 1, 5, 0, 1, 5])
        dst = np.array([2, 4, 2, 3, 4, 0])
        kept_src, kept_dst = generators._dedup(src, dst)
        assert kept_src.tolist() == [5, 1, 0, 5]
        assert kept_dst.tolist() == [2, 4, 3, 0]

    def test_keys_too_wide_to_pack_fall_back(self, monkeypatch):
        # Vertex ids near 2**28 make a 56-bit key: with the position's
        # bits it no longer fits, so the np.unique form must run.
        calls = []
        real = np.unique
        monkeypatch.setattr(
            generators.np, "unique",
            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs),
        )
        rng = np.random.default_rng(0)
        src = rng.integers(2**28 - 50, 2**28, size=300)
        dst = rng.integers(2**28 - 50, 2**28, size=300)
        got = generators._dedup(src, dst)
        assert calls == [1]
        monkeypatch.undo()
        expected = _dedup_by_unique(src, dst)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))
        # ... and a graph-sized input does not.
        monkeypatch.setattr(
            generators.np, "unique",
            lambda *args, **kwargs: calls.append(2) or real(*args, **kwargs),
        )
        generators._dedup(src % 1000, dst % 1000)
        assert calls == [1]


class TestShapes:
    def test_ring(self):
        g = generators.ring(5)
        assert g.num_edges == 5
        assert (g.in_degrees() == 1).all()

    def test_chain(self):
        g = generators.chain(5)
        assert g.num_edges == 4
        assert g.in_degrees()[0] == 0

    def test_star_inward(self):
        g = generators.star(4, inward=True)
        assert g.in_degrees()[0] == 4

    def test_star_outward(self):
        g = generators.star(4, inward=False)
        assert g.out_degrees()[0] == 4

    def test_complete(self):
        g = generators.complete(4)
        assert g.num_edges == 12
        assert (g.in_degrees() == 3).all()

    def test_citation_is_acyclic(self):
        g = generators.citation(50, seed=1)
        # Citation edges point new -> old, so src > dst always.
        assert (g.src > g.dst).all()

    def test_citation_preferential_attachment_skews(self):
        g = generators.citation(300, avg_degree=3.0, seed=1)
        deg = g.in_degrees()
        assert deg.max() >= 3 * max(deg.mean(), 1)


class TestLocalityModel:
    def test_locality_reduces_chunk_edge_cut(self):
        local = generators.locality_graph(
            400, 2000, locality_width=0.005, global_fraction=0.05, seed=0
        )
        scattered = generators.locality_graph(
            400, 2000, locality_width=0.2, global_fraction=0.8, seed=0
        )
        cut_local = chunk_partition(local, 4).edge_cut_fraction(local)
        cut_scattered = chunk_partition(scattered, 4).edge_cut_fraction(scattered)
        assert cut_local < cut_scattered / 2

    def test_hub_exponent_skews_out_degree(self):
        flat = generators.locality_graph(
            300, 3000, global_fraction=1.0, hub_exponent=0.0, seed=0
        )
        skewed = generators.locality_graph(
            300, 3000, global_fraction=1.0, hub_exponent=1.2, seed=0
        )
        assert skewed.out_degrees().max() > 2 * flat.out_degrees().max()

    def test_global_fraction_validation(self):
        with pytest.raises(ValueError):
            generators.locality_graph(10, 20, global_fraction=1.5)


class TestCommunity:
    def test_membership_attached(self):
        g = generators.community(40, 4, 5.0, seed=0)
        assert len(g.communities) == 40
        assert set(g.communities.tolist()) == {0, 1, 2, 3}

    def test_homophily(self):
        g = generators.community(120, 4, 10.0, intra_fraction=0.9, seed=0)
        same = (g.communities[g.src] == g.communities[g.dst]).mean()
        assert same > 0.6  # well above the 0.25 random baseline

    def test_dense_target_roughly_met(self):
        # Oversampling loop should get close to the dense target.
        g = generators.community(100, 4, 40.0, seed=0)
        assert g.avg_degree > 25

    def test_needs_communities(self):
        with pytest.raises(ValueError):
            generators.community(10, 0, 2.0)


class TestAttachFeatures:
    def test_community_labels_follow_membership(self):
        g = generators.community(40, 4, 5.0, seed=0)
        generators.attach_features(g, 8, 4, seed=1)
        assert np.array_equal(g.labels, g.communities % 4)

    def test_class_signal_learnable(self):
        g = generators.community(200, 4, 8.0, seed=0)
        generators.attach_features(g, 16, 4, seed=1, class_signal=3.0)
        # Class means should separate: same-class feature distance smaller.
        means = np.stack([g.features[g.labels == c].mean(axis=0) for c in range(4)])
        spread = np.linalg.norm(means[0] - means[1])
        assert spread > 1.0

    def test_masks_created(self):
        g = generators.community(40, 4, 5.0, seed=0)
        generators.attach_features(g, 8, 4, seed=1)
        assert g.train_mask is not None and g.train_mask.any()

    def test_random_labels_without_communities(self):
        g = generators.erdos_renyi(50, 100, seed=0)
        generators.attach_features(g, 8, 5, seed=1)
        assert g.labels.min() >= 0 and g.labels.max() < 5
