"""Dataset catalog (Table 2, scaled)."""

import gc
import tracemalloc
import weakref
from collections import OrderedDict

import numpy as np
import pytest

from repro.graph import datasets
from repro.graph.datasets import DATASETS, load_dataset, resolve_name, spec_of
from repro.training.prep import prepare_graph


class TestCatalog:
    def test_all_table2_rows_present(self):
        expected = {
            "google", "pokec", "livejournal", "reddit", "orkut",
            "wiki", "twitter", "cora", "citeseer", "pubmed",
        }
        assert expected <= set(DATASETS)
        # Non-Table-2 entries are synthetic graphs for the sampling
        # benchmarks (social-large) and the tensor-parallel crossover
        # sweep's degree-skew endpoints, not paper rows.
        assert set(DATASETS) - expected == {
            "social-large", "social-flat", "social-skewed"
        }

    def test_specs_have_paper_fields(self):
        for spec in DATASETS.values():
            assert spec.paper_vertices
            assert spec.paper_num_vertices > 0
            assert spec.hidden_dim > 0

    def test_aliases(self):
        assert resolve_name("Goo") == "google"
        assert resolve_name("wiki-link") == "wiki"
        assert resolve_name("REDDIT") == "reddit"

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            load_dataset("imaginary")

    def test_spec_of(self):
        assert spec_of("liv").name == "livejournal"


class TestLoading:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_loads_with_features_labels_masks(self, name):
        g = load_dataset(name, scale=0.1)
        spec = DATASETS[name]
        assert g.features is not None
        assert g.features.shape[1] == spec.feature_dim
        assert g.num_classes == spec.num_labels
        assert g.train_mask.any() and g.test_mask.any()

    def test_scale_reduces_size(self):
        full = load_dataset("google")
        half = load_dataset("google", scale=0.5)
        assert half.num_vertices < full.num_vertices

    @pytest.mark.parametrize("scale", [0, -1, float("nan"), float("inf")])
    def test_bad_scale_raises(self, scale):
        with pytest.raises(
            ValueError, match=f"scale must be a positive finite number, got {float(scale)}$"
        ):
            load_dataset("cora", scale=scale)

    def test_tiny_scale_gives_the_floor_graph(self):
        assert load_dataset("cora", scale=1e-9).num_vertices == 16

    def test_cache_returns_same_object(self):
        assert load_dataset("cora", scale=0.2) is load_dataset("cora", scale=0.2)

    def test_seed_changes_graph(self):
        a = load_dataset("pokec", scale=0.1, seed=0)
        b = load_dataset("pokec", scale=0.1, seed=1)
        assert not np.array_equal(a.src, b.src)

    def test_reddit_is_homophilous(self):
        # Random baseline for 8 classes would be 0.125; label noise and
        # intra-pair saturation at small scale cap it well below 0.9.
        g = load_dataset("reddit", scale=0.5)
        same = (g.labels[g.src] == g.labels[g.dst]).mean()
        assert same > 0.35

    def test_degrees_roughly_match_spec(self):
        for name in ["pokec", "orkut", "wiki"]:
            g = load_dataset(name)
            spec = DATASETS[name]
            assert g.avg_degree == pytest.approx(spec.avg_degree, rel=0.15)


def _array_bytes(graph):
    return sum(value.nbytes for value in vars(graph).values()
               if isinstance(value, np.ndarray))


class TestMemo:
    @pytest.fixture
    def bound(self, monkeypatch):
        """An empty memo whose bound fits one ``cora`` at scale 0.2 and
        not two."""
        monkeypatch.setattr(datasets, "_memo", OrderedDict())
        bound = int(1.5 * _array_bytes(datasets._build("cora", 0.2, 0)))
        monkeypatch.setattr(datasets, "_MEMO_BYTES", bound)
        return bound

    def test_loading_past_the_bound_releases_the_oldest(self, bound):
        oldest = weakref.ref(load_dataset("cora", scale=0.2, seed=0))
        load_dataset("cora", scale=0.2, seed=1)
        gc.collect()
        assert oldest() is None
        assert list(datasets._memo) == [("cora", 0.2, 1)]

    def test_held_bytes_stay_within_the_bound(self, bound):
        for seed in (0, 1, 2, 0, 3):
            load_dataset("cora", scale=0.2, seed=seed)
            assert datasets._memo_bytes() <= bound
        # Small graphs share the room with it, least recent out first.
        load_dataset("pubmed", scale=0.05)
        load_dataset("cora", scale=0.01)
        assert list(datasets._memo)[-2:] == [
            ("pubmed", 0.05, 0), ("cora", 0.01, 0)
        ]
        assert datasets._memo_bytes() <= bound

    def test_a_hit_refreshes_recency(self, bound):
        tiny = load_dataset("cora", scale=0.01)
        load_dataset("cora", scale=0.2, seed=0)
        assert load_dataset("cora", scale=0.01) is tiny
        load_dataset("cora", scale=0.2, seed=1)
        assert load_dataset("cora", scale=0.01) is tiny

    def test_a_graph_over_the_bound_alone_is_kept(self, bound, monkeypatch):
        monkeypatch.setattr(datasets, "_MEMO_BYTES", 1)
        g = load_dataset("cora", scale=0.2, seed=5)
        assert datasets._memo_bytes() > datasets._MEMO_BYTES
        assert load_dataset("cora", scale=0.2, seed=5) is g

    def test_an_evicted_key_regenerates_the_same_bytes(self, bound):
        first = load_dataset("cora", scale=0.2, seed=0)
        before = {name: (value.dtype, value.shape, value.tobytes())
                  for name, value in vars(first).items()
                  if isinstance(value, np.ndarray)}
        del first
        load_dataset("cora", scale=0.2, seed=1)
        again = load_dataset("cora", scale=0.2, seed=0)
        after = {name: (value.dtype, value.shape, value.tobytes())
                 for name, value in vars(again).items()
                 if isinstance(value, np.ndarray)}
        assert after == before

    def test_one_social_large_fits_and_two_do_not(self, monkeypatch):
        monkeypatch.setattr(datasets, "_memo", OrderedDict())
        one = _array_bytes(load_dataset("social-large", seed=0))
        assert one <= datasets._MEMO_BYTES < 2 * one
        load_dataset("social-large", seed=1)
        assert list(datasets._memo) == [("social-large", 1.0, 1)]


def test_generation_peak_stays_near_what_it_keeps():
    """One cold ``social-large`` (``scaled_social``, ``attach_features``
    and ``prepare_graph``) peaks at 1.59x the bytes the prepared graph
    keeps; the generators' throwaway copies once took it to 3.0x, and
    one more edge-long int64 array would add 0.22x."""
    tracemalloc.start()
    try:
        graph = prepare_graph(datasets._build("social-large", 1.0, 0), "gcn")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.7 * _array_bytes(graph), (peak, _array_bytes(graph))
