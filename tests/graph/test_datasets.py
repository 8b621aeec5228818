"""Dataset catalog (Table 2, scaled)."""

import numpy as np
import pytest

from repro.graph.datasets import DATASETS, load_dataset, resolve_name, spec_of


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
