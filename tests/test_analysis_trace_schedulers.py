"""Analysis reports and Chrome trace export."""

import json

import numpy as np
import pytest

from repro.analysis import (
    analyze_dependencies,
    analyze_graph,
    gini,
    recommend_strategy,
)
from repro.cluster.timeline import Timeline
from repro.cluster.trace import save_chrome_trace, timeline_to_chrome_trace
from repro.graph import generators
from repro.partition.chunk import chunk_partition
import references


class TestGini:
    def test_uniform_is_zero(self):
        assert gini(np.ones(10)) == pytest.approx(0.0, abs=1e-9)

    def test_concentrated_is_high(self):
        values = np.zeros(100)
        values[0] = 100.0
        assert gini(values) > 0.9

    def test_empty(self):
        assert gini(np.array([])) == 0.0


class TestGraphReport:
    def test_local_graph_high_locality(self):
        g = generators.locality_graph(300, 1500, locality_width=0.005,
                                      global_fraction=0.02, seed=0)
        report = analyze_graph(g)
        assert report.chunk_locality > 0.8
        assert report.num_edges == g.num_edges

    def test_random_graph_low_locality(self):
        g = generators.erdos_renyi(300, 1500, seed=0)
        assert analyze_graph(g).chunk_locality < 0.3

    def test_hub_graph_high_gini(self):
        star = references.star(100, inward=True)
        flat = generators.ring(100)
        assert analyze_graph(star).degree_gini > analyze_graph(flat).degree_gini

class TestDependencyReport:
    def test_fields_consistent(self, medium_graph):
        p = chunk_partition(medium_graph, 4)
        report = analyze_dependencies(medium_graph, p, num_layers=2, dim=8)
        assert report.num_workers == 4
        assert len(report.remote_deps_per_worker) == 4
        assert report.comm_bytes_per_layer == sum(
            report.remote_deps_per_worker) * 8 * 4
        assert 1.0 <= report.replication_factor <= 4.0

    def test_recommendations_follow_structure(self):
        local = generators.locality_graph(
            300, 900, locality_width=0.004, global_fraction=0.01, seed=0
        )
        dense = references.complete(40)
        assert recommend_strategy(local, chunk_partition(local, 4)) == "depcache"
        assert recommend_strategy(dense, chunk_partition(dense, 4)) == "depcomm"


class TestChromeTrace:
    def test_events_and_metadata(self):
        tl = Timeline(2)
        tl.advance(0, "gpu", 1.0)
        tl.advance(1, "net_recv", 0.5, num_bytes=128)
        trace = timeline_to_chrome_trace(tl)
        kinds = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(kinds) == 2
        recv = next(e for e in kinds if e["name"] == "net_recv")
        assert recv["args"]["bytes"] == 128
        assert recv["dur"] == pytest.approx(0.5e6)
        names = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert len(names) == 2

    def test_save_roundtrip(self, tmp_path):
        tl = Timeline(1)
        tl.advance(0, "cpu", 0.1)
        path = save_chrome_trace(tl, tmp_path / "trace")
        assert path.suffix == ".json"
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"

    def test_engine_timeline_exports(self, small_graph, cluster2, tmp_path):
        from repro.core.model import GNNModel
        from repro.engines import DepCommEngine
        from repro.training.prep import prepare_graph

        graph = prepare_graph(small_graph, "gcn")
        model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes, seed=1)
        engine = DepCommEngine(graph, model, cluster2, record_timeline=True)
        engine.charge_epoch()
        path = save_chrome_trace(engine.timeline, tmp_path / "epoch")
        trace = json.loads(path.read_text())
        assert len(trace["traceEvents"]) > 4

