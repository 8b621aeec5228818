"""``benchmarks/bench_paper.py``: its cheapest paper and system experiments,
its JSON, and EXPERIMENTS.md re-rendered from the committed ``BENCH_paper.json``."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.utils.jsonio import write_json

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import bench_paper  # noqa: E402  (imports its sibling ``common``)


def _reject(constant):
    raise AssertionError(f"bare {constant} is not JSON")


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        for must in ["fig2a", "fig2b", "fig2c", "fig9", "fig10", "fig11", "fig12",
                     "fig13", "fig14", "fig15", "table3", "table4", "table5"]:
            assert must in bench_paper.EXPERIMENTS

    def test_ablations_registered(self):
        assert sum(i.startswith("ablation_") for i in bench_paper.EXPERIMENTS) == 5

    def test_system_extensions_registered(self):
        for must in ["ops", "sampling", "tp", "fleet", "serving", "chaos", "elastic",
                     "overlap", "cache_sweep"]:
            assert must in bench_paper.EXPERIMENTS

    def test_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            bench_paper.main(["fig99"])
        assert "unknown experiment fig99" in capsys.readouterr().err


class TestRunner:
    def test_run_single_experiment(self, capsys):
        rows = bench_paper.run("fig11")
        bench_paper.EXPERIMENTS["fig11"].check(rows)
        out = capsys.readouterr().out  # the printed table
        assert "Alg. 4" in out and "OOM" in out

    def test_run_system_experiment(self, capsys):
        rows = bench_paper.run("chaos")
        bench_paper.EXPERIMENTS["chaos"].check(rows)
        out = capsys.readouterr().out
        assert "cpu 8x slowdown" in out and "epoch 2" in out

    def test_run_all_subset_writes_json(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        bench_paper.main(["table5", "--json", str(out)])  # asserts its predicate
        loaded = json.loads(out.read_text(), parse_constant=_reject)
        # NaN OOM entries serialise as the string "OOM".
        assert loaded["table5"][1]["epoch_s"]["google"] == "OOM"  # DGL, GCN

    def test_numpy_nan_cells_write_valid_json(self, tmp_path):
        out = tmp_path / "results.json"
        write_json(str(out), {"oom_cell": np.float64("nan"), "ok": np.float32(1.5)})
        loaded = json.loads(out.read_text(), parse_constant=_reject)
        assert loaded == {"oom_cell": "OOM", "ok": 1.5}


def test_experiments_md_matches_bench_paper_json():
    results = json.loads((ROOT / "BENCH_paper.json").read_text())
    doc = (ROOT / "EXPERIMENTS.md").read_text()
    assert list(results) == list(bench_paper.EXPERIMENTS)
    assert all(f"<!-- paper:{i} -->" in doc for i in results)
    assert bench_paper.regenerate(doc, results) == doc, (
        "EXPERIMENTS.md is stale: rerun `PYTHONPATH=../src python bench_paper.py` "
        "in benchmarks/ and commit it with BENCH_paper.json"
    )
