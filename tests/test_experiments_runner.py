"""The programmatic experiment registry/runner."""

import json

import pytest

from repro.experiments import list_experiments, run_all, run_experiment


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = list_experiments()
        for must in ["fig2", "fig9", "fig10", "fig11", "fig12", "fig13",
                     "fig14", "fig15", "table3", "table4", "table5"]:
            assert must in ids

    def test_ablations_registered(self):
        assert any(x.startswith("ablation_") for x in list_experiments())

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")


class TestRunner:
    def test_run_single_experiment(self, capsys):
        result = run_experiment("fig11")
        capsys.readouterr()  # swallow the printed table
        (lj_times, _), (orkut_times, _) = result
        assert 0.0 in lj_times and 1.0 in lj_times

    def test_run_all_subset_writes_json(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        results = run_all(output_path=out, only=["table5"],
                          progress=lambda msg: None)
        capsys.readouterr()
        assert "table5" in results
        loaded = json.loads(out.read_text())
        assert loaded["table5"]["wall_seconds"] >= 0
        # NaN OOM entries serialise as the string "OOM".
        assert "OOM" in json.dumps(loaded)

    def test_numpy_nan_cells_write_valid_json(self, tmp_path, monkeypatch):
        import numpy as np

        import repro.experiments as experiments

        monkeypatch.setattr(
            experiments, "run_experiment",
            lambda _id: {"oom_cell": np.float64("nan"), "ok": np.float32(1.5)},
        )
        out = tmp_path / "results.json"
        run_all(output_path=out, only=["table5"], progress=lambda msg: None)

        def reject(constant):
            raise AssertionError(f"bare {constant} is not JSON")

        loaded = json.loads(out.read_text(), parse_constant=reject)
        assert loaded["table5"]["result"] == {"oom_cell": "OOM", "ok": 1.5}
