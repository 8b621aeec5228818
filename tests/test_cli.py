"""Command-line interface."""

import pytest

from repro.cli import main


class TestDatasets:
    def test_lists_catalog(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ["google", "reddit", "twitter", "pubmed"]:
            assert name in out
        assert "paper |V|" in out


class TestProbe:
    def test_prints_constants(self, capsys):
        assert main(["probe", "--dataset", "cora", "--scale", "0.2",
                     "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "T_v" in out and "T_c" in out


class TestCompare:
    def test_compares_engines(self, capsys):
        assert main(["compare", "--dataset", "google", "--scale", "0.2",
                     "--nodes", "4"]) == 0
        out = capsys.readouterr().out
        for engine in ["depcache", "depcomm", "hybrid"]:
            assert engine in out
        assert "best:" in out


class TestAnalyze:
    def test_report_and_recommendation(self, capsys):
        assert main(["analyze", "--dataset", "pokec", "--scale", "0.3",
                     "--nodes", "4"]) == 0
        out = capsys.readouterr().out
        assert "replication" in out
        assert "recommendation:" in out

    def test_partitioner_option(self, capsys):
        assert main(["analyze", "--dataset", "google", "--scale", "0.2",
                     "--nodes", "4", "--partitioner", "metis"]) == 0
        assert "metis" in capsys.readouterr().out


class TestTrain:
    def test_trains_and_reports(self, capsys):
        assert main([
            "train", "--dataset", "reddit", "--scale", "0.3",
            "--nodes", "2", "--epochs", "4", "--eval-every", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "best accuracy" in out
        assert "cluster time" in out

    def test_checkpoint_written(self, capsys, tmp_path):
        target = tmp_path / "ckpt"
        assert main([
            "train", "--dataset", "reddit", "--scale", "0.3",
            "--nodes", "2", "--epochs", "2", "--eval-every", "2",
            "--checkpoint", str(target),
        ]) == 0
        assert (tmp_path / "ckpt.npz").exists()

    def test_unknown_dataset_errors(self):
        with pytest.raises(KeyError):
            main(["train", "--dataset", "nope", "--epochs", "1"])

    def test_bad_scale_reported_as_usage_error(self, capsys):
        code = main(["train", "--dataset", "cora", "--scale", "-1", "--epochs", "1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: argument --scale: scale must be a positive finite number, got -1.0\n"
        )

    def test_oom_reported_as_error(self, capsys):
        code = main([
            "train", "--dataset", "reddit", "--engine", "depcache",
            "--arch", "gat", "--nodes", "16", "--epochs", "1",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestTrainJson:
    def test_writes_summary(self, capsys, tmp_path):
        import json

        target = tmp_path / "train.json"
        assert main([
            "train", "--dataset", "reddit", "--scale", "0.3",
            "--nodes", "2", "--epochs", "4", "--eval-every", "2",
            "--json", str(target),
        ]) == 0
        payload = json.loads(target.read_text())
        assert payload["engine"] == "hybrid"
        assert payload["epochs"] == 4
        assert 0.0 <= payload["best_accuracy"] <= 1.0
        assert len(payload["convergence"]) >= 1
        assert "cache" not in payload  # no cache flags given

    def test_cache_stats_included_when_caching(self, capsys, tmp_path):
        import json

        target = tmp_path / "train.json"
        assert main([
            "train", "--dataset", "reddit", "--scale", "0.3",
            "--nodes", "2", "--epochs", "4", "--eval-every", "2",
            "--engine", "depcomm", "--tau", "2", "--json", str(target),
        ]) == 0
        payload = json.loads(target.read_text())
        assert "cache" in payload
        assert payload["cache"]["hits"] >= 0


class TestChaosCli:
    BASE = [
        "chaos", "--dataset", "cora", "--scale", "0.1", "--nodes", "4",
        "--epochs", "4", "--engine", "depcomm", "--checkpoint-every", "2",
    ]

    def test_restart_recovery(self, capsys):
        assert main(self.BASE + ["--crash", "1:0.0005"]) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out
        assert "workers" in out

    def test_shrink_recovery_reports_smaller_cluster(self, capsys, tmp_path):
        import json

        target = tmp_path / "chaos.json"
        assert main(self.BASE + [
            "--crash", "1:0.0005::perm", "--recovery", "shrink",
            "--json", str(target),
        ]) == 0
        payload = json.loads(target.read_text())
        assert payload["recovery"] == "shrink"
        report = payload["engines"]["depcomm"]
        assert report["num_workers_final"] == 3
        assert len(report["recoveries"]) >= 1
        assert report["recoveries"][0]["strategy"] == "shrink"

    def test_auto_recovery_restarts_transient(self, capsys, tmp_path):
        import json

        target = tmp_path / "chaos.json"
        assert main(self.BASE + [
            "--crash", "1:0.0005", "--recovery", "auto",
            "--json", str(target),
        ]) == 0
        payload = json.loads(target.read_text())
        report = payload["engines"]["depcomm"]
        assert report["num_workers_final"] == 4
        assert report["recoveries"][0]["strategy"] == "restart"

    def test_needs_at_least_one_fault(self):
        with pytest.raises(SystemExit):
            main(self.BASE)

    def test_rejects_unknown_recovery(self):
        with pytest.raises(SystemExit):
            main(self.BASE + ["--crash", "1:0.0005", "--recovery", "magic"])

    def test_sampled_engine_recovers(self, capsys, tmp_path):
        import json

        target = tmp_path / "chaos.json"
        assert main([
            "chaos", "--dataset", "cora", "--scale", "0.1", "--nodes", "4",
            "--epochs", "4", "--engine", "sampled", "--checkpoint-every", "2",
            "--batch-size", "32", "--crash", "1:0.0005",
            "--json", str(target),
        ]) == 0
        payload = json.loads(target.read_text())
        report = payload["engines"]["sampled"]
        assert len(report["recoveries"]) >= 1
        assert report["num_workers_final"] == 4


class TestReplanSweepCli:
    def test_sweep_reports_and_writes_json(self, capsys, tmp_path):
        import json

        target = tmp_path / "replan.json"
        assert main([
            "replan-sweep", "--dataset", "cora", "--scale", "0.1",
            "--nodes", "4", "--epochs", "4",
            "--straggler", "0:8.0:8.0", "--json", str(target),
        ]) == 0
        out = capsys.readouterr().out
        assert "static ms" in out and "adaptive ms" in out
        payload = json.loads(target.read_text())
        assert payload["engine"] == "hybrid"
        assert payload["static_makespan_s"] > 0

    def test_rejects_crash_faults(self):
        with pytest.raises(SystemExit):
            main([
                "replan-sweep", "--dataset", "cora", "--scale", "0.1",
                "--nodes", "4", "--crash", "1:0.1",
            ])


class TestCompareJson:
    def test_writes_engine_table(self, capsys, tmp_path):
        import json

        target = tmp_path / "compare.json"
        assert main([
            "compare", "--dataset", "cora", "--scale", "0.2",
            "--nodes", "2", "--json", str(target),
        ]) == 0
        payload = json.loads(target.read_text())
        assert set(payload["engines"]) == {"depcache", "depcomm", "hybrid"}
        assert payload["best"] in payload["engines"]
        assert payload["engines"]["hybrid"]["epoch_s"] > 0


class TestAnalyzeJson:
    def test_writes_report_and_recommendation(self, capsys, tmp_path):
        import json

        target = tmp_path / "analyze.json"
        assert main([
            "analyze", "--dataset", "cora", "--scale", "0.2",
            "--nodes", "2", "--json", str(target),
        ]) == 0
        payload = json.loads(target.read_text())
        assert payload["dataset"] == "cora"
        assert payload["replication_factor"] >= 1.0
        assert "recommendation" in payload


class TestServeCli:
    BASE = [
        "serve", "--dataset", "cora", "--scale", "0.1", "--nodes", "2",
        "--requests", "20", "--rate", "5000",
    ]

    def test_serves_and_reports_latency(self, capsys):
        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        assert "p99 ms" in out
        assert "micro-batches" in out

    def test_json_trace_and_training(self, capsys, tmp_path):
        import json

        target = tmp_path / "serve.json"
        trace = tmp_path / "serve_trace"
        assert main(self.BASE + [
            "--train-epochs", "1", "--tau-s", "0.05",
            "--trace", str(trace), "--json", str(target),
        ]) == 0
        payload = json.loads(target.read_text())
        assert payload["tau_s"] == 0.05
        assert payload["summary"]["served"] == 20
        assert len(payload["ledger"]["records"]) == 20
        trace_events = json.loads(
            (tmp_path / "serve_trace.json").read_text()
        )["traceEvents"]
        assert any(e.get("cat") == "span" for e in trace_events)

    def test_degraded_serving_with_crash(self, capsys):
        assert main(self.BASE + ["--crash", "1:0.0"]) == 0
        out = capsys.readouterr().out
        assert "degraded" in out

    def test_shedding_under_max_pending(self, capsys, tmp_path):
        import json

        target = tmp_path / "serve.json"
        assert main(self.BASE + [
            "--rate", "500000", "--max-pending", "2", "--json", str(target),
        ]) == 0
        payload = json.loads(target.read_text())
        assert payload["summary"]["shed"] > 0

    def test_rejects_bad_burst_spec(self):
        with pytest.raises(SystemExit):
            main(self.BASE + ["--burst", "nonsense"])


class TestServeBenchCli:
    def test_reports_speedup_and_sweep(self, capsys, tmp_path):
        import json

        target = tmp_path / "bench.json"
        assert main([
            "serve-bench", "--dataset", "cora", "--scale", "0.1",
            "--nodes", "2", "--requests", "60", "--rate", "100000",
            "--taus", "0,0.05", "--json", str(target),
        ]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "predictions identical: True" in out
        payload = json.loads(target.read_text())
        assert payload["predictions_identical"] is True
        assert len(payload["tau_sweep"]) == 2
        assert (
            payload["tau_sweep"][1]["comm_bytes"]
            <= payload["tau_sweep"][0]["comm_bytes"]
        )


class TestFleetCli:
    BASE = [
        "fleet", "--dataset", "cora", "--scale", "0.1", "--nodes", "2",
        "--replicas", "2", "--requests", "96", "--rate", "4000",
        "--health-every", "32",
    ]

    def test_serves_and_reports(self, capsys):
        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        assert "p99 ms" in out
        assert "replicas" in out

    def test_crash_fails_over(self, capsys, tmp_path):
        import json

        target = tmp_path / "fleet.json"
        assert main(self.BASE + [
            "--crash-replica", "1:0.005", "--json", str(target),
        ]) == 0
        payload = json.loads(target.read_text())
        summary = payload["summary"]
        assert summary["failovers"] > 0
        assert summary["shed"] == 0
        assert any(
            e["event"] == "replica-dead" for e in summary["health_events"]
        )

    def test_no_self_heal_leaves_sheds(self, capsys, tmp_path):
        import json

        target = tmp_path / "fleet.json"
        assert main(self.BASE + [
            "--crash-replica", "1:0.005", "--no-self-heal",
            "--json", str(target),
        ]) == 0
        payload = json.loads(target.read_text())
        assert payload["summary"]["failovers"] == 0
        assert payload["summary"]["shed"] > 0

    def test_rejects_bad_replica_fault_spec(self):
        with pytest.raises(SystemExit):
            main(self.BASE + ["--crash-replica", "nonsense"])


class TestSampleSweepCli:
    def test_sweeps_grid_and_writes_json(self, capsys, tmp_path):
        import json

        target = tmp_path / "sweep.json"
        assert main([
            "sample-sweep", "--dataset", "reddit", "--scale", "0.5",
            "--nodes", "2", "--samplers", "uniform,labor",
            "--fanouts", "3,5;2,4", "--kappas", "0,0.5",
            "--batch-size", "32", "--epochs", "1", "--json", str(target),
        ]) == 0
        out = capsys.readouterr().out
        assert "uniform" in out and "labor" in out
        payload = json.loads(target.read_text())
        # 2 samplers x 2 fanout groups x 2 kappas x 1 cache capacity.
        assert len(payload["rows"]) == 8
        for row in payload["rows"]:
            assert row["epoch_s"] > 0
            assert row["comm_bytes"] >= 0

    def test_rejects_empty_fanouts(self):
        with pytest.raises(SystemExit):
            main(["sample-sweep", "--dataset", "reddit", "--scale", "0.5",
                  "--fanouts", ";"])


class TestExplainPassFlagsCli:
    BASE = ["explain-plan", "--dataset", "cora", "--scale", "0.5",
            "--nodes", "2"]

    def test_renders_pass_annotations(self, capsys):
        assert main(self.BASE + ["--fuse-pass", "--overlap-pass"]) == 0
        out = capsys.readouterr().out
        assert "passes: overlap-exchange, fuse-scatter-gather" in out
        assert "FusedScatterGather(" in out
        assert "reducer=weighted_sum" in out
        assert "Scatter/Edge/Gather" not in out

    def test_json_carries_pass_annotations(self, capsys, tmp_path):
        import json

        target = tmp_path / "program.json"
        assert main(self.BASE + [
            "--fuse-pass", "--overlap-pass", "--json", str(target),
        ]) == 0
        payload = json.loads(target.read_text())
        assert payload["passes"] == ["overlap-exchange", "fuse-scatter-gather"]
        layers = payload["layers"]
        assert all(l["fused_reducer"] == "weighted_sum" for l in layers)
        kinds = [s["kind"] for s in layers[0]["workers"][0]["steps"]]
        assert "fused_scatter_gather" in kinds

    def test_default_run_has_no_annotations(self, capsys):
        assert main(list(self.BASE)) == 0
        out = capsys.readouterr().out
        assert "passes: (none)" in out
        assert "Scatter/Edge/Gather" in out
        assert "FusedScatterGather(" not in out


class TestExplainSampledCli:
    def test_renders_sampled_rounds(self, capsys):
        assert main([
            "explain-plan", "--dataset", "reddit", "--scale", "0.5",
            "--nodes", "2", "--engine", "sampled", "--sampler", "labor",
            "--fanouts", "3,5", "--batch-size", "16", "--batches", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "sampled program" in out
        assert "sampler=labor" in out
        assert "round 0" in out

    def test_sampled_flag_with_default_engine(self, capsys, tmp_path):
        import json

        target = tmp_path / "program.json"
        assert main([
            "explain-plan", "--dataset", "reddit", "--scale", "0.5",
            "--nodes", "2", "--sampled", "--batch-size", "16",
            "--fanouts", "3,5", "--json", str(target),
        ]) == 0
        payload = json.loads(target.read_text())
        assert payload["engine"] == "sampled"
        assert payload["rounds"]


class TestTrainSampledCli:
    def test_trains_with_sampled_engine(self, capsys):
        assert main([
            "train", "--dataset", "reddit", "--scale", "0.5", "--nodes", "2",
            "--engine", "sampled", "--sampler", "labor", "--fanouts", "3,5",
            "--kappa", "0.5", "--batch-size", "16", "--epochs", "2",
            "--eval-every", "2",
        ]) == 0
        assert "best accuracy" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            main(["train", "--dataset", "cora", "--engine", "magic"])

    def test_rejects_unknown_serve_mode(self):
        with pytest.raises(SystemExit):
            main(["serve", "--dataset", "cora", "--serve-mode", "magic"])
