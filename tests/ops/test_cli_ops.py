"""CLI surface of the ops subsystem: list, run, grade, replay."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One CLI run of the cheapest problem with --record and --json."""
    out = tmp_path_factory.mktemp("ops-cli")
    bundle = out / "bundle.json"
    payload = out / "run.json"
    rc = main([
        "ops", "run", "train-cache-thrash",
        "--record", str(bundle), "--json", str(payload),
    ])
    return rc, bundle, payload


class TestList:
    def test_lists_all_problems(self, capsys, tmp_path):
        target = tmp_path / "problems.json"
        assert main(["ops", "list", "--json", str(target)]) == 0
        out = capsys.readouterr().out
        for name in ("train-straggler", "train-link-degraded",
                     "train-crash-permanent", "train-cache-thrash",
                     "serve-slo-burn"):
            assert name in out
        specs = json.loads(target.read_text())["problems"]
        assert len(specs) >= 5

    def test_unknown_problem_fails_loudly(self):
        with pytest.raises(KeyError, match="unknown ops problem"):
            main(["ops", "run", "no-such-problem"])


class TestRun:
    def test_run_records_a_bundle_and_grades(self, recorded):
        rc, bundle, payload = recorded
        assert rc == 0
        assert bundle.exists()
        report = json.loads(payload.read_text())
        entry = report["problems"]["train-cache-thrash"]
        assert entry["verdict"]["kind"] == "cache-thrash"
        assert entry["grade"]["overall"] > 0.5
        assert entry["aborted"] is False

    def test_bundle_is_schema_two(self, recorded):
        _, bundle, _ = recorded
        data = json.loads(bundle.read_text())
        assert data["schema"] == 2
        assert data["problem"]["name"] == "train-cache-thrash"
        assert data["observations"]
        assert data["trace"]["traceEvents"]


class TestReplayAndGrade:
    def test_replay_exits_zero_on_identity(self, recorded, capsys, tmp_path):
        _, bundle, _ = recorded
        target = tmp_path / "replay.json"
        assert main(["ops", "replay", str(bundle),
                     "--json", str(target)]) == 0
        assert "identical" in capsys.readouterr().out
        assert json.loads(target.read_text())["identical"] is True

    def test_replay_exits_nonzero_on_divergence(
        self, recorded, capsys, tmp_path
    ):
        _, bundle, _ = recorded
        data = json.loads(bundle.read_text())
        data["verdict"]["layer"] = 99
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data))
        assert main(["ops", "replay", str(tampered)]) == 1
        out = capsys.readouterr().out
        assert "DIVERGED" in out

    def test_grade_matches_the_recorded_grade(
        self, recorded, capsys, tmp_path
    ):
        _, bundle, _ = recorded
        target = tmp_path / "grade.json"
        assert main(["ops", "grade", str(bundle),
                     "--json", str(target)]) == 0
        recorded_grade = json.loads(bundle.read_text())["grade"]
        regraded = json.loads(target.read_text())["grade"]
        assert regraded == recorded_grade
