"""Smoke test of ``pairs.py``: three short pairs of this checkout against
its own ``HEAD`` on every workload.

Both sides run the same committed code, so ``charged_s`` must be
bit-equal in every pair; the rows carry no claim.  Not part of the
tier-1 suite (``testpaths`` is ``tests/``): run it with ``python -m
pytest benchmarks/test_pairs.py``.  It needs a git checkout and skips
without one.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _in_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
        capture_output=True,
    )
    return probe.returncode == 0


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git repository")
def test_pairs_against_head(tmp_path):
    out = tmp_path / "pairs.json"
    subprocess.run(
        [
            sys.executable, str(ROOT / "benchmarks" / "pairs.py"),
            "--parent", "HEAD", "--pairs", "3", "--seconds", "3", "--out", str(out),
        ],
        check=True,
    )
    rows = json.loads(out.read_text())["rows"]
    assert [row["workload"] for row in rows] == [
        "fullbatch_reddit", "sampled_social", "plan_social", "serve_social"
    ]
    for row in rows:
        assert "claim" not in row
        assert row["all_correct"]
        assert len(row["pairs"]) == 3
        assert [p["first"] for p in row["pairs"]] == ["parent", "change", "parent"]
        assert all(p["charged_bit_equal"] for p in row["pairs"])
        assert row["charged_bit_equal"]
        for metric in ("op_host_s", "setup_s", "charged_s", "peak_rss_mb"):
            summary = row["summary"][metric]
            assert summary["pairs"] == 3
            assert summary["parent"]["q1"] <= summary["parent"]["median"]
            assert summary["parent"]["median"] <= summary["parent"]["q3"]
        assert all(
            p[side]["loadavg_1m"] >= 0 for p in row["pairs"] for side in ("parent", "change")
        )
