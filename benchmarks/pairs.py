"""Alternated parent/change pairs of the repo benchmark, one row per workload.

Usage (from anywhere inside the checkout)::

    python benchmarks/pairs.py --parent REV [--workloads W1,W2] [--pairs 10]
        [--seed-base N] [--seconds 15] [--out FILE]

The parent side is ``REV`` extracted with ``git archive`` into a
temporary directory; the change side is this checkout as it is on disk.
Both run ``benchmarks/e2e/run.py --workload W --seed S --seconds T
--trace 0`` as subprocesses from their own root, so neither imports the
other's package.  Pair ``i`` runs seed ``seed_base + i`` on both sides,
the parent first when ``i`` is even and the change first when it is
odd, so a drift of the host over the series falls on both sides alike.

Each workload appends one row to ``--out`` (default ``BENCH_host.json``
at the root of the checkout), with the fields the file's earlier rows
have: per metric, each side's quartiles (``numpy.percentile`` 25 / 50 /
75), the pairs the change reads lower (``change_better_pairs``) or equal
(``ties``), the parent-over-change median ratio, the median difference
and the parent's quartile spread (``parent_iqr``); whether ``charged_s``
was bit-equal in every pair; whether every run passed its own gates;
every pair's raw metrics; and the host, including the load average read
before each run.  The tool states no claim: whether a row carries one
is the reader's to judge from the rule it was made for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fullbatch_reddit", "sampled_social", "plan_social", "serve_social")
METRICS = ("op_host_s", "setup_s", "charged_s", "peak_rss_mb")
WHAT = (
    "Host-clock benchmark rows: alternated parent/change pairs of "
    "benchmarks/e2e/run.py, one row per workload. Quartiles are "
    "numpy.percentile 25/50/75 over each side's runs; a pair is a win when "
    "the change reads lower."
)


def _git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, **kwargs
    )


def _short(rev: str) -> str:
    return _git("rev-parse", "--short", rev, text=True).stdout.strip()


def _change_label() -> str:
    dirty = _git("status", "--porcelain", "--untracked-files=no", text=True).stdout
    return _short("HEAD") + ("+working-tree" if dirty.strip() else "")


def extract(rev: str, into: Path) -> None:
    """The files of ``rev`` under ``into``, by ``git archive``."""
    archive = _git("archive", "--format=tar", rev).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` process from ``root``: its gates, its four metrics
    and the load average just before it started."""
    loadavg = os.getloadavg()[0]
    done = subprocess.run(
        [
            sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=root, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(
            f"{workload} seed {seed} in {root}: no result line "
            f"(exit {done.returncode})\n{done.stderr[-2000:]}"
        ) from None
    return {
        "correct": bool(result["correct"]) and done.returncode == 0,
        "failed": result["failed"],
        **{name: result["metrics"][name]["value"] for name in METRICS},
        "loadavg_1m": loadavg,
    }


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def summarise(pairs, metric: str) -> dict:
    parent = [p["parent"][metric] for p in pairs]
    change = [p["change"][metric] for p in pairs]
    p, c = _quartiles(parent), _quartiles(change)
    return {
        "parent": p,
        "change": c,
        "change_better_pairs": sum(b < a for a, b in zip(parent, change)),
        "ties": sum(b == a for a, b in zip(parent, change)),
        "pairs": len(pairs),
        "median_ratio_parent_over_change": (
            p["median"] / c["median"] if c["median"] else None
        ),
        "median_difference": p["median"] - c["median"],
        "parent_iqr": p["q3"] - p["q1"],
    }


def host(pairs) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    loads = [p[side]["loadavg_1m"] for p in pairs for side in ("parent", "change")]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "loadavg_1m": {"min": min(loads), "max": max(loads)},
        "note": "run.py sets OPENBLAS_NUM_THREADS=1; loadavg_1m is read before each run",
    }


def measure(workload, parent_root, parent, pairs, seed_base, seconds) -> dict:
    roots = {"parent": parent_root, "change": ROOT}
    series = []
    for i in range(pairs):
        seed = seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], workload, seed, seconds)
        pair = {key: pair[key] for key in ("seed", "first", "parent", "change")}
        pair["charged_bit_equal"] = (
            pair["parent"]["charged_s"] == pair["change"]["charged_s"]
        )
        series.append(pair)
        print(
            f"{workload} seed {seed}: op_host_s parent "
            f"{pair['parent']['op_host_s']:.4f} change {pair['change']['op_host_s']:.4f}",
            flush=True,
        )
    return {
        "commit": _change_label(),
        "parent": _short(parent),
        "workload": workload,
        "command": (
            f"python3 benchmarks/e2e/run.py --workload {workload} --seed SEED "
            f"--seconds {seconds:g} --trace 0"
        ),
        "seeds": [p["seed"] for p in series],
        "order": f"pair i runs seed {seed_base} + i; parent first when i is even",
        "host": host(series),
        "summary": {metric: summarise(series, metric) for metric in METRICS},
        "charged_bit_equal": all(p["charged_bit_equal"] for p in series),
        "all_correct": all(
            p[side]["correct"] and p[side]["failed"] == 0
            for p in series for side in ("parent", "change")
        ),
        "pairs": series,
    }


def append_rows(out: Path, rows) -> None:
    data = json.loads(out.read_text()) if out.exists() else {"what": WHAT, "rows": []}
    data["rows"].extend(rows)
    out.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="alternated parent/change pairs of benchmarks/e2e/run.py"
    )
    parser.add_argument("--parent", required=True, metavar="REV",
                        help="git revision the change is compared with")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads (default: all four)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_host.json")
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown or args.pairs < 1:
        parser.error(f"unknown workloads {unknown}" if unknown else "--pairs must be >= 1")
    parent_root = Path(tempfile.mkdtemp(prefix="pairs-parent-"))
    try:
        extract(args.parent, parent_root)
        rows = [
            measure(w, parent_root, args.parent, args.pairs, args.seed_base, args.seconds)
            for w in workloads
        ]
    finally:
        shutil.rmtree(parent_root, ignore_errors=True)
    append_rows(args.out, rows)
    for row in rows:
        op = row["summary"]["op_host_s"]
        print(
            f"{row['workload']}: op_host_s median {op['parent']['median']:.4f} -> "
            f"{op['change']['median']:.4f} s, change better in "
            f"{op['change_better_pairs']}/{op['pairs']}, parent IQR "
            f"{op['parent_iqr']:.4f}; charged_s bit-equal: {row['charged_bit_equal']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
