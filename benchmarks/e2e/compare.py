"""Compare two ``e2e.json`` result files: ``compare.py BASE.json NEW.json``.

One row per (metric, workload) with the base value, the new value, the
ratio new / base and a verdict:

- ``regressed``: worse than the metric's bound.  Exact metrics
  (modeled seconds and bytes, loss, accuracy, failures) compare at
  their own tight tolerances, host metrics at the bound in
  ``BENCHMARK.json``.
- ``unresolved``: within the bound, but the quartile spread of either
  side's own samples is wider than the bound, so "unchanged" cannot be
  told from a regression -- unless every new sample beats every base
  sample.
- ``unchanged``: everything else, improvements included.

Exits non-zero if any row regressed.  Run the benchmark twice on one
commit and compare the two files to see whether the machine is steady
enough for the bounds.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

from metrics import Metric, end_to_end_metrics, load_contract


def _spread(entry: dict) -> float:
    """Quartile distance as a share of the median (0 for single values)."""
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def _all_better(metric: Metric, base: Optional[List[float]], new: Optional[List[float]]) -> bool:
    if not base or not new:
        return False
    if metric.better == "lower":
        return max(new) < min(base)
    return min(new) > max(base)


def verdict(metric: Metric, base: dict, new: dict) -> str:
    if metric.regressed(base["value"], new["value"]):
        return "regressed"
    bound = metric.allowance(base["value"]) / abs(base["value"]) if base["value"] else 0.0
    wide = max(_spread(base), _spread(new)) > bound
    if wide and not _all_better(metric, base.get("samples"), new.get("samples")):
        return "unresolved"
    return "unchanged"


def compare(base_file: dict, new_file: dict) -> List[tuple]:
    metrics = end_to_end_metrics(load_contract())
    rows = []
    for workload, base_run in base_file["workloads"].items():
        new_run = new_file["workloads"].get(workload)
        if new_run is None:
            rows.append((workload, "-", float("nan"), float("nan"), "", "regressed"))
            continue
        for name, base in base_run["metrics"].items():
            new = new_run["metrics"].get(name)
            if new is None:
                rows.append((workload, name, base["value"], float("nan"), "", "regressed"))
                continue
            ratio = f"{new['value'] / base['value']:.4f}" if base["value"] else "-"
            rows.append((
                workload, name, base["value"], new["value"], ratio,
                verdict(metrics[name], base, new),
            ))
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        base_file = json.load(handle)
    with open(argv[2]) as handle:
        new_file = json.load(handle)
    rows = compare(base_file, new_file)
    print(f"{'workload':18s} {'metric':20s} {'base':>16s} {'new':>16s} "
          f"{'new/base':>9s}  verdict")
    for workload, name, base, new, ratio, outcome in rows:
        print(f"{workload:18s} {name:20s} {base:16.9g} {new:16.9g} {ratio:>9s}  {outcome}")
    regressed = sum(1 for row in rows if row[-1] == "regressed")
    unresolved = sum(1 for row in rows if row[-1] == "unresolved")
    print(f"{len(rows)} rows: {regressed} regressed, {unresolved} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
