"""Metric definitions: units, direction and regression bounds.

``BENCHMARK.json`` at the repository root is the one source for the
names, units, directions and bounds of the metrics the driver gates;
this module loads it and adds what the result files carry beyond it:
the metrics that exist only on some workloads or can be zero (which
the driver's format cannot hold), and the tighter same-seed tolerances
of everything the simulator or the numerics determine exactly.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

REPO_ROOT = Path(__file__).resolve().parents[2]


@dataclass(frozen=True)
class Metric:
    """A named number with a direction and a same-seed regression bound.

    ``new`` regresses on ``base`` when it is worse by more than
    ``rel_bound * |base| + abs_bound``.  ``exact`` metrics repeat bit for bit on
    one commit and seed, so any run-to-run spread in them is a bug.
    """

    name: str
    unit: str
    better: str
    rel_bound: float
    abs_bound: float = 0.0
    exact: bool = False

    def worse_by(self, base: float, new: float) -> float:
        return new - base if self.better == "lower" else base - new

    def allowance(self, base: float) -> float:
        return self.rel_bound * abs(base) + self.abs_bound

    def regressed(self, base: float, new: float) -> bool:
        return self.worse_by(base, new) > self.allowance(base)


# Beyond the driver's list.  Modeled seconds and bytes compare exactly
# (rel 1e-9: a change that only speeds the simulator must leave them
# identical); loss and accuracy allow for a reordered float32 sum.
_RESULT_FILE_METRICS = [
    Metric("charged_s", "s", "lower", 1e-9, exact=True),
    Metric("charged_comm_bytes", "bytes", "lower", 1e-9, exact=True),
    Metric("final_loss", "nats", "lower", 1e-3, 1e-6, exact=True),
    Metric("test_accuracy", "share", "higher", 0.0, 0.005, exact=True),
    Metric("failed_share", "share", "lower", 0.0),
]


def load_contract() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def end_to_end_metrics(contract: dict) -> Dict[str, Metric]:
    """Every end-to-end metric of the result files, by name."""
    out = {
        m["name"]: Metric(m["name"], m["unit"], m["better"], m["bound"])
        for m in contract["end_to_end"]
    }
    out.update({m.name: m for m in _RESULT_FILE_METRICS})
    return out


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, count and the samples themselves of a host
    timing (p90 from 100 samples up)."""
    ordered: List[float] = sorted(samples)
    out = {"value": statistics.median(ordered), "n": len(ordered), "samples": ordered}
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out["q1"], out["q3"] = q1, q3
    if len(ordered) >= 100:
        out["p90"] = statistics.quantiles(ordered, n=10)[8]
    return out
