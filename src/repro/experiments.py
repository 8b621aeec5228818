"""Programmatic experiment registry and runner.

Every benchmark in ``benchmarks/`` is also reachable as a library call:
``run_experiment("fig2")`` executes the same code path and returns the
raw result structures, and ``run_all`` writes one JSON file with every
table and figure -- the artifact EXPERIMENTS.md is checked against.

The registry imports lazily from the ``benchmarks`` directory so the
package itself has no hard dependency on it being installed; running
from a source checkout (the normal case) always works.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.utils import jsonable

_BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"

# experiment id -> (bench module filename, description)
REGISTRY: Dict[str, tuple] = {
    "fig2": ("bench_fig2_motivation.py",
             "DepCache vs DepComm: graphs, hidden sizes, clusters"),
    "fig9": ("bench_fig9_gain_analysis.py",
             "Hybrid + R/L/P optimization gains"),
    "fig10": ("bench_fig10_overall.py",
              "Overall comparison vs DistDGL/ROC/DepCache/DepComm"),
    "fig11": ("bench_fig11_ratio_sweep.py",
              "Cache/comm ratio sweep"),
    "fig12": ("bench_fig12_scaling.py",
              "Scaling 1-16 nodes"),
    "fig13": ("bench_fig13_utilization.py",
              "GPU/CPU/network utilization"),
    "fig14": ("bench_fig14_accuracy.py",
              "Accuracy and time-to-accuracy (real training)"),
    "fig15": ("bench_fig15_partitioning.py",
              "Hybrid vs DepComm under graph partitioners"),
    "table3": ("bench_table3_hybrid_cost.py",
               "100-epoch runtimes + preprocessing overhead"),
    "table4": ("bench_table4_shared_memory.py",
               "Shared-memory (CPU) baselines"),
    "table5": ("bench_table5_single_gpu.py",
               "Single-GPU baselines"),
    "ablation_costmodel": ("bench_ablation_costmodel.py",
                           "mu and memory-budget ablation"),
    "ablation_depth": ("bench_ablation_depth.py",
                       "model-depth ablation"),
    "ablation_oracle": ("bench_ablation_greedy_vs_oracle.py",
                        "greedy vs exhaustive oracle"),
    "ablation_sampling": ("bench_ablation_sampling.py",
                          "sampling fanout/batch ablation"),
    "ablation_probe_error": ("bench_ablation_probe_error.py",
                             "Hybrid robustness to probe error"),
    "tp": ("bench_tp.py",
           "Tensor-parallel crossover: skew x hidden-dim sweep"),
}


def _load_bench_module(filename: str):
    path = _BENCH_DIR / filename
    if not path.exists():
        raise FileNotFoundError(
            f"benchmark module {path} not found (run from a source checkout)"
        )
    # The bench modules import their shared helpers as `common`.
    if str(_BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(_BENCH_DIR))
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def list_experiments() -> List[str]:
    """The registered experiment ids (paper tables, figures, ablations)."""
    return sorted(REGISTRY)


def run_experiment(experiment_id: str):
    """Run one experiment's ``run_experiment()``; returns its raw result."""
    try:
        filename, _ = REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(list_experiments())
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None
    module = _load_bench_module(filename)
    return module.run_experiment()


def run_all(
    output_path: Optional[Union[str, Path]] = None,
    only: Optional[List[str]] = None,
    progress: Callable[[str], None] = print,
) -> Dict[str, object]:
    """Run every registered experiment and (optionally) write JSON.

    ``only`` restricts to a subset of experiment ids.  Returns the
    results dict; with ``output_path`` set, also writes it to disk with
    wall-clock metadata per experiment.
    """
    chosen = only or list_experiments()
    results: Dict[str, object] = {}
    for experiment_id in chosen:
        _, description = REGISTRY[experiment_id]
        progress(f"[{experiment_id}] {description}")
        started = time.time()
        raw = run_experiment(experiment_id)
        results[experiment_id] = {
            "description": description,
            "wall_seconds": round(time.time() - started, 2),
            "result": jsonable(raw),
        }
    if output_path is not None:
        path = Path(output_path)
        path.write_text(json.dumps(results, indent=2))
        progress(f"results written to {path}")
    return results
