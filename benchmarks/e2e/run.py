"""End-to-end and per-layer benchmark of the repro package.

Two ways to run it, both from the repository root:

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload in this interpreter.  Prints every metric by name and
    unit, then one JSON object as the last line: the end-to-end metrics
    with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``python3 benchmarks/e2e/run.py [--seed N] [--out DIR]``
    All four workloads, each in a fresh interpreter, one at a time (so
    block caches and peak RSS do not leak between them): an untraced
    pass, then a traced pass.  Writes ``DIR/e2e.json`` and
    ``DIR/layers.json`` with provenance, plus one Chrome trace per
    workload.

Exits non-zero when a correctness gate fails.  See README.md.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads: on two cores a second thread
# triples the run-to-run spread and changes the reddit loss in the 9th
# digit, which the exact checks would see.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"run.py: no repro package under {SRC}; run it from a full checkout")
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from metrics import REPO_ROOT, end_to_end_metrics, load_contract, summarize  # noqa: E402
from tracer import Tracer, chrome_trace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Cold set-ups per run; setup_s is their median.  Each uses its own
# graph seed, so load_dataset's cache never hits.
NUM_SETUPS = 5


def provenance(seed: int, started: float, loadavg_at_start) -> dict:
    """Where, on what and under which settings the numbers were taken."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "loadavg_at_start": list(loadavg_at_start),
        "wall_s": time.perf_counter() - started,
    }


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up, warm up, time operations for ``seconds`` and collect."""
    clock = time.perf_counter
    targets = layers.TARGETS if trace else []

    setup_tracer = Tracer()
    setup_samples = []
    state = None
    with setup_tracer.installed(targets):
        for k in range(NUM_SETUPS):
            gc.collect()
            t0 = clock()
            with setup_tracer.span("setup", "root"):
                built = workload.setup(k)
            setup_samples.append(clock() - t0)
            if k == 0:
                state = built
    del built  # the last spare set-up; only the seed+0 objects stay alive

    def timed_op(i: int, tracer: Tracer) -> float:
        workload.prepare(state, i)
        gc.collect()
        t0 = clock()
        with tracer.span("op", "root"):
            workload.op(state)
        return clock() - t0

    first_op_host_s = timed_op(-1, Tracer())
    first = workload.collect(state)

    # The traced pass spends half its time untraced, so that the same
    # process yields the tracing overhead.  Each phase numbers its
    # operations from 0, so both halves serve the same request streams.
    op_tracer = Tracer()
    phases = [(Tracer(), [])] + ([(op_tracer, targets)] if trace else [])
    samples = []
    outputs = []
    extras = {}
    for p, (tracer, phase_targets) in enumerate(phases):
        need = math.ceil(workload.min_ops * (p + 1) / len(phases))
        phase_samples = []
        with tracer.installed(phase_targets):
            start = clock()
            while len(outputs) < need or clock() - start < seconds / len(phases):
                phase_samples.append(timed_op(len(phase_samples), tracer))
                outputs.append(workload.collect(state))
                if len(outputs) == workload.min_ops:
                    extras = workload.after_prefix(state)
        samples.append(phase_samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    return {
        "state": state,
        "setup_samples": setup_samples,
        "first_op_host_s": first_op_host_s,
        "first": first,
        "samples": samples,
        "outputs": outputs,
        "extras": extras,
        "peak_rss_mb": peak_rss_mb,
        "setup_tracer": setup_tracer,
        "op_tracer": op_tracer,
    }


def end_to_end_values(workload, run: dict) -> dict:
    """The end-to-end metrics of one untraced run, by name."""
    exact = run["outputs"][workload.exact_op]
    values = {
        "setup_s": summarize(run["setup_samples"]),
        "op_host_s": summarize(run["samples"][0]),
        "charged_s": {"value": exact["charged_s"]},
        "charged_comm_bytes": {"value": exact["charged_comm_bytes"]},
        "peak_rss_mb": {"value": run["peak_rss_mb"]},
    }
    if "loss" in exact:
        values["final_loss"] = {"value": exact["loss"]}
    if "test_accuracy" in run["extras"]:
        values["test_accuracy"] = {"value": run["extras"]["test_accuracy"]}
    return values


def per_layer_values(workload, run: dict, names) -> dict:
    """The per-layer metrics of one traced run, by name."""
    untraced, traced = run["samples"]
    values = {name: 0.0 for name in layers.COLLECTED}
    values.update(layers.op_metrics(run["op_tracer"]))
    values.update(layers.setup_metrics(run["setup_tracer"]))
    values["costmodel.probe_s"] = layers.probe_s(run["setup_tracer"], run["op_tracer"])
    values.update(run["outputs"][workload.exact_op]["layers"])
    values["engines.first_op_host_s"] = run["first_op_host_s"]
    values["training.eval_s"] = run["extras"].get("eval_s", 0.0)
    values["trace.overhead_share"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    )
    if set(values) != set(names):
        raise KeyError(
            "per-layer metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(names))}"
        )
    return {name: {"value": values[name]} for name in names}


def run_one(args, contract: dict) -> int:
    started, loadavg = time.perf_counter(), os.getloadavg()
    workload = WORKLOADS[args.workload](args.seed)
    metrics = end_to_end_metrics(contract)
    run = measure(workload, args.seconds, bool(args.trace))
    end_to_end = end_to_end_values(workload, run)
    found = workload.gates(run["state"], run["first"], run["extras"])
    found += checks.against_reference(
        workload.name, args.seed,
        {name: entry["value"] for name, entry in end_to_end.items()}, metrics,
    )

    results = [run["first"], *run["outputs"]]
    attempted = sum(o["attempted"] for o in results) + len(found)
    failed = sum(o["failed"] for o in results) + sum(c.failed for c in found)
    end_to_end["failed_share"] = {"value": failed / attempted}

    if args.trace:
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        values = per_layer_values(workload, run, list(units))
    else:
        units = {name: metric.unit for name, metric in metrics.items()}
        values = end_to_end
    for name, entry in values.items():
        entry["unit"] = units[name]

    print(f"{workload.name}  seed {args.seed}  trace {args.trace}  "
          f"{len(run['outputs'])} timed operations")
    for name, entry in values.items():
        spread = (
            f"  (n={entry['n']}, q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g})"
            if "q1" in entry else ""
        )
        print(f"  {name:32s} {entry['value']:.9g} {entry['unit']}{spread}")
    for check in found:
        print(f"  check {check.name}: {'ok' if check.ok else 'FAILED'} -- {check.detail}")
    print(f"  attempted {attempted}, failed {failed}")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        detail = {
            "provenance": provenance(args.seed, started, loadavg),
            "workload": workload.name,
            "seconds": args.seconds,
            "trace": args.trace,
            "operations": [len(s) for s in run["samples"]],
            "attempted": attempted,
            "failed": failed,
            "checks": [{**vars(c), "ok": c.ok} for c in found],
            "metrics": values,
        }
        with open(out / f"{workload.name}.trace{args.trace}.json", "w") as handle:
            json.dump(detail, handle, indent=1)
        if args.trace:
            with open(out / f"chrome_trace_{workload.name}.json", "w") as handle:
                json.dump(chrome_trace(run["setup_tracer"], run["op_tracer"]), handle)

    # The driver's result line: only the metrics BENCHMARK.json names.
    gated = contract["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]]["value"], "unit": m["unit"]}
            for m in gated
        },
    }))
    return 0 if failed == 0 else 1


def run_all(args, contract: dict) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    started, loadavg = time.perf_counter(), os.getloadavg()
    out = Path(args.out or HERE / "out")
    status = 0
    files = {0: {}, 1: {}}
    for trace in (0, 1):
        for spec in contract["workloads"]:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", spec["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", str(out),
            ]
            status |= subprocess.run(command, cwd=REPO_ROOT).returncode
            with open(out / f"{spec['name']}.trace{trace}.json") as handle:
                detail = json.load(handle)
            del detail["provenance"]
            detail["why"] = spec["why"]
            files[trace][spec["name"]] = detail
    for trace, name in ((0, "e2e.json"), (1, "layers.json")):
        with open(out / name, "w") as handle:
            json.dump(
                {"provenance": provenance(args.seed, started, loadavg), "workloads": files[trace]},
                handle, indent=1,
            )
            handle.write("\n")
    print(f"wrote {out / 'e2e.json'} and {out / 'layers.json'}")
    return status


def main() -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run one workload here (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="derives graph, model, sampler and request seeds")
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="how long the timed operations run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced pass, per-layer metrics")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write result and Chrome-trace files here")
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args, contract)
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
