"""Inspectable sampled programs: ``repro explain-plan --sampled``.

Full-batch plans are static, so ``explain-plan`` compiles once and
prints.  Sampled programs exist per mini-batch, so this module dry-runs
the first round(s) of the next epoch — deterministic batch order, no
shuffling, no timeline charges, engine state untouched — and renders
each round's compiled Program next to the sampling facts the IR cannot
show (seed counts, per-layer frontier growth, kappa reuse fraction).
"""

from __future__ import annotations

import copy
import itertools
from typing import Dict, List

from repro.execution.explain import describe_layers


def describe_sampled_batches(engine, num_batches: int = 1) -> Dict[str, object]:
    """JSON-friendly description of the next ``num_batches`` rounds."""
    # A sampler may carry a sequential stream; dry-run on a clone so
    # the engine's own draw state is untouched.
    dry_run = engine.rounds(copy.deepcopy(engine.sampler), shuffle=False)
    rounds: List[Dict[str, object]] = []
    for r, closures, _, program, traffic in itertools.islice(dry_run, num_batches):
        workers = []
        for w in sorted(closures):
            closure = closures[w]
            workers.append({
                "worker": w,
                "num_seeds": int(len(closure.seeds)),
                "frontier_sizes": [int(x) for x in closure.frontier_sizes],
                "sampled_edges": int(closure.num_sampled_edges),
                "reused_vertices": int(closure.reused_vertices),
                "reuse_fraction": float(closure.reuse_fraction),
                "fetch_rows": int(traffic.per_worker_fetch.get(w, 0)),
            })
        rounds.append({
            "round": r,
            "workers": workers,
            "passes": list(program.passes),
            "layers": describe_layers(program),
            "traffic": {
                "remote_rows": traffic.remote_rows,
                "fetch_rows": traffic.fetch_rows,
                "reused_rows": traffic.reused_rows,
                "pinned_rows": traffic.pinned_rows,
                "saved_bytes": traffic.saved_bytes,
            },
        })
    return {
        "engine": engine.name,
        "sampler": engine.sampler.name,
        "fanouts": list(engine.fanouts),
        "kappa": engine.kappa,
        "batch_size": engine.batch_size,
        "num_workers": engine.cluster.num_workers,
        "num_layers": engine.num_layers,
        "rounds": rounds,
    }


def render_sampled_batches(engine, num_batches: int = 1) -> str:
    """Terminal rendering of :func:`describe_sampled_batches`."""
    desc = describe_sampled_batches(engine, num_batches=num_batches)
    lines = [
        f"sampled program: engine={desc['engine']} "
        f"sampler={desc['sampler']} fanouts={desc['fanouts']} "
        f"kappa={desc['kappa']} batch_size={desc['batch_size']} "
        f"workers={desc['num_workers']}"
    ]
    for rnd in desc["rounds"]:
        t = rnd["traffic"]
        lines.append(
            f"round {rnd['round']}: fetch {t['fetch_rows']} rows "
            f"(remote {t['remote_rows']}, reused {t['reused_rows']}, "
            f"pinned {t['pinned_rows']}, saved {t['saved_bytes']} B)"
            + (
                f"  passes: {', '.join(rnd['passes'])}"
                if rnd["passes"]
                else ""
            )
        )
        for wk in rnd["workers"]:
            sizes = " -> ".join(str(s) for s in wk["frontier_sizes"])
            lines.append(
                f"  worker {wk['worker']}: seeds={wk['num_seeds']} "
                f"frontier {sizes} edges={wk['sampled_edges']} "
                f"reuse={wk['reuse_fraction']:.2f} "
                f"fetch={wk['fetch_rows']}"
            )
        for layer in rnd["layers"]:
            per_worker = []
            for wk in layer["workers"]:
                gather = wk["steps"][0]
                flags = " fold-dense" if wk["fold_dense"] else ""
                per_worker.append(
                    f"w{wk['worker']}(in={gather['num_inputs']} "
                    f"local={gather['num_local']} "
                    f"fetch={gather['num_fetch']} "
                    f"cached={gather['num_cached']}){flags}"
                )
            lines.append(
                f"  layer {layer['layer']}: "
                f"exchange {layer['exchange_bytes']} B  "
                + "  ".join(per_worker)
            )
    return "\n".join(lines)
