"""Human- and machine-readable rendering of a compiled program.

Backs the ``repro explain-plan`` CLI command: :func:`describe_program`
produces a JSON-friendly dict of the per-layer, per-worker dataflow
(step kinds, vertex counts, bytes, exchange volumes, applied passes),
:func:`render_program` a terminal layout of the same thing.
"""

from __future__ import annotations

from typing import Dict, List

from repro.execution.program import Program


def step_dict(step) -> Dict[str, object]:
    """One program step as JSON: its ``kind`` plus every field."""
    d = {"kind": step.kind}
    for name, value in vars(step).items():
        d[name] = int(value) if isinstance(value, (int,)) else value
    return d


def _edge_step(wk: Dict[str, object]) -> Dict[str, object]:
    """The sparse step of a worker tuple, fused or not.

    Unfused tuples carry Scatter -> EdgeForward -> GatherByDst at indices
    1..3; the fuse-scatter-gather pass collapses them into one
    ``fused_scatter_gather`` step, so look the step up by kind.
    """
    for step in wk["steps"]:
        if step["kind"] in ("edge_forward", "fused_scatter_gather"):
            return step
    raise ValueError("worker program has no sparse step")


def describe_layers(program: Program) -> List[Dict[str, object]]:
    """Every layer of ``program`` -- exchange, pass annotations and the
    per-worker steps -- as JSON-friendly dicts (full-batch plans and
    sampled rounds render through this one description)."""
    layers = []
    for lp in program.layers:
        ex = lp.exchange
        # Tensor-parallel layers place the dense work after the unslice
        # transpose, so the fold metadata lives on ``post_exchange``.
        fold_ex = lp.post_exchange if lp.post_exchange is not None else ex
        workers = []
        for wp in lp.workers:
            workers.append({
                "worker": wp.worker,
                "steps": [step_dict(s) for s in wp.steps],
                "recv_chunks": fold_ex.recv_chunks(wp.worker),
                "fold_dense": bool(fold_ex.fold_dense[wp.worker]),
                "num_stale_rows": (
                    0 if wp.stale_rows is None else int(len(wp.stale_rows))
                ),
            })
        layers.append({
            "layer": lp.layer,
            "tensor_parallel": lp.is_tp,
            "exchange_bytes": ex.total_bytes(),
            "post_exchange_bytes": (
                lp.post_exchange.total_bytes() if lp.is_tp else 0
            ),
            "refresh_entries": int(ex.refresh_entries),
            "bytes_per_message": float(ex.bytes_per_message),
            "fused_reducer": lp.fused_reducer,
            "workers": workers,
        })
    return layers


def describe_program(engine) -> Dict[str, object]:
    """The compiled program as a JSON-friendly dict."""
    engine.plan()
    program: Program = engine.program_
    return {
        "engine": engine.name,
        "num_workers": program.num_workers,
        "num_layers": program.num_layers,
        "dims": list(program.dims),
        "passes": list(program.passes),
        "layers": describe_layers(program),
    }


def render_program(engine) -> str:
    """Terminal rendering of :func:`describe_program`."""
    desc = describe_program(engine)
    lines: List[str] = []
    lines.append(
        f"program: engine={desc['engine']} workers={desc['num_workers']} "
        f"layers={desc['num_layers']} dims={desc['dims']}"
    )
    lines.append(
        "passes: " + (", ".join(desc["passes"]) if desc["passes"] else "(none)")
    )
    for layer in desc["layers"]:
        if layer.get("tensor_parallel"):
            lines.append(
                f"layer {layer['layer']}: tensor-parallel, "
                f"slice exchange {layer['exchange_bytes']} B, "
                f"unslice exchange {layer['post_exchange_bytes']} B"
            )
            for wk in layer["workers"]:
                sl = wk["steps"][0]
                edge = _edge_step(wk)
                vertex = wk["steps"][-1]
                flags = ["fold-dense"] if wk["fold_dense"] else []
                suffix = f"  [{', '.join(flags)}]" if flags else ""
                lines.append(
                    f"  worker {wk['worker']}: "
                    f"SliceAllToAll(n={sl['num_vertices']} "
                    f"slice={sl['slice_dim']}/{sl['dim']}) -> "
                    f"Scatter/Edge/Gather(edges={edge['num_edges']}) -> "
                    f"UnsliceAllToAll -> "
                    f"VertexForward(out={vertex['num_outputs']})"
                    f" chunks={wk['recv_chunks']}{suffix}"
                )
            continue
        lines.append(
            f"layer {layer['layer']}: exchange {layer['exchange_bytes']} B"
            + (
                f", refresh entries {layer['refresh_entries']}"
                if layer["refresh_entries"]
                else ""
            )
        )
        for wk in layer["workers"]:
            gather = wk["steps"][0]
            vertex = wk["steps"][-1]
            edge = _edge_step(wk)
            if edge["kind"] == "fused_scatter_gather":
                sparse = (
                    f"FusedScatterGather(edges={edge['num_edges']} "
                    f"reducer={edge['reducer']})"
                )
            else:
                sparse = f"Scatter/Edge/Gather(edges={edge['num_edges']})"
            flags = []
            if wk["fold_dense"]:
                flags.append("fold-dense")
            if wk["num_stale_rows"]:
                flags.append(f"stale-rows={wk['num_stale_rows']}")
            suffix = f"  [{', '.join(flags)}]" if flags else ""
            lines.append(
                f"  worker {wk['worker']}: "
                f"GetFromDepNbr(in={gather['num_inputs']} "
                f"local={gather['num_local']} fetch={gather['num_fetch']} "
                f"cached={gather['num_cached']} "
                f"recompute={gather['num_recompute']} "
                f"fetch_bytes={gather['fetch_bytes']}) -> "
                f"{sparse} -> "
                f"VertexForward(out={vertex['num_outputs']})"
                f" chunks={wk['recv_chunks']}{suffix}"
            )
    return "\n".join(lines)
