"""Serving pin: every observable of the request path, bit for bit.

``tests/data/golden_serving_paths.json`` was recorded at the commit
*before* the serving hot path was rewritten (planner-built closures,
closure-built blocks, the flat small-block scatter) with
``python tests/serving/test_serving_pin.py --write``, and the rewrite
reproduced it unmodified.  It was re-recorded once since, when a
narrowing GCN layer above layer 1 started multiplying by its weight
before aggregating: the cached rows are the top layer's float64 rows,
so their bytes follow that order, and the ``rows_sha256`` of the 11 GCN
scenarios moved (the product now runs over the top's input rows, not
the batch's seeds, so the rows no longer depend on the batching).
Every other field, the GAT scenario and ``golden_serving_clock.json``
did not move.  It was re-recorded a second time when the serving
closure memo became the definition of an answer (each (layer, vertex)
row computed once, in fill blocks, and every served row read from it):
only the ``gat`` scenario's ``rows_sha256`` moved, since GAT batches
had run their own union-closure forward until then; its predictions
and records did not.  The clock pin lost its ``memo`` counter blocks,
which went with the memo's per-batch bypass; every charged field stayed
bit-identical.  Floats are stored as ``float.hex()`` so the comparison
is on bits, not on a printed rounding.

Pinned per scenario: every :class:`RequestRecord` field, the
predictions, the cache counters, a digest of the embedding rows the
cache holds (the numeric forward's raw bytes), ``num_batches`` and the
makespan.  ``tests/data/golden_serving_clock.json``, recorded by the
same ``--write`` before the per-request charging moved to per-group
vectors, pins the rest of the charged clock: the per-kind, per-worker
``timeline.totals``, ``timeline.clocks`` and a digest of every
interval and span.  Scenarios: mode {auto, local, remote} x
``tau_s`` {0, 0.05} on a small skewed social graph over 4 workers,
plus a crashed worker (ring fallback + stale-if-error),
``max_pending`` shedding, a two-segment continuation (in order, and
with the earlier arrivals served second under ``max_pending``), a
2-replica fleet, and a GAT model (the layer without a fused kernel).
"""

import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.serving.slo import RequestRecord

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "golden_serving_paths.json"
GOLDEN_CLOCK = GOLDEN.with_name("golden_serving_clock.json")
NODES = 4


def _parts(arch="gcn"):
    from repro.cluster.spec import ClusterSpec
    from repro.core.model import GNNModel
    from repro.graph import generators
    from repro.partition.chunk import chunk_partition
    from repro.training.prep import prepare_graph

    g = generators.scaled_social(
        240, avg_degree=6.0, num_communities=6, hub_exponent=0.9, seed=21
    )
    generators.attach_features(g, 12, 5, seed=22, class_signal=1.5)
    graph = prepare_graph(g, arch)
    model = GNNModel.build(arch, graph.feature_dim, 10, graph.num_classes, seed=23)
    return graph, model, ClusterSpec.ecs(NODES), chunk_partition(graph, NODES)


def _requests(graph, n=150, seed=31):
    from repro.serving import WorkloadConfig, generate_workload

    return generate_workload(
        WorkloadConfig(num_requests=n, rate_rps=1500.0, zipf_exponent=1.0, seed=seed),
        graph.num_vertices,
    )


def _rows_digest(cache, vertices):
    digest = hashlib.sha256()
    ids = sorted(set(vertices))
    for v, row in zip(ids, cache.peek(1, ids)[0]):
        if row is not None:
            digest.update(int(v).to_bytes(8, "little"))
            digest.update(row.tobytes())
    return digest.hexdigest()


_FIELDS = [f.name for f in dataclasses.fields(RequestRecord)]


def _rows(records):
    """One list per record, in ``_FIELDS`` order (keeps the golden small)."""
    return [[getattr(r, name) for name in _FIELDS] for r in records]


def _server_payload(server, ledger, predictions, makespan, num_batches, requests):
    return {
        "records": _rows(ledger.records),
        "predictions": {str(k): int(v) for k, v in sorted(predictions.items())},
        "cache": dataclasses.asdict(server.cache.counters),
        "rows_sha256": _rows_digest(server.cache, [r.vertex for r in requests]),
        "num_batches": num_batches,
        "makespan_s": makespan,
    }


def _canonical(obj):
    """JSON-ready copy: numpy scalars as Python ones, floats as ``float.hex()``."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    raise TypeError(f"not pinnable: {type(obj)}")


def _sha256(obj):
    text = json.dumps(_canonical(obj), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _clock_payload(server, timeline):
    """The charged clock beyond the makespan."""
    return {
        "totals": {kind: timeline.totals[kind].tolist() for kind in sorted(timeline.totals)},
        "clocks": timeline.clocks.tolist(),
        "intervals_sha256": _sha256([
            [i.worker, i.kind, i.start, i.end, i.num_bytes] for i in timeline.intervals
        ]),
        "spans_sha256": _sha256([
            [s.worker, s.name, s.start, s.end, s.args] for s in timeline.spans
        ]),
    }


def _serve(config=None, faults=None, arch="gcn", segments=1, reverse=False):
    from repro.cluster.timeline import Timeline
    from repro.serving import InferenceServer
    from repro.serving.slo import LatencyLedger

    graph, model, cluster, partitioning = _parts(arch)
    requests = _requests(graph)
    server = InferenceServer(
        graph, model, cluster, partitioning, config=config, faults=faults
    )
    state = {
        "timeline": Timeline(NODES),
        "ledger": LatencyLedger(),
        "predictions": {},
        "inflight": [],
    }
    width = -(-len(requests) // segments)
    num_batches = 0
    starts = list(range(0, len(requests), width))
    for lo in reversed(starts) if reverse else starts:
        num_batches += server.serve(requests[lo:lo + width], **state).num_batches
    payload = _server_payload(
        server, state["ledger"], state["predictions"],
        state["timeline"].makespan, num_batches, requests,
    )
    payload["clock"] = [_clock_payload(server, state["timeline"])]
    return payload


def _mode_tau(mode, tau_s):
    from repro.serving import ServingConfig

    return lambda: _serve(ServingConfig(mode=mode, tau_s=tau_s))


def _crashed_worker():
    from repro.resilience.faults import FaultSchedule, WorkerCrashFault
    from repro.serving import ServingConfig

    faults = FaultSchedule(
        [WorkerCrashFault(worker=0, at_time=0.012, permanent=True)], seed=3
    )
    return _serve(ServingConfig(mode="remote", tau_s=0.004), faults=faults)


def _shedding():
    from repro.serving import ServingConfig, SLOConfig

    return _serve(ServingConfig(mode="auto", slo=SLOConfig(max_pending=3)))


def _two_segments():
    from repro.serving import ServingConfig

    return _serve(ServingConfig(mode="auto", tau_s=0.05), segments=2)


def _failover_order():
    """The later half first, as a fleet failover re-serve arrives: the
    second segment's arrivals precede finish times already in flight."""
    from repro.serving import ServingConfig, SLOConfig

    return _serve(
        ServingConfig(mode="auto", slo=SLOConfig(max_pending=3)),
        segments=2, reverse=True,
    )


def _gat():
    from repro.serving import ServingConfig

    return _serve(ServingConfig(mode="auto", tau_s=0.05), arch="gat")


def _fleet():
    from repro.serving import FleetConfig, ServingConfig, ServingFleet

    graph, model, cluster, partitioning = _parts()
    requests = _requests(graph)
    fleet = ServingFleet(
        graph, model, cluster, partitioning,
        config=FleetConfig(
            replicas=2, seed=5, health_every=32,
            serving=ServingConfig(mode="auto", tau_s=0.05),
        ),
    )
    result = fleet.serve(requests)
    summary = result.summary()
    return {
        "records": _rows(result.ledger.records),
        "predictions": {str(k): int(v) for k, v in sorted(result.predictions.items())},
        "replicas": [
            _server_payload(
                g.server, g.ledger, g.predictions, g.timeline.makespan, 0, requests
            )
            for g in result.replicas
        ],
        "counts": {
            k: summary[k]
            for k in ("num_segments", "hedges_launched", "hedges_won",
                      "failovers", "replica_served")
        },
        "clock": [_clock_payload(g.server, g.timeline) for g in result.replicas],
    }


SCENARIOS = {
    **{
        f"{mode}-tau{tau_s}": _mode_tau(mode, tau_s)
        for mode in ("auto", "local", "remote")
        for tau_s in (0.0, 0.05)
    },
    "crashed-worker": _crashed_worker,
    "max-pending-shed": _shedding,
    "two-segments": _two_segments,
    "earlier-arrivals-second": _failover_order,
    "fleet-2-replicas": _fleet,
    "gat": _gat,
}


def _hexed(obj):
    """JSON-ready copy with every float as ``float.hex()``."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj).hex()
    if isinstance(obj, dict):
        return {str(k): _hexed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_hexed(v) for v in obj]
    raise TypeError(f"not pinnable: {type(obj)}")


@functools.lru_cache(maxsize=None)
def _built(name):
    """``(paths payload, clock payloads)`` of one scenario, JSON-ready;
    the clock has one payload per server (a fleet has one per replica)."""
    payload = SCENARIOS[name]()
    clock = payload.pop("clock")
    return _hexed(payload), _canonical(clock)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_serving_path_matches_parent_recording(name):
    golden = json.loads(GOLDEN.read_text())[name]
    fresh = _built(name)[0]
    assert fresh.keys() == golden.keys()
    for key in golden:
        assert fresh[key] == golden[key], f"{name}: {key!r} drifted from the pin"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_serving_clock_matches_parent_recording(name):
    golden = json.loads(GOLDEN_CLOCK.read_text())[name]
    fresh = _built(name)[1]
    assert len(fresh) == len(golden)
    for i, (got, want) in enumerate(zip(fresh, golden)):
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == want[key], f"{name}[{i}]: {key!r} drifted from the pin"


def test_scenarios_exercise_what_they_name():
    """The pin is only a fence if its scenarios reach the branches."""
    golden = json.loads(GOLDEN.read_text())

    def records(name):
        return [dict(zip(_FIELDS, row)) for row in golden[name]["records"]]

    def modes(name):
        return {r["mode"] for r in records(name)}

    assert "remote" in modes("remote-tau0.0")
    assert "cached" in modes("auto-tau0.05") and "cached" not in modes("auto-tau0.0")
    crashed = records("crashed-worker")
    assert any(r["degraded"] and r["mode"] == "cached" for r in crashed)
    assert any(r["degraded"] and r["mode"] != "cached" for r in crashed)
    shed = records("max-pending-shed")
    assert 0 < sum(r["shed"] for r in shed) < len(shed)
    late_first = records("earlier-arrivals-second")
    assert late_first[0]["req_id"] > late_first[-1]["req_id"]
    assert 0 < sum(r["shed"] for r in late_first[len(late_first) // 2:])
    assert len(golden["fleet-2-replicas"]["counts"]["replica_served"]) == 2


def main(argv):
    if "--write" not in argv:
        print("usage: python tests/serving/test_serving_pin.py --write")
        return 1
    built = {name: _built(name) for name in SCENARIOS}
    for path, part in ((GOLDEN, 0), (GOLDEN_CLOCK, 1)):
        payload = {name: pair[part] for name, pair in built.items()}
        path.write_text(json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
