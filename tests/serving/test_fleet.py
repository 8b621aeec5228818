"""The replicated serving fleet: routing, bit-identity, failover,
hedging, and SLO-driven autoscaling."""

from dataclasses import asdict

import pytest

from repro.core.model import GNNModel
from repro.partition.hashing import hash_partition
from repro.resilience.faults import (
    FaultSchedule,
    StragglerFault,
    WorkerCrashFault,
)
from repro.serving import (
    AutoscalerConfig,
    FleetConfig,
    InferenceServer,
    PopularityRouter,
    Request,
    ServingConfig,
    ServingFleet,
    SLOAutoscaler,
    WorkloadConfig,
    generate_workload,
)

NODES = 2


@pytest.fixture
def fleet_parts(small_graph, cluster2):
    model = GNNModel.build(
        "gcn", small_graph.feature_dim, 12, small_graph.num_classes, seed=7
    )
    partitioning = hash_partition(small_graph, NODES)
    return small_graph, model, cluster2, partitioning


def workload(graph, n=160, rate=4000.0, seed=11, zipf=1.2):
    return generate_workload(
        WorkloadConfig(num_requests=n, rate_rps=rate, zipf_exponent=zipf,
                       seed=seed),
        graph.num_vertices,
    )


def make_fleet(parts, replicas=2, replica_faults=None, **cfg_kwargs):
    graph, model, cluster, partitioning = parts
    cfg_kwargs.setdefault("serving", ServingConfig(
        batch_window_s=0.002, max_batch=32, mode="local",
    ))
    cfg_kwargs.setdefault("health_every", 32)
    config = FleetConfig(replicas=replicas, seed=5, **cfg_kwargs)
    return ServingFleet(
        graph, model, cluster, partitioning, config=config,
        replica_faults=replica_faults,
    )


def crash_replica(replica_id, at_time, nodes=NODES):
    """Every worker of one serving group goes dark at ``at_time``."""
    return {replica_id: FaultSchedule(
        [WorkerCrashFault(worker=w, at_time=at_time,
                          detection_timeout_s=0.0005, permanent=True)
         for w in range(nodes)],
        seed=3,
    )}


class TestRouter:
    def test_rendezvous_is_deterministic_and_minimal(self):
        router = PopularityRouter(seed=9)
        healthy = [0, 1, 2]
        choices = {v: router.rendezvous(v, healthy) for v in range(200)}
        assert choices == {
            v: router.rendezvous(v, healthy) for v in range(200)
        }
        # Dropping a replica only remaps the vertices it owned.
        survivors = [0, 2]
        for v, old in choices.items():
            new = router.rendezvous(v, survivors)
            if old != 1:
                assert new == old
            else:
                assert new in survivors

    def test_popularity_pinning(self, small_graph):
        router = PopularityRouter(seed=9, pin_after=3)
        requests = workload(small_graph, n=120)
        for r in requests:
            router.route(r, [0, 1, 2])
        hot = sorted(
            (v for v, c in router.counts.items() if c >= router.pin_after),
            key=lambda v: (-router.counts[v], v),
        )
        assert hot, "a Zipf workload must have a hot head"
        assert set(router.pins) == set(hot)
        # A pinned vertex keeps hitting its pinned replica.
        for v in hot[:3]:
            assert router.route(
                requests[0].__class__(10_000, v, 1.0), [0, 1, 2]
            ) == router.pins[v]

    def test_spread_mode_scatters_the_hot_head(self, small_graph):
        Request = type(workload(small_graph, n=1)[0])
        router = PopularityRouter(seed=9, pin_after=2)
        router.enable_spread()
        targets = {
            router.route(Request(i, 7, 0.001 * i), [0, 1, 2])
            for i in range(60)
        }
        assert len(targets) > 1, "spread mode must scatter a hot vertex"
        assert not router.pins

    def test_dead_pin_relearned_on_survivors(self, small_graph):
        Request = type(workload(small_graph, n=1)[0])
        router = PopularityRouter(seed=9, pin_after=1)
        first = router.route(Request(0, 5, 0.0), [0, 1, 2])
        assert router.pins[5] == first
        router.drop_replica(first)
        survivors = [r for r in (0, 1, 2) if r != first]
        again = router.route(Request(1, 5, 0.1), survivors)
        assert again in survivors
        assert router.pins[5] == again


class TestBitIdentity:
    def test_fleet_predictions_match_single_server(self, fleet_parts):
        """The foundational invariant: replication is routing only."""
        graph, model, cluster, partitioning = fleet_parts
        requests = workload(graph)
        config = ServingConfig(batch_window_s=0.002, max_batch=32,
                               mode="local")
        single = InferenceServer(
            graph, model, cluster, partitioning, config=config
        ).serve(requests)
        for replicas in (1, 3):
            result = make_fleet(fleet_parts, replicas=replicas).serve(requests)
            assert result.predictions == single.predictions
            assert result.ledger.shed_count == 0
            assert len(result.ledger) == len(requests)

    def test_rerun_is_bit_identical(self, fleet_parts):
        requests = workload(fleet_parts[0])
        a = make_fleet(fleet_parts, replicas=3).serve(requests)
        b = make_fleet(fleet_parts, replicas=3).serve(requests)
        assert (
            [asdict(r) for r in a.ledger.records]
            == [asdict(r) for r in b.ledger.records]
        )
        assert a.ledger.to_dict() == b.ledger.to_dict()


class TestFailover:
    def test_crash_fails_over_with_zero_dropped_requests(self, fleet_parts):
        graph = fleet_parts[0]
        requests = workload(graph)
        crash_t = requests[70].arrival_s
        fleet = make_fleet(
            fleet_parts, replicas=2,
            replica_faults=crash_replica(1, crash_t),
        )
        result = fleet.serve(requests)
        assert result.failovers > 0
        assert result.ledger.shed_count == 0, (
            "every admitted request must be answered despite the crash"
        )
        assert len(result.predictions) == len(requests)
        events = [e for e in result.health_events
                  if e["event"] == "replica-dead"]
        assert [e["replica"] for e in events] == [1]
        # The dead replica took no traffic after it was declared dead.
        declared_segment = events[0]["segment"]
        later = [
            r for r in result.ledger.records
            if r.replica == 1 and r.req_id >= (declared_segment + 1) * 32
        ]
        assert not later

    def test_failover_predictions_still_exact(self, fleet_parts):
        graph, model, cluster, partitioning = fleet_parts
        requests = workload(graph)
        single = InferenceServer(
            graph, model, cluster, partitioning,
            config=ServingConfig(batch_window_s=0.002, max_batch=32,
                                 mode="local"),
        ).serve(requests)
        fleet = make_fleet(
            fleet_parts, replicas=2,
            replica_faults=crash_replica(1, requests[70].arrival_s),
        )
        assert fleet.serve(requests).predictions == single.predictions

    def test_failed_over_records_carry_detection_latency(self, fleet_parts):
        requests = workload(fleet_parts[0])
        fleet = make_fleet(
            fleet_parts, replicas=2,
            replica_faults=crash_replica(1, requests[70].arrival_s),
        )
        result = fleet.serve(requests)
        failed_over = [r for r in result.ledger.records if r.failover]
        assert failed_over
        for rec in failed_over:
            assert rec.degraded
            assert rec.latency_s is not None and rec.latency_s > 0

    def test_total_outage_sheds_everything(self, fleet_parts):
        requests = workload(fleet_parts[0], n=64)
        fleet = make_fleet(
            fleet_parts, replicas=1,
            replica_faults=crash_replica(0, 0.0),
        )
        result = fleet.serve(requests)
        assert result.ledger.shed_count == len(requests)


class TestHedging:
    def _straggling_fleet(self, fleet_parts, requests):
        # The slowdown opens after the baseline segments so the fleet
        # learns a healthy p99 first.  Unbatched serving keeps compute
        # (what the straggler inflates) dominant over queueing delay, so
        # the segment mean clears hedge_factor * baseline p99.
        start = requests[96].arrival_s
        faults = {1: FaultSchedule(
            [StragglerFault(worker=w, gpu_factor=60.0, start=start)
             for w in range(NODES)],
            seed=3,
        )}
        return make_fleet(
            fleet_parts, replicas=2, replica_faults=faults,
            serving=ServingConfig(
                batch_window_s=0.0, max_batch=1, mode="local",
            ),
        )

    def test_straggler_triggers_hedges(self, fleet_parts):
        requests = workload(fleet_parts[0], n=192)
        result = self._straggling_fleet(fleet_parts, requests).serve(requests)
        assert result.hedges_launched > 0
        hedged = [r for r in result.ledger.records if r.hedged]
        assert len(hedged) == result.hedges_won

    def test_hedging_is_deterministic(self, fleet_parts):
        requests = workload(fleet_parts[0], n=192)
        a = self._straggling_fleet(fleet_parts, requests).serve(requests)
        b = self._straggling_fleet(fleet_parts, requests).serve(requests)
        assert (
            [asdict(r) for r in a.ledger.records]
            == [asdict(r) for r in b.ledger.records]
        )
        assert a.hedges_launched == b.hedges_launched

    def test_healthy_fleet_never_hedges(self, fleet_parts):
        requests = workload(fleet_parts[0], n=192)
        result = make_fleet(fleet_parts, replicas=2).serve(requests)
        assert result.hedges_launched == 0
        assert not any(r.hedged for r in result.ledger.records)


class TestAutoscaler:
    def test_burn_streak_scales_out(self):
        scaler = SLOAutoscaler(AutoscalerConfig(
            target_p99_s=0.01, burn_windows=2, max_replicas=3,
        ))
        assert scaler.observe(0.05, 0.0, 2, 0.1) is None
        assert scaler.observe(0.05, 0.0, 2, 0.2) == "scale-out"
        # The streak resets after a decision.
        assert scaler.observe(0.05, 0.0, 3, 0.3) is None

    def test_idle_streak_scales_in(self):
        scaler = SLOAutoscaler(AutoscalerConfig(
            target_p99_s=1.0, idle_windows=2, min_replicas=1,
        ))
        assert scaler.observe(0.01, 0.0, 2, 0.1) is None
        assert scaler.observe(0.01, 0.0, 2, 0.2) == "scale-in"

    def test_replica_caps_respected(self):
        scaler = SLOAutoscaler(AutoscalerConfig(
            target_p99_s=0.01, burn_windows=1, max_replicas=2,
            idle_windows=1, min_replicas=1,
        ))
        assert scaler.observe(0.05, 0.0, 2, 0.1) is None  # at max
        assert scaler.observe(0.001, 0.0, 1, 0.2) is None  # at min

    def test_scale_out_charges_transition_and_gates_routing(
        self, fleet_parts
    ):
        fleet = make_fleet(fleet_parts, replicas=1)
        event = fleet.scale_out(at_s=0.01, reason="test")
        assert event.transition_s > 0
        assert event.migrated_bytes > 0
        group = fleet.group(event.replica)
        assert group.ready_at_s >= 0.01 + event.transition_s
        assert fleet.active_replicas(0.01) == [0]
        assert fleet.active_replicas(group.ready_at_s) == [0, event.replica]

    def test_sustained_burn_scales_the_fleet_out(self, fleet_parts):
        graph = fleet_parts[0]
        requests = workload(graph, n=192, rate=8000.0)
        fleet = make_fleet(
            fleet_parts, replicas=1,
            autoscaler=AutoscalerConfig(
                target_p99_s=1e-5, burn_windows=2, max_replicas=2,
            ),
        )
        result = fleet.serve(requests)
        actions = [e.action for e in result.scaling_events]
        assert "scale-out" in actions
        assert result.summary()["num_replicas_started"] == 2
        assert result.ledger.shed_count == 0

    def test_sustained_idle_scales_the_fleet_in(self, fleet_parts):
        graph = fleet_parts[0]
        requests = workload(graph, n=192, rate=1000.0)
        fleet = make_fleet(
            fleet_parts, replicas=2,
            autoscaler=AutoscalerConfig(
                target_p99_s=10.0, idle_windows=2, min_replicas=1,
            ),
        )
        result = fleet.serve(requests)
        actions = [e.action for e in result.scaling_events]
        assert "scale-in" in actions
        assert result.summary()["num_replicas_final"] == 1
        assert result.ledger.shed_count == 0


class TestOpsMode:
    def test_self_heal_off_keeps_the_levers_manual(self, fleet_parts):
        requests = workload(fleet_parts[0])
        fleet = make_fleet(
            fleet_parts, replicas=2, self_heal=False,
            replica_faults=crash_replica(1, requests[70].arrival_s),
        )
        result = fleet.serve(requests)
        # No automatic response: the dead replica's traffic stays shed.
        assert result.failovers == 0
        assert not result.health_events
        assert result.ledger.shed_count > 0
        # The quarantine lever still works and routes traffic away.
        more = workload(fleet_parts[0], seed=12)
        fleet.quarantine(1)
        assert fleet.health_events[-1]["event"] == "replica-quarantined"
        before = len(fleet.final_records())
        fleet.serve(more)
        new = fleet.final_records()[before:]
        assert all(r.replica != 1 for r in new if not r.shed)


class TestValidation:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(replicas=0)
        with pytest.raises(ValueError):
            FleetConfig(health_every=0)
        with pytest.raises(ValueError):
            FleetConfig(hedge_factor=1.0)
        with pytest.raises(ValueError):
            FleetConfig(baseline_segments=0)


def test_fleet_rejects_out_of_range_vertex(fleet_parts):
    graph = fleet_parts[0]
    requests = workload(graph, n=40)
    requests[7] = Request(
        req_id=7, vertex=graph.num_vertices, arrival_s=requests[7].arrival_s
    )
    with pytest.raises(
        ValueError,
        match=rf"request 7: vertex {graph.num_vertices} is not a vertex id",
    ):
        make_fleet(fleet_parts).serve(requests)
