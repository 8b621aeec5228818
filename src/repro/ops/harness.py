"""Materialise and run one ops problem end-to-end.

:func:`run_problem` is a pure function of ``(problem, seed, mitigate)``:
every random choice -- graph topology, features, model init, fault
jitter, workload arrivals -- draws from a sub-seed derived from the one
run seed via :func:`repro.utils.rng.derive_rng` under the ``"ops"``
namespace, so two runs with the same arguments produce bit-identical
observation streams, verdicts, and grades (the property the recorder's
replay test asserts).

Training problems charge epochs on a healthy *twin* engine first to
measure the clean epoch duration; the fault schedule and the grading
budgets (expressed in epochs by the spec) are converted to simulated
seconds with it.  The monitored run then feeds per-epoch
:class:`~repro.ops.signals.EpochObservation` deltas through the
detection pipeline, applies the problem's mitigation when a verdict
lands, and keeps charging epochs so the evaluator can observe the
recovery.  Serving and fleet problems segment the workload into
fixed-size request windows; each served window is one unit.

Whatever the unit, the monitored half is one :class:`_Monitor` step --
append the observation, feed the pipeline until its first verdict,
apply the problem's mitigation once -- and one grading builder and one
:class:`OpsRunResult` constructor close every run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cache.budget import CacheConfig
from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import Timeline
from repro.core.model import GNNModel
from repro.engines import make_engine
from repro.graph import generators
from repro.ops.detectors import DetectionPipeline, Verdict
from repro.ops.evaluators import ProblemGrade, grade_run
from repro.ops.mitigations import (
    MitigationRecord,
    mitigate_cache_refresh,
    mitigate_failover,
    mitigate_replan,
    mitigate_scale_out,
    mitigate_shed,
    mitigate_shrink,
)
from repro.ops.problem import GroundTruth, OpsProblem
from repro.ops.signals import (
    FleetWindowObservation,
    TimelineObserver,
    WindowObservation,
    summarise_windows,
)
from repro.partition import get_partitioner
from repro.resilience.faults import (
    FaultSchedule,
    LinkDegradationFault,
    StragglerFault,
    WorkerCrashError,
    WorkerCrashFault,
)
from repro.utils.rng import derive_rng

#: One injected cache-thrash collapses the staleness bound to this.
_THRASH_TAU = 0.0


def derive_sub_seed(seed: int, *stream: object) -> int:
    """One 31-bit sub-seed per named stream under the ``"ops"`` root."""
    return int(derive_rng(seed, "ops", *stream).integers(2 ** 31))


@dataclass
class OpsRunResult:
    """Everything one problem run produced (the bundle's source)."""

    problem: OpsProblem
    seed: int
    mitigate: bool
    ground_truth: GroundTruth
    pipeline_params: Dict[str, float]
    observations: List[object]
    verdict: Optional[Verdict]
    mitigation: Optional[MitigationRecord]
    aborted: bool
    grading: Dict[str, object]
    grade: ProblemGrade
    timeline: Timeline
    clean_unit_s: float
    ledger_records: List[Dict[str, object]] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.problem.name


# ----------------------------------------------------------------------
def _build_graph(problem: OpsProblem, seed: int):
    g = generators.community(
        problem.graph_vertices,
        problem.graph_communities,
        avg_degree=problem.avg_degree,
        seed=derive_sub_seed(seed, "graph"),
    )
    generators.attach_features(
        g,
        problem.feature_dim,
        problem.num_classes,
        seed=derive_sub_seed(seed, "features"),
        class_signal=2.0,
    )
    return g


def _build_model(problem: OpsProblem, graph, seed: int) -> GNNModel:
    return GNNModel.build(
        problem.arch,
        graph.feature_dim,
        problem.hidden_dim,
        graph.num_classes,
        seed=derive_sub_seed(seed, "model"),
    )


def _pipeline_for(problem: OpsProblem) -> DetectionPipeline:
    params: Dict[str, float] = {
        "warmup_epochs": problem.warmup_epochs,
        "baseline_windows": problem.baseline_epochs,
    }
    params.update(problem.detector_params)
    return DetectionPipeline(**params)


def _wrong_lever(problem: OpsProblem) -> ValueError:
    return ValueError(
        f"mitigation {problem.mitigation!r} needs a "
        f"{problem.workload} workload"
    )


class _Monitor:
    """The watched half of a run: stream, first verdict, one mitigation."""

    def __init__(self, problem: OpsProblem, mitigate: bool):
        self.pipeline = _pipeline_for(problem)
        self.mitigate = mitigate
        self.observations: List[object] = []
        self.verdict: Optional[Verdict] = None
        self.mitigation: Optional[MitigationRecord] = None

    def step(
        self, obs, apply: Callable[[Verdict], MitigationRecord]
    ) -> bool:
        """Record one unit; on the first verdict pull ``apply`` once.

        Returns whether this very step applied the mitigation.
        """
        self.observations.append(obs)
        if self.verdict is None:
            self.verdict = self.pipeline.observe(obs)
            if self.verdict is not None and self.mitigate:
                self.mitigation = apply(self.verdict)
                return True
        return False


@dataclass
class _Outcome:
    """What a workload driver hands back besides the monitored stream."""

    truth: GroundTruth
    timeline: Timeline
    unit_s: float  # healthy epoch / window duration
    aborted: bool = False
    ledger: List[object] = field(default_factory=list)


def _grading(
    problem: OpsProblem, observations: List[object], unit_s: float
) -> Dict[str, object]:
    """The grading parameters a bundle records, budgets in seconds."""
    training = problem.workload == "training"
    # Epochs count from 1 (after the warm-up), windows from 0.
    first = problem.warmup_epochs + 1 if training else 0
    baseline = [
        o for o in observations
        if hasattr(o, "duration")
        and first <= o.unit < first + problem.baseline_epochs
    ]
    baseline_duration, baseline_p95 = unit_s, None
    if training:
        criterion = "refresh" if problem.kind == "cache-thrash" else "duration"
        if baseline:
            baseline_duration = float(np.mean([o.duration for o in baseline]))
    else:
        criterion = "shed" if problem.kind == "replica-crash" else "p95"
        if baseline:
            baseline_p95 = float(np.mean([o.p95_s for o in baseline]))
    return {
        "criterion": criterion,
        "baseline_duration": baseline_duration,
        "baseline_p95": baseline_p95,
        "recovered_factor": problem.recovered_factor,
        "ttd_budget_s": problem.ttd_budget_epochs * unit_s,
        "recovery_budget_s": problem.recovery_budget_epochs * unit_s,
        "regression_allowance": problem.regression_allowance,
        "refresh_threshold": problem.refresh_recovery_threshold,
    }


def run_problem(
    problem: OpsProblem, seed: int = 0, mitigate: bool = True
) -> OpsRunResult:
    """Run one registered problem; see the module docstring."""
    monitor = _Monitor(problem, mitigate)
    out = _DRIVERS[problem.workload](problem, seed, monitor)
    grading = _grading(problem, monitor.observations, out.unit_s)
    grade = grade_run(
        monitor.observations, monitor.verdict, out.truth,
        applied=monitor.mitigation is not None,
        grading=grading, aborted=out.aborted,
    )
    return OpsRunResult(
        problem=problem, seed=seed, mitigate=mitigate,
        ground_truth=out.truth,
        pipeline_params=monitor.pipeline.params(),
        observations=monitor.observations,
        verdict=monitor.verdict, mitigation=monitor.mitigation,
        aborted=out.aborted, grading=grading, grade=grade,
        timeline=out.timeline, clean_unit_s=out.unit_s,
        ledger_records=[
            asdict(r) for r in sorted(out.ledger, key=lambda r: r.req_id)
        ],
    )


# ----------------------------------------------------------------------
# Training problems.
def _fault_schedule(
    problem: OpsProblem, start_s: float, seed: int, unit_s: float
) -> Optional[FaultSchedule]:
    fault_seed = derive_sub_seed(seed, "faults")
    if problem.kind in ("straggler", "slo-burn"):
        return FaultSchedule([StragglerFault(
            worker=problem.fault_worker,
            gpu_factor=problem.gpu_factor,
            cpu_factor=1.0,
            start=start_s,
        )], seed=fault_seed)
    if problem.kind == "link":
        return FaultSchedule([LinkDegradationFault(
            src=problem.fault_worker,
            dst=None,
            bandwidth_factor=problem.bandwidth_factor,
            extra_latency_s=problem.extra_latency_s,
            start=start_s,
        )], seed=fault_seed)
    if problem.kind == "crash":
        # The failure detector's timeout scales with the workload: one
        # epoch of silence (the library default of 50ms would dwarf the
        # sub-millisecond epochs of these benchmark graphs and turn the
        # TTD grade into a constant).
        return FaultSchedule([WorkerCrashFault(
            worker=problem.fault_worker,
            at_time=start_s,
            detection_timeout_s=unit_s,
            permanent=True,
        )], seed=fault_seed)
    return None  # cache-thrash injects via the cache config, not faults


def _ground_truth(problem: OpsProblem, start_s: float) -> GroundTruth:
    if problem.kind == "link":
        return GroundTruth(
            kind="link", start_s=start_s,
            link=(problem.fault_worker, None),
        )
    return GroundTruth(
        kind=problem.kind, start_s=start_s, worker=problem.fault_worker,
    )


def _cached_layer(engine) -> Optional[int]:
    """1-based layer holding the most cached deps (thrash ground truth)."""
    plan = engine.plan()
    sizes = [
        sum(len(h) for h in per_layer) for per_layer in plan.stale_deps
    ]
    if not sizes or max(sizes) == 0:
        return None
    return int(np.argmax(sizes)) + 1


def _run_training(
    problem: OpsProblem, seed: int, monitor: _Monitor
) -> _Outcome:
    graph = _build_graph(problem, seed)
    cluster = ClusterSpec.ecs(problem.nodes)
    engine_kwargs: Dict[str, object] = {}
    if problem.tau is not None:
        engine_kwargs["cache_config"] = CacheConfig(tau=problem.tau)

    # Healthy twin: measures the clean epoch for fault placement and
    # budget conversion (epochs -> simulated seconds).
    twin = make_engine(
        problem.engine, graph, _build_model(problem, graph, seed),
        cluster, **engine_kwargs,
    )
    clean_durations = []
    for e in range(1, problem.warmup_epochs + problem.baseline_epochs + 1):
        dur = twin.charge_epoch()
        if e > problem.warmup_epochs:
            clean_durations.append(dur)
    clean_epoch_s = float(np.mean(clean_durations))

    inject_t = problem.inject_epoch * clean_epoch_s
    schedule = _fault_schedule(problem, inject_t, seed, clean_epoch_s)
    run_cluster = (
        cluster.with_faults(schedule) if schedule is not None else cluster
    )
    # The monitored engine records its timeline: the bundle ships a
    # chrome trace of the degraded run (the twin stays unrecorded).
    engine = make_engine(
        problem.engine, graph, _build_model(problem, graph, seed),
        run_cluster, record_timeline=True, **engine_kwargs,
    )
    observer = TimelineObserver(engine)
    truth = _ground_truth(problem, inject_t)
    aborted = False

    def apply(verdict, crash=None):
        """Dispatch the spec'd mitigation (a crash always shrinks)."""
        nonlocal engine
        if crash is not None or problem.mitigation == "shrink":
            engine, record = mitigate_shrink(engine, verdict, crash=crash)
            observer.rebind(engine)
            return record
        if problem.mitigation == "replan":
            return mitigate_replan(engine, verdict)
        if problem.mitigation == "cache-refresh":
            return mitigate_cache_refresh(engine, verdict, problem)
        raise _wrong_lever(problem)

    for epoch in range(1, problem.epochs + 1):
        if problem.kind == "cache-thrash" and epoch == problem.inject_epoch:
            truth = GroundTruth(
                kind="cache-thrash",
                start_s=engine.timeline.makespan,
                layer=_cached_layer(engine),
            )
            engine.cache_config = CacheConfig(tau=_THRASH_TAU)
        try:
            engine.charge_epoch()
        except WorkerCrashError as crash:
            # The epoch is lost either way; the run survives only if
            # this very crash is what gets mitigated (with the real
            # error), not when unmitigated or with the lever spent.
            if not monitor.step(
                observer.crash_observation(epoch, crash),
                lambda verdict: apply(verdict, crash),
            ):
                aborted = True
                break
            continue
        monitor.step(observer.observe(epoch), apply)

    return _Outcome(truth, engine.timeline, clean_epoch_s, aborted)


# ----------------------------------------------------------------------
# Serving and fleet problems: one unit per served request window.
def _serve_windows(
    problem: OpsProblem, workload, serve, records, cls,
    monitor: _Monitor, apply,
) -> None:
    """Serve ``workload`` window by window, observing each one served.

    ``serve`` takes the window's requests; ``records`` returns the
    ledger so far, from which the window just served is summarised as a
    ``cls`` observation (a window with no ledger row yields none).
    """
    width = problem.window_requests
    for wi in range(len(workload) // width):
        serve(workload[wi * width:(wi + 1) * width])
        for obs in summarise_windows(
            records(), width, cls, problem.nodes, window=wi
        ):
            monitor.step(obs, apply)


def _serving_setup(problem: OpsProblem, seed: int):
    """The ``(graph, model, cluster, partitioning)`` a server is built on."""
    graph = _build_graph(problem, seed)
    return (
        graph,
        _build_model(problem, graph, seed),
        ClusterSpec.ecs(problem.nodes),
        get_partitioner("chunk")(graph, problem.nodes),
    )


def _serving_config(problem: OpsProblem):
    from repro.serving import ServingConfig

    return ServingConfig(
        batch_window_s=problem.batch_window_s,
        max_batch=problem.max_batch,
        tau_s=0.0,
        mode="local",
    )


def _workload(problem: OpsProblem, seed: int):
    """Workload plus the injection time, both pure in ``(problem, seed)``.

    For hotspot-burn the stream is generated twice: a burst-free pass
    locates the injection request's arrival, then the final pass adds a
    :class:`BurstPhase` starting exactly there.  The pre-burst prefix is
    identical between passes (the arrival process draws sequentially at
    the same rates until the burst opens), so the injection time read
    off pass one is exact for pass two.
    """
    from repro.serving import BurstPhase, WorkloadConfig, generate_workload

    base = WorkloadConfig(
        num_requests=problem.requests,
        rate_rps=problem.rate_rps,
        zipf_exponent=problem.zipf,
        seed=derive_sub_seed(seed, "workload"),
    )
    workload = generate_workload(base, problem.graph_vertices)
    inject_t = workload[problem.inject_request].arrival_s
    if problem.kind == "hotspot-burn":
        burst = BurstPhase(
            start_s=inject_t,
            end_s=inject_t + problem.requests / problem.rate_rps,
            rate_multiplier=problem.burst_multiplier,
        )
        workload = generate_workload(
            replace(base, bursts=(burst,)), problem.graph_vertices
        )
    return workload, inject_t


def _run_serving(
    problem: OpsProblem, seed: int, monitor: _Monitor
) -> _Outcome:
    from repro.serving import InferenceServer
    from repro.serving.slo import LatencyLedger

    workload, inject_t = _workload(problem, seed)
    window_s = problem.window_requests / problem.rate_rps
    server = InferenceServer(
        *_serving_setup(problem, seed),
        config=_serving_config(problem),
        faults=_fault_schedule(problem, inject_t, seed, window_s),
    )
    # Continuation state the harness owns across window segments; the
    # server mutates these in place (see InferenceServer.serve).
    timeline = Timeline(problem.nodes)
    ledger = LatencyLedger()
    state = dict(
        timeline=timeline, ledger=ledger, predictions={}, inflight=[],
    )
    _serve_windows(
        problem, workload,
        lambda segment: server.serve(segment, **state),
        lambda: ledger.records, WindowObservation, monitor,
        lambda verdict: mitigate_shed(server, verdict, problem),
    )
    return _Outcome(
        _ground_truth(problem, inject_t), timeline, window_s,
        ledger=ledger.records,
    )


# ----------------------------------------------------------------------
# Fleet problems (replicated serving groups).
def _fleet_truth(
    problem: OpsProblem, workload, inject_t: float, fleet_seed: int
) -> GroundTruth:
    """Ground truth for a fleet problem (pure; detectors never see it)."""
    if problem.kind == "replica-crash":
        return GroundTruth(
            kind="replica-crash", start_s=inject_t,
            worker=problem.fault_replica,
        )
    # Hotspot-burn: the blamed replica is wherever the router's
    # rendezvous hash (and therefore the popularity pin) lands the
    # globally hottest vertex.
    from repro.serving import PopularityRouter

    counts: Dict[int, int] = {}
    for r in workload:
        counts[r.vertex] = counts.get(r.vertex, 0) + 1
    hot_vertex = min(counts, key=lambda v: (-counts[v], v))
    router = PopularityRouter(seed=fleet_seed)
    blamed = router.rendezvous(hot_vertex, list(range(problem.replicas)))
    return GroundTruth(
        kind="hotspot-burn", start_s=inject_t, worker=blamed,
    )


def _run_fleet(
    problem: OpsProblem, seed: int, monitor: _Monitor
) -> _Outcome:
    from repro.serving import FleetConfig, ServingFleet

    workload, inject_t = _workload(problem, seed)
    window_s = problem.window_requests / problem.rate_rps

    replica_faults = None
    if problem.kind == "replica-crash":
        # Every worker of the blamed replica's serving group goes dark
        # at the injection time: the group sheds everything after it.
        replica_faults = {
            problem.fault_replica: FaultSchedule(
                [
                    WorkerCrashFault(
                        worker=w, at_time=inject_t,
                        detection_timeout_s=window_s, permanent=True,
                    )
                    for w in range(problem.nodes)
                ],
                seed=derive_sub_seed(seed, "faults"),
            )
        }

    fleet_seed = derive_sub_seed(seed, "fleet")
    config = FleetConfig(
        replicas=problem.replicas,
        serving=_serving_config(problem),
        seed=fleet_seed,
        health_every=problem.window_requests,
        baseline_segments=problem.baseline_epochs,
        self_heal=False,  # the graded pipeline + mitigation respond
    )
    fleet = ServingFleet(
        *_serving_setup(problem, seed),
        config=config, replica_faults=replica_faults,
    )

    def apply(verdict):
        if problem.mitigation == "failover":
            return mitigate_failover(fleet, verdict)
        if problem.mitigation == "scale-out":
            return mitigate_scale_out(fleet, verdict)
        raise _wrong_lever(problem)

    _serve_windows(
        problem, workload, fleet.serve, fleet.final_records,
        FleetWindowObservation, monitor, apply,
    )
    return _Outcome(
        truth=_fleet_truth(problem, workload, inject_t, fleet_seed),
        timeline=fleet.groups[0].timeline,
        unit_s=window_s,
        ledger=fleet.final_records(),
    )


_DRIVERS = {
    "training": _run_training,
    "serving": _run_serving,
    "fleet": _run_fleet,
}

__all__ = ["OpsRunResult", "run_problem", "derive_sub_seed"]
