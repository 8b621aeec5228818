"""Cluster health monitoring and online re-planning.

Algorithm 4's DepCache/DepComm decisions are made once, from constants
(``T_v``, ``T_e``, ``T_c``) probed on a *healthy* cluster.  A sustained
straggler or a degraded link silently invalidates them: the probed
``T_c`` says communication is cheap while the real link crawls.  The
:class:`ClusterHealthMonitor` closes the loop:

1. After every epoch it reads each worker's per-kind activity deltas
   off the timeline's :class:`~repro.cluster.timeline.TotalsDiff` (the
   differ the ops observer shares) -- compute is ``gpu + cpu`` seconds,
   communication is ``net_send + net_recv`` -- and normalises by the
   cluster *median*, so a slow worker stands out relative to its peers
   without needing a healthy baseline run.
2. The per-worker ratios are smoothed with an EWMA into effective
   slowdown factors.
3. When a factor drifts past ``drift_threshold`` relative to the last
   re-plan, :meth:`worker_constants` scales the probed
   :class:`~repro.costmodel.probe.ProbeResult` per worker (compute
   factors scale ``T_v``/``T_e``, comm factors scale ``T_c``) and
   :meth:`repro.engines.base.BaseEngine.replan` re-runs the greedy --
   warm-started from the previous :class:`DependencyPartition`, so only
   the decision pass (not the measurement sweep) repeats.  Decisions
   then shift toward DepCache across degraded links and away from
   straggling workers mid-run.

Uniform per-worker scaling preserves each worker's ``t_r`` ordering,
which is exactly what makes the warm start's seeded heap order correct.

:func:`run_replan_sweep` is the comparison harness behind the
``repro replan-sweep`` CLI subcommand: the same faulty workload with
re-planning off and on.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Optional

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import (
    CPU, GPU, NET_RECV, NET_SEND, Timeline, TotalsDiff,
)
from repro.comm.scheduler import CommOptions
from repro.costmodel.probe import ProbeResult
from repro.resilience.faults import FaultSchedule

#: Factors within this band of 1.0 are considered healthy and get no
#: constants override (avoids churning the plan on noise).
_OVERRIDE_EPSILON = 0.05


class ClusterHealthMonitor:
    """EWMA estimator of per-worker effective slowdown factors.

    Parameters
    ----------
    num_workers:
        Cluster size the monitored timeline was built for.
    alpha:
        EWMA smoothing weight for new observations (1.0 = no memory).
    drift_threshold:
        Relative factor change (vs. the last re-plan's factors) that
        :meth:`drifted` reports as re-plan-worthy.
    min_observations:
        Epochs observed before :meth:`drifted` may fire (damps the
        first noisy diffs after start or re-plan).
    """

    def __init__(
        self,
        num_workers: int,
        alpha: float = 0.4,
        drift_threshold: float = 0.3,
        min_observations: int = 2,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be positive")
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if drift_threshold <= 0:
            raise ValueError("drift_threshold must be positive")
        if min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        self.num_workers = num_workers
        self.alpha = alpha
        self.drift_threshold = drift_threshold
        self.min_observations = min_observations
        self.compute_factors = np.ones(num_workers)
        self.comm_factors = np.ones(num_workers)
        self.observations = 0
        self._totals: Optional[TotalsDiff] = None
        # Factors at the last re-plan; drift is measured against these.
        self._ref_compute = np.ones(num_workers)
        self._ref_comm = np.ones(num_workers)

    # ------------------------------------------------------------------
    def observe(self, timeline: Timeline) -> None:
        """Fold one epoch's timeline deltas into the factor estimates."""
        if timeline.num_workers != self.num_workers:
            raise ValueError(
                f"timeline has {timeline.num_workers} workers, monitor "
                f"expects {self.num_workers}"
            )
        if self._totals is None:  # first sight: anchor, nothing to fold
            self._totals = TotalsDiff(timeline)
            return
        d = self._totals.deltas(timeline)
        self._fold(self.compute_factors, d[GPU] + d[CPU])
        self._fold(self.comm_factors, d[NET_SEND] + d[NET_RECV])
        self.observations += 1

    def _fold(self, factors: np.ndarray, deltas: np.ndarray) -> None:
        median = float(np.median(deltas))
        if median <= 0:
            return  # nothing of this kind happened this epoch
        observed = np.maximum(deltas / median, 1e-6)
        factors *= (observed / factors) ** self.alpha

    # ------------------------------------------------------------------
    def drifted(self) -> bool:
        """Whether factors moved enough (vs. last re-plan) to re-plan."""
        if self.observations < self.min_observations:
            return False
        drift = max(
            float(np.abs(self.compute_factors / self._ref_compute - 1.0).max()),
            float(np.abs(self.comm_factors / self._ref_comm - 1.0).max()),
        )
        return drift > self.drift_threshold

    def mark_replanned(self) -> None:
        """Re-anchor drift detection after a re-plan was applied."""
        self._ref_compute = self.compute_factors.copy()
        self._ref_comm = self.comm_factors.copy()
        self.observations = 0

    # ------------------------------------------------------------------
    def worker_constants(self, base: ProbeResult) -> Dict[int, ProbeResult]:
        """Per-worker effective constants for the re-plan.

        Workers within ``_OVERRIDE_EPSILON`` of healthy get no entry
        (they keep planning with the shared probe); the rest get
        ``base`` with compute costs scaled by their compute factor and
        communication costs by their comm factor.
        """
        overrides: Dict[int, ProbeResult] = {}
        for w in range(self.num_workers):
            fc = float(self.compute_factors[w])
            fx = float(self.comm_factors[w])
            if (
                abs(fc - 1.0) <= _OVERRIDE_EPSILON
                and abs(fx - 1.0) <= _OVERRIDE_EPSILON
            ):
                continue
            overrides[w] = replace(
                base,
                t_v=base.t_v * fc,
                t_e=base.t_e * fc,
                t_c=base.t_c * fx,
                t_v_layer=[t * fc for t in base.t_v_layer],
                t_e_layer=[t * fc for t in base.t_e_layer],
                t_c_layer=[t * fx for t in base.t_c_layer],
            )
        return overrides

    def maybe_replan(self, engine, check: bool = True) -> bool:
        """Re-plan ``engine`` if drift warrants it; returns whether it did."""
        if not check or not self.drifted():
            return False
        engine.plan()  # ensures constants are probed
        engine.replan(self.worker_constants(engine.constants))
        self.mark_replanned()
        return True


def run_replan_sweep(
    engine_name: str,
    graph,
    model_factory: Callable[[], object],
    cluster: ClusterSpec,
    schedule_factory: Callable[[], FaultSchedule],
    epochs: int = 10,
    comm: CommOptions = CommOptions.all(),
    check_every: int = 1,
    alpha: float = 0.4,
    drift_threshold: float = 0.3,
    **engine_kwargs,
) -> Dict[str, float]:
    """Static vs. adaptive planning under the same fault schedule.

    Runs ``epochs`` timing-mode epochs twice: once with the plan frozen
    at its healthy-probe decisions, once with a
    :class:`ClusterHealthMonitor` watching the timeline and re-planning
    on drift.  ``schedule_factory`` must return a fresh schedule per
    call (stragglers / link degradations; crashes belong to the chaos
    harness).  Returns a flat dict ready for table or JSON output.
    """
    from repro.engines import make_engine

    if epochs < 1:
        raise ValueError("epochs must be positive")
    if check_every < 1:
        raise ValueError("check_every must be >= 1")

    def build():
        return make_engine(
            engine_name,
            graph,
            model_factory(),
            cluster.with_faults(schedule_factory()),
            comm=comm,
            **engine_kwargs,
        )

    static = build()
    for _ in range(epochs):
        static.charge_epoch()
    static_makespan = static.timeline.makespan
    static_ratio = static.plan().cache_ratio()

    adaptive = build()
    monitor = ClusterHealthMonitor(
        cluster.num_workers, alpha=alpha, drift_threshold=drift_threshold
    )
    replans = 0
    for e in range(epochs):
        adaptive.charge_epoch()
        monitor.observe(adaptive.timeline)
        if monitor.maybe_replan(adaptive, check=(e + 1) % check_every == 0):
            replans += 1
    adaptive_makespan = adaptive.timeline.makespan
    adaptive_ratio = adaptive.plan().cache_ratio()

    return {
        "engine": engine_name,
        "epochs": epochs,
        "static_makespan_s": float(static_makespan),
        "adaptive_makespan_s": float(adaptive_makespan),
        "speedup": (
            float(static_makespan / adaptive_makespan)
            if adaptive_makespan > 0
            else float("nan")
        ),
        "replans": replans,
        "static_cache_ratio": float(static_ratio),
        "adaptive_cache_ratio": float(adaptive_ratio),
    }


__all__ = ["ClusterHealthMonitor", "run_replan_sweep"]
