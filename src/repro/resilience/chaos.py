"""The chaos harness: run an engine under a fault schedule, report damage.

:func:`run_chaos` runs the same workload twice -- once on the healthy
cluster, once with the fault schedule injected -- and reports the
degradation ratio, retry traffic, idle (stall) time, and any
checkpoint-rollback recoveries.  Two modes:

- ``timing`` (default): per-epoch cost via ``charge_epoch`` -- fast,
  no numerics; crashes still trigger the recovery path, with the lost
  epochs since the last checkpoint replayed.
- ``train``: full :class:`~repro.training.resilient.ResilientTrainer`
  run with real loss numerics; crashes roll model + optimizer back to
  the last checkpoint.

The recovery *strategy* comes from the policy (or the ``recovery``
shorthand): ``restart`` provisions a replacement and replays,
``shrink`` absorbs the dead partition into the survivors
(:mod:`repro.resilience.elastic`), ``auto`` picks per crash.

The harness backs the ``repro chaos`` CLI subcommand and
``benchmarks/bench_chaos_resilience.py`` / ``bench_elastic.py``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional

from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import IDLE
from repro.comm.scheduler import CommOptions
from repro.resilience.elastic import CrashRecovery
from repro.resilience.faults import FaultSchedule, WorkerCrashError
from repro.resilience.recovery import RecoveryEvent, RecoveryPolicy
from repro.resilience.retry import RetryPolicy

MODES = ("timing", "train")


@dataclass
class ChaosReport:
    """What one chaos run did to one engine."""

    engine: str
    mode: str
    epochs: int
    clean_epoch_s: float
    makespan_s: float
    retries: int
    retry_wait_s: float
    idle_s: float
    recoveries: List[RecoveryEvent] = field(default_factory=list)
    final_loss: float = float("nan")
    strategy: str = "restart"
    num_workers_final: int = 0

    @property
    def faulty_epoch_s(self) -> float:
        """Average modeled seconds per *useful* epoch, overheads included."""
        return self.makespan_s / self.epochs if self.epochs else 0.0

    @property
    def degradation(self) -> float:
        """How many times slower the faulty run is per epoch (>= ~1)."""
        if self.clean_epoch_s <= 0:
            return float("nan")
        return self.faulty_epoch_s / self.clean_epoch_s

    @property
    def total_recovery_s(self) -> float:
        return sum(e.recovery_s for e in self.recoveries)

    @property
    def idle_fraction(self) -> float:
        """Share of total worker-seconds spent stalled (waiting)."""
        denom = self.makespan_s
        if denom <= 0:
            return 0.0
        return self.idle_s / denom

    def to_dict(self) -> dict:
        """JSON-ready view (recovery events become plain dicts)."""
        payload = asdict(self)
        payload["faulty_epoch_s"] = self.faulty_epoch_s
        payload["degradation"] = self.degradation
        payload["total_recovery_s"] = self.total_recovery_s
        payload["idle_fraction"] = self.idle_fraction
        return payload


def _drain_stats(engine, acc: dict) -> None:
    """Fold a retiring engine's retry/idle stats into the accumulator."""
    injector = engine.faults
    if injector is not None:
        acc["retries"] += injector.total_retries
        acc["retry_wait_s"] += injector.total_retry_s
    acc["idle_s"] += float(engine.timeline.totals[IDLE].mean())


def run_chaos(
    engine_name: str,
    graph,
    model_factory: Callable[[], object],
    cluster: ClusterSpec,
    schedule: FaultSchedule,
    epochs: int = 5,
    comm: CommOptions = CommOptions.all(),
    retry: Optional[RetryPolicy] = None,
    policy: Optional[RecoveryPolicy] = None,
    mode: str = "timing",
    optimizer: str = "adam",
    lr: float = 0.01,
    recovery: Optional[str] = None,
    **engine_kwargs,
) -> ChaosReport:
    """Run ``epochs`` epochs of ``engine_name`` under ``schedule``.

    ``model_factory`` must return a *fresh* model per call (the clean
    baseline and the faulty run each get one, so the comparison starts
    from identical weights).  The ``schedule`` is consumed by the faulty
    run -- its crash bookkeeping mutates -- so pass a fresh one per call.
    ``recovery`` is shorthand for overriding the policy's strategy
    (``restart`` | ``shrink`` | ``auto``).
    """
    # Engines sit *above* resilience in the layering; import lazily.
    from repro.engines import make_engine

    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if epochs < 1:
        raise ValueError("epochs must be positive")
    policy = policy or RecoveryPolicy()
    if recovery is not None:
        policy = policy.with_strategy(recovery)

    clean_engine = make_engine(
        engine_name, graph, model_factory(), cluster.healthy(),
        comm=comm, **engine_kwargs,
    )
    clean_epoch_s = clean_engine.charge_epoch()

    faulty_cluster = cluster.with_faults(schedule)
    engine = make_engine(
        engine_name, graph, model_factory(), faulty_cluster,
        comm=comm, retry=retry, **engine_kwargs,
    )

    recoveries: List[RecoveryEvent] = []
    final_loss = float("nan")
    acc = {"retries": 0, "retry_wait_s": 0.0, "idle_s": 0.0}
    if mode == "timing":
        completed = 0
        last_checkpoint = 0
        recovery = CrashRecovery(policy)
        while completed < epochs:
            # A shrink or rejoin retires the running engine: its stats
            # are drained before the replacement takes over.
            running = engine
            try:
                engine.charge_epoch()
            except WorkerCrashError as crash:
                engine, event = recovery.on_crash(
                    running, crash, completed + 1, last_checkpoint
                )
                if engine is not running:
                    _drain_stats(running, acc)
                recoveries.append(event)
                engine.rollback_to_epoch(last_checkpoint)
                completed = last_checkpoint
                continue
            completed += 1
            engine, event = recovery.on_epoch_completed(running, completed)
            if event is not None:
                _drain_stats(running, acc)
                recoveries.append(event)
            if completed % policy.checkpoint_every == 0:
                last_checkpoint = completed
    else:
        from repro.training.resilient import ResilientTrainer

        trainer = ResilientTrainer(
            engine, policy=policy, optimizer=optimizer, lr=lr
        )
        history = trainer.train(epochs)
        recoveries = trainer.recoveries
        final_loss = history.final_loss
        engine = trainer.engine  # may have been reshaped by shrink/rejoin

    _drain_stats(engine, acc)
    timeline = engine.timeline
    return ChaosReport(
        engine=engine_name,
        mode=mode,
        epochs=epochs,
        clean_epoch_s=clean_epoch_s,
        makespan_s=timeline.makespan,
        retries=acc["retries"],
        retry_wait_s=acc["retry_wait_s"],
        idle_s=acc["idle_s"],
        recoveries=recoveries,
        final_loss=final_loss,
        strategy=policy.strategy,
        num_workers_final=engine.cluster.num_workers,
    )
