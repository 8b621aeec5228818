"""Fault-tolerant training: checkpoints, crash handling, rollback-restart.

:class:`ResilientTrainer` extends the distributed trainer with the
recovery discipline described in :mod:`repro.resilience.recovery`:

1. every ``checkpoint_every`` epochs it snapshots model **and**
   optimizer state (in memory; optionally to ``.npz`` checkpoints);
2. when a layer barrier detects a crashed worker (the engine raises
   :class:`~repro.resilience.faults.WorkerCrashError`), it asks the
   engine to charge the re-provisioning cost to the timeline --
   DepCache pays to rebuild its replicated closures, DepComm only
   re-fetches -- and rolls model + optimizer back to the last
   checkpoint;
3. the epochs since that checkpoint are replayed.  Because optimizer
   state is checkpointed, the replayed trajectory is bit-identical to
   an uninterrupted run; only the modeled clock shows the damage.

Under ``policy.strategy`` ``"shrink"`` (or ``"auto"`` with a permanent
crash / blown provisioning deadline) the trainer instead swaps the
engine for a reshaped (N-1)-worker one via
:func:`repro.resilience.elastic.shrink_engine` -- the model object is
shared, so the bound optimizer survives -- and training resumes from
the checkpoint on the smaller cluster, bit-identically to a healthy run
of that reshaped cluster from the same state.  With
``policy.rejoin_after_epochs`` set, the departed worker grows back in
after that many shrunk epochs (:func:`rejoin_engine`, no rollback).

An optional :class:`repro.resilience.health.ClusterHealthMonitor`
closes the online re-planning loop: it watches per-worker timeline
deltas each epoch and re-runs Algorithm 4 with scaled constants when
the estimates drift.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.resilience.elastic import CrashRecovery
from repro.resilience.faults import WorkerCrashError
from repro.resilience.health import ClusterHealthMonitor
from repro.resilience.recovery import RecoveryEvent, RecoveryPolicy
from repro.training.checkpoint import save_checkpoint
from repro.training.trainer import DistributedTrainer, TrainingHistory

_Snapshot = Tuple[int, Dict[str, np.ndarray], dict, Optional[dict]]


class ResilientTrainer(DistributedTrainer):
    """A :class:`DistributedTrainer` that survives worker crashes.

    Parameters
    ----------
    engine:
        Any engine built on :class:`repro.engines.base.BaseEngine`.  A
        fault schedule on its cluster makes crashes possible; without
        one the trainer behaves exactly like its parent (plus periodic
        snapshots).
    policy:
        Checkpoint cadence and recovery parameters.
    checkpoint_dir:
        Optional directory; when given, every snapshot is also written
        as ``epoch_NNNN.npz`` (with optimizer state) via
        :func:`repro.training.checkpoint.save_checkpoint`.
    health_monitor:
        Optional :class:`ClusterHealthMonitor`; when given, the trainer
        observes the timeline each epoch and re-plans the engine when
        the monitor reports drift (online re-planning).  ``None`` (the
        default) keeps the plan frozen -- bit-identical to pre-elastic
        behavior.
    """

    def __init__(
        self,
        engine,
        policy: Optional[RecoveryPolicy] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        health_monitor: Optional[ClusterHealthMonitor] = None,
        **kwargs,
    ):
        super().__init__(engine, **kwargs)
        self.policy = policy or RecoveryPolicy()
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.health_monitor = health_monitor
        self.recoveries: List[RecoveryEvent] = []
        self.replans = 0
        self._recovery = CrashRecovery(self.policy)

    @property
    def total_recovery_s(self) -> float:
        return sum(e.recovery_s for e in self.recoveries)

    @property
    def num_workers(self) -> int:
        """Current cluster size (changes across shrink/rejoin)."""
        return self.engine.cluster.num_workers

    # ------------------------------------------------------------------
    def _snapshot(self, epoch: int) -> _Snapshot:
        model_state = self.engine.model.state_dict()  # already copies
        opt_state = self.optimizer.state_dict()
        # Sampled engines carry draw state (the legacy sequential
        # stream's position); checkpointing it makes the replayed
        # trajectory redraw the same mini-batches.
        sampler_fn = getattr(self.engine, "sampler_state", None)
        sampler_state = sampler_fn() if callable(sampler_fn) else None
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
            save_checkpoint(
                self.engine.model,
                self.checkpoint_dir / f"epoch_{epoch:04d}",
                optimizer=self.optimizer,
                epoch=epoch,
                engine=self.engine.name,
            )
        return epoch, model_state, opt_state, sampler_state

    def _restore(self, snapshot: _Snapshot) -> int:
        epoch, model_state, opt_state, sampler_state = snapshot
        self.engine.model.load_state_dict(model_state)
        self.optimizer.load_state_dict(opt_state)
        self.optimizer.zero_grad()
        self.engine.rollback_to_epoch(epoch)
        if sampler_state is not None:
            loader = getattr(self.engine, "load_sampler_state", None)
            if callable(loader):
                loader(sampler_state)
        return epoch

    recoverable = (WorkerCrashError,)

    def _recover(
        self, crash: WorkerCrashError, epoch: int, history: TrainingHistory
    ) -> int:
        """Recover, roll back, and return the epoch to resume from."""
        self.engine, event = self._recovery.on_crash(
            self.engine, crash, epoch, self._last_snapshot[0]
        )
        ckpt_epoch = self._restore(self._last_snapshot)
        # The epochs past the checkpoint will be replayed; drop their
        # records so the history reflects one consistent trajectory.
        del history.reports[ckpt_epoch:]
        history.convergence = [
            p for p in history.convergence if p.epoch <= ckpt_epoch
        ]
        history.forced_refresh_epochs = [
            e for e in history.forced_refresh_epochs if e <= ckpt_epoch
        ]
        self.recoveries.append(event)
        return ckpt_epoch + 1

    def _observe_health(self) -> None:
        """Feed the health monitor; re-plan when it reports drift."""
        monitor = self.health_monitor
        if monitor is None:
            return
        timeline = self.engine.timeline
        if monitor.num_workers != timeline.num_workers:
            # Cluster was reshaped since the last observation; restart
            # the estimator at the new size.
            monitor = ClusterHealthMonitor(
                timeline.num_workers,
                alpha=monitor.alpha,
                drift_threshold=monitor.drift_threshold,
                min_observations=monitor.min_observations,
            )
            self.health_monitor = monitor
        monitor.observe(timeline)
        if monitor.maybe_replan(self.engine):
            self.replans += 1

    def _after_epoch(self, epoch: int) -> None:
        """Rejoin when the policy says so, watch health, checkpoint."""
        self.engine, event = self._recovery.on_epoch_completed(
            self.engine, epoch
        )
        if event is not None:
            self.recoveries.append(event)
        self._observe_health()
        if epoch % self.policy.checkpoint_every == 0:
            self._last_snapshot = self._snapshot(epoch)

    def _time_s(self, elapsed: float) -> float:
        """Makespan since ``train()`` began: recovery, rejoin and
        re-planning included, unlike the parent's sum of epoch times."""
        return self.engine.timeline.makespan - self._t_origin

    # ------------------------------------------------------------------
    def train(self, *args, **kwargs) -> TrainingHistory:
        """Run the parent's loop, surviving scheduled worker crashes.

        Semantics match :meth:`DistributedTrainer.train`; additionally
        every crash episode is appended to :attr:`recoveries` and the
        modeled recovery time is visible on the engine's timeline (the
        convergence points' ``time_s`` axis includes it).
        """
        self._t_origin = self.engine.timeline.makespan
        self._last_snapshot = self._snapshot(0)
        return super().train(*args, **kwargs)
