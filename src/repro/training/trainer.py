"""The distributed trainer: epochs, evaluation, time-to-accuracy.

Wraps an engine with an optimiser and drives training.  All reported
times are *modeled* cluster seconds read off the engine's timeline
(DESIGN.md section 5), while losses and accuracies are real numerics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.engines.base import EpochReport
from repro.tensor import optim


@dataclass(frozen=True)
class ConvergencePoint:
    """One accuracy measurement on the modeled-time axis (Figure 14)."""

    epoch: int
    time_s: float
    accuracy: float
    loss: float


@dataclass
class TrainingHistory:
    """Everything a training run produced."""

    engine_name: str
    reports: List[EpochReport] = field(default_factory=list)
    convergence: List[ConvergencePoint] = field(default_factory=list)
    # Epochs whose loss regression made the staleness-vs-accuracy guard
    # force a refresh (a crash rollback drops the ones it replays).
    forced_refresh_epochs: List[int] = field(default_factory=list)

    @property
    def forced_refreshes(self) -> int:
        return len(self.forced_refresh_epochs)

    @property
    def total_time_s(self) -> float:
        return sum(r.epoch_time_s for r in self.reports)

    @property
    def avg_epoch_time_s(self) -> float:
        if not self.reports:
            return 0.0
        return self.total_time_s / len(self.reports)

    @property
    def final_loss(self) -> float:
        return self.reports[-1].loss if self.reports else float("nan")

    def best_accuracy(self) -> float:
        if not self.convergence:
            return 0.0
        return max(p.accuracy for p in self.convergence)

    def time_to_accuracy(self, target: float) -> Optional[float]:
        """Modeled seconds until ``target`` accuracy was first reached."""
        for point in self.convergence:
            if point.accuracy >= target:
                return point.time_s
        return None


class DistributedTrainer:
    """Drives an engine for multiple epochs with an Adam optimiser.

    ``optimizer`` names the optimiser; Adam is the only one.
    """

    def __init__(self, engine, optimizer: str = "adam", lr: float = 0.01):
        if optimizer != "adam":
            raise ValueError(f"unknown optimizer {optimizer!r}")
        self.engine = engine
        self.optimizer = optim.Adam(engine.model.parameters(), lr=lr)

    def train(self, epochs: int, eval_every: int = 0) -> TrainingHistory:
        """Run ``epochs`` epochs; optionally evaluate every ``eval_every``."""
        if epochs < 1:
            raise ValueError("epochs must be positive")
        history = TrainingHistory(engine_name=self.engine.name)
        elapsed = 0.0
        # Staleness-vs-accuracy guard: with a cache config, a loss
        # regression on an epoch that served stale embeddings forces the
        # next epoch to refresh (exact values) rather than letting
        # approximation error compound within the tau window.
        guard_active = getattr(self.engine, "cache_config", None) is not None
        epoch = 1
        while epoch <= epochs:
            evaluate = eval_every and (epoch % eval_every == 0 or epoch == epochs)
            try:
                report = self.engine.run_epoch(optimizer=self.optimizer)
                accuracy = self.engine.evaluate() if evaluate else None
            except self.recoverable as failure:
                epoch = self._recover(failure, epoch, history)
                continue
            elapsed += report.epoch_time_s
            history.reports.append(report)
            if guard_active and len(history.reports) > 1:
                if (
                    not report.cache_refreshed
                    and report.loss > history.reports[-2].loss
                ):
                    self.engine.force_refresh()
                    history.forced_refresh_epochs.append(epoch)
            self._after_epoch(epoch)
            if accuracy is not None:
                history.convergence.append(
                    ConvergencePoint(
                        epoch=epoch,
                        time_s=self._time_s(elapsed),
                        accuracy=accuracy,
                        loss=report.loss,
                    )
                )
            epoch += 1
        return history

    # -- per-epoch steps a subclass may replace ------------------------
    # Exceptions ``train`` answers with ``_recover`` instead of raising.
    recoverable: Tuple[type, ...] = ()

    def _recover(self, failure, epoch: int, history: TrainingHistory) -> int:
        """Handle a ``recoverable`` failure of ``epoch``; returns the
        epoch to run next."""
        raise NotImplementedError

    def _after_epoch(self, epoch: int) -> None:
        """Runs after every completed epoch, before its time is read."""

    def _time_s(self, elapsed: float) -> float:
        """A convergence point's ``time_s``, given the summed
        ``epoch_time_s`` of the epochs in the history."""
        return elapsed
