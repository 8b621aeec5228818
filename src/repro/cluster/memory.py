"""Per-worker device memory accounting.

Engines register every resident tensor (features, cached dependency
closures, per-layer activations, edge tensors) against a budget; going
over raises :class:`OutOfMemoryError`, reproducing the paper's "OOM"
table entries.  Labels make the error actionable and let tests assert
*what* blew the budget.
"""

from __future__ import annotations

from typing import Dict


class OutOfMemoryError(RuntimeError):
    """Raised when a worker's resident bytes exceed its device budget."""

    def __init__(self, worker: int, requested: int, used: int, budget: int, label: str):
        self.worker = worker
        self.requested = requested
        self.used = used
        self.budget = budget
        self.label = label
        super().__init__(
            f"worker {worker}: allocating {requested} bytes for {label!r} "
            f"would exceed device memory ({used} used of {budget})"
        )


class MemoryTracker:
    """Tracks resident bytes per label for one worker."""

    def __init__(self, worker: int, budget_bytes: int):
        if budget_bytes <= 0:
            raise ValueError("memory budget must be positive")
        self.worker = worker
        self.budget_bytes = int(budget_bytes)
        self._used = 0
        self._by_label: Dict[str, int] = {}

    @property
    def used_bytes(self) -> int:
        return self._used

    def fits(self, num_bytes: int) -> bool:
        """Whether ``num_bytes`` more would stay within the budget."""
        return self._used + int(num_bytes) <= self.budget_bytes

    def allocate(self, num_bytes: int, label: str) -> None:
        """Reserve ``num_bytes``; raises :class:`OutOfMemoryError` if over."""
        num_bytes = int(num_bytes)
        if num_bytes < 0:
            raise ValueError("cannot allocate negative bytes")
        if self._used + num_bytes > self.budget_bytes:
            raise OutOfMemoryError(
                self.worker, num_bytes, self._used, self.budget_bytes, label
            )
        self._used += num_bytes
        self._by_label[label] = self._by_label.get(label, 0) + num_bytes

    def snapshot(self) -> tuple:
        """Capture (used, per-label) state for a later :meth:`restore`.

        The four-way greedy tentatively runs a layer's three-way pass,
        then rolls the allocations back wholesale when the layer flips
        to tensor parallelism.
        """
        return (self._used, dict(self._by_label))

    def restore(self, state: tuple) -> None:
        """Roll back to a :meth:`snapshot` taken on this tracker."""
        used, by_label = state
        self._used = int(used)
        self._by_label = dict(by_label)

    def breakdown(self) -> Dict[str, int]:
        return {k: v for k, v in self._by_label.items() if v}
