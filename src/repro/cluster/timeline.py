"""Per-worker simulated clocks and activity records.

Engines charge modeled durations to workers under an activity kind
(``gpu``, ``cpu``, ``net_send``, ``net_recv``); the timeline records
the interval so Figure 13's utilization traces can be regenerated.
Barriers synchronise clocks (BSP layer boundaries, all-reduce).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

GPU = "gpu"
CPU = "cpu"
NET_SEND = "net_send"
NET_RECV = "net_recv"
IDLE = "idle"

KINDS = (GPU, CPU, NET_SEND, NET_RECV, IDLE)


# Interval and Span are named tuples, not dataclasses: a run records
# tens of thousands of them, and a tuple is built several times faster.
# (The garbage collector keeps tracking them: it untracks exact tuples
# only, not subclasses.)  The recorders build them with
# ``_tuple_new(Interval, fields)``: the same tuple as
# ``Interval(*fields)``, without the named tuple's Python-level
# ``__new__``.
_tuple_new = tuple.__new__
class Interval(NamedTuple):
    """One recorded activity: worker spent [start, end) doing ``kind``."""

    worker: int
    kind: str
    start: float
    end: float
    num_bytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Span(NamedTuple):
    """A named logical period on one worker's row (serving lifecycle).

    Unlike an :class:`Interval`, a span does not charge time or occupy
    the clock -- it annotates a stretch of it (a request's life from
    arrival to reply, a micro-batch's dispatch window, a compute/fetch
    phase), so traces show *why* the underlying gpu/net intervals
    happened.  ``args`` carries free-form labels into the trace export.
    """

    worker: int
    name: str
    start: float
    end: float
    args: Optional[Dict[str, object]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Timeline:
    """Clocks + interval log for ``num_workers`` workers."""

    def __init__(self, num_workers: int, record: bool = True):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.num_workers = num_workers
        self.clocks = np.zeros(num_workers, dtype=np.float64)
        self.record = record
        self.intervals: List[Interval] = []
        self.spans: List[Span] = []
        self.totals: Dict[str, np.ndarray] = {
            kind: np.zeros(num_workers) for kind in KINDS
        }

    # ------------------------------------------------------------------
    def now(self, worker: int) -> float:
        return float(self.clocks[worker])

    def advance(
        self, worker: int, kind: str, duration: float, num_bytes: int = 0
    ) -> None:
        """Charge ``duration`` seconds of ``kind`` to ``worker``."""
        if duration < 0:
            raise ValueError("cannot advance time backwards")
        if kind not in KINDS:
            raise ValueError(f"unknown activity kind {kind!r}")
        if duration == 0:
            return
        start = self.clocks[worker]
        self.clocks[worker] = start + duration
        self.totals[kind][worker] += duration
        if self.record:
            self.intervals.append(_tuple_new(
                Interval, (worker, kind, float(start), float(start + duration), num_bytes)
            ))

    def advance_repeated(
        self, worker: int, kind: str, duration: float, count: int,
        num_bytes: int = 0,
    ) -> List[float]:
        """``count`` back-to-back ``advance(worker, kind, duration,
        num_bytes)`` calls in one; returns the clock after each.

        The clock and the kind's total add ``duration`` one step at a
        time, left to right, exactly as the calls would, so every value
        (and every recorded interval) is bit-equal to the loop's.
        """
        if duration < 0:
            raise ValueError("cannot advance time backwards")
        if kind not in KINDS:
            raise ValueError(f"unknown activity kind {kind!r}")
        clock = float(self.clocks[worker])
        if duration == 0 or count == 0:
            return [clock] * count
        total = float(self.totals[kind][worker])
        starts = [clock]
        for _ in range(count):
            clock += duration
            total += duration
            starts.append(clock)
        self.clocks[worker] = clock
        self.totals[kind][worker] = total
        ends = starts[1:]
        if self.record:
            self.intervals += [
                _tuple_new(Interval, (worker, kind, start, end, num_bytes))
                for start, end in zip(starts, ends)
            ]
        return ends

    def advance_at_least_until(
        self, worker: int, time: float, record_idle: bool = False
    ) -> None:
        """Move a worker's clock forward to ``time``.

        With ``record_idle`` the gap is logged as an ``idle`` interval
        (a stall: waiting on a barrier, a timeout, a straggler); without
        it the gap is assumed covered by overlapped activity intervals
        the caller already recorded.
        """
        start = float(self.clocks[worker])
        if time <= start:
            return
        self.clocks[worker] = time
        if record_idle:
            self.totals[IDLE][worker] += time - start
            if self.record:
                self.intervals.append(Interval(worker, IDLE, start, float(time)))

    def record_interval(
        self,
        worker: int,
        kind: str,
        start: float,
        duration: float,
        num_bytes: int = 0,
    ) -> None:
        """Record an activity without advancing the clock.

        Used for overlapped activities (communication running while the
        GPU computes): the caller advances the clock once by the
        overlapped span, but both activities appear in the trace.
        """
        if kind not in KINDS:
            raise ValueError(f"unknown activity kind {kind!r}")
        if duration <= 0:
            return
        self.totals[kind][worker] += duration
        if self.record:
            self.intervals.append(
                Interval(worker, kind, float(start), float(start + duration), num_bytes)
            )

    def record_span(
        self,
        worker: int,
        name: str,
        start: float,
        end: float,
        **args: object,
    ) -> None:
        """Annotate ``[start, end)`` on ``worker``'s row with ``name``.

        Spans never move clocks or totals; they exist purely for trace
        export (``repro.cluster.trace``) and debugging.  Recording is
        gated on ``self.record`` like intervals.
        """
        if not 0 <= worker < self.num_workers:
            raise ValueError(f"worker {worker} not in 0..{self.num_workers - 1}")
        if end < start:
            raise ValueError(f"span must have end >= start, got [{start}, {end})")
        if self.record:
            self.spans.append(
                Span(worker, name, float(start), float(end), args or None)
            )

    def record_spans(
        self,
        worker: int,
        spans: Sequence[Tuple[str, float, float, Optional[Dict[str, object]]]],
    ) -> None:
        """``record_span(worker, name, start, end, **args)`` for each
        ``(name, start, end, args)`` in turn, in one call.  Every span is
        checked before any is kept, and each is checked and built in one
        pass."""
        if not 0 <= worker < self.num_workers:
            raise ValueError(f"worker {worker} not in 0..{self.num_workers - 1}")
        built = []
        for name, start, end, args in spans:
            if end < start:
                raise ValueError(f"span must have end >= start, got [{start}, {end})")
            built.append(
                _tuple_new(Span, (worker, name, float(start), float(end), args or None))
            )
        if self.record:
            self.spans += built

    def barrier(self, workers: Optional[Sequence[int]] = None) -> float:
        """Synchronise clocks to the max (BSP superstep boundary).

        Workers that arrive early have their wait logged as an ``idle``
        interval, so utilization traces show barrier stalls (straggler
        waits, retry timeouts) instead of silently losing them.
        """
        if workers is None:
            idx = np.arange(self.num_workers)
        else:
            idx = np.asarray(list(workers), dtype=np.int64)
        t = float(self.clocks[idx].max())
        for w in idx:
            self.advance_at_least_until(int(w), t, record_idle=True)
        return t

    @property
    def makespan(self) -> float:
        return float(self.clocks.max())

    # ------------------------------------------------------------------
    # Figure 13: utilization traces
    # ------------------------------------------------------------------
    def bytes_per_window(self, window: float) -> np.ndarray:
        """Total received bytes per window up to the makespan (Figure
        13(c)'s network trace)."""
        horizon = self.makespan
        if horizon <= 0:
            return np.zeros(0)
        num_windows = int(np.ceil(horizon / window))
        received = np.zeros(num_windows)
        for interval in self.intervals:
            if interval.kind != NET_RECV or interval.num_bytes == 0:
                continue
            # Spread the bytes across the windows the transfer spans.
            start = min(interval.start, horizon)
            end = min(interval.end, horizon)
            span = max(end - start, 1e-12)
            w0 = int(start / window)
            w1 = min(int(np.ceil(end / window)), num_windows)
            for w in range(w0, max(w1, w0 + 1)):
                lo = max(start, w * window)
                hi = min(end, (w + 1) * window)
                if hi > lo and w < num_windows:
                    received[w] += interval.num_bytes * (hi - lo) / span
        return received

    def utilization_summary(self) -> Dict[str, float]:
        """Average busy fraction per kind over the whole run."""
        span = self.makespan
        if span <= 0:
            return {kind: 0.0 for kind in KINDS}
        return {
            kind: float(self.totals[kind].mean() / span) for kind in KINDS
        }


class TotalsDiff:
    """Per-kind deltas of a timeline's cumulative ``totals``.

    Holds a snapshot taken at construction; every :meth:`deltas` call
    returns what each activity kind accumulated per worker since the
    previous call (or the snapshot) and re-anchors.  Its one reader is
    the ops ``TimelineObserver``, whose epoch observations the health
    monitor folds into its EWMA factors too.
    """

    def __init__(self, timeline: Timeline):
        self._last = {k: v.copy() for k, v in timeline.totals.items()}

    def deltas(self, timeline: Timeline) -> Dict[str, np.ndarray]:
        out = {}
        for kind, current in timeline.totals.items():
            out[kind] = current - self._last[kind]
            self._last[kind] = current.copy()
        return out
