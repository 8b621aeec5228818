"""Detectors/localizers over observable signals only.

The :class:`DetectionPipeline` consumes the observation stream of
:mod:`repro.ops.signals` -- never the injected schedule -- and emits at
most one :class:`Verdict` per run: the first degradation it can both
detect and localize.  Checks are ordered by evidence specificity:

1. **crash** -- a :class:`CrashObservation` is unambiguous; blame the
   reported worker.
2. **cache-thrash** -- the refresh fraction of exchanged bytes jumps to
   ~1 when the staleness bound collapses; blame the layer moving the
   most refresh bytes (1-based).
3. **straggler** -- one worker's compute (gpu + cpu) seconds stand out
   against the cluster median; healthy partitions are balanced to a few
   percent, so a ratio of 1.6 is far outside noise.
4. **link** -- one worker's ``net_send`` seconds stand out (a degraded
   link makes the sender occupy its NIC longer per byte); the
   destination is localized from ``net_recv`` ratios, falling back to a
   wildcard when the degradation spreads over all peers.
5. **slo-burn** (serving windows) -- the window p95 exceeds a multiple
   of the baseline windows' p95; blame the worker whose mean latency
   stands out if one does.
6. **replica-crash** (fleet windows) -- a replica that served traffic
   during the baseline windows suddenly serves nothing while requests
   routed to it shed; blame that replica.
7. **hotspot-burn** (fleet windows) -- the fleet p95 burns past the
   baseline while one vertex dominates the window (``hot_share`` above
   ``hot_threshold``); blame the replica whose mean latency stands out
   against the replica median.

All thresholds are :class:`DetectionPipeline` fields (``params()`` is
those fields), so a recorded bundle can rebuild an identical pipeline
and the replayer can re-derive the recorded verdict bit-for-bit from
the stored observations.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple, get_type_hints

import numpy as np

from repro.ops.signals import (
    CrashObservation,
    EpochObservation,
    FleetWindowObservation,
    WindowObservation,
)
from repro.utils.jsonio import Record


@dataclass(frozen=True)
class Verdict(Record):
    """One detection outcome: what, when, and who is to blame."""

    kind: str
    detected_at_s: float
    unit: int  # epoch (training) or window (serving) index
    worker: Optional[int] = None
    link: Optional[Tuple[Optional[int], Optional[int]]] = None
    layer: Optional[int] = None
    evidence: Dict[str, float] = field(default_factory=dict)


@dataclass(eq=False)
class DetectionPipeline:
    """Stateful detector fed one observation per epoch/window.

    The fields are the thresholds, and :meth:`params` is exactly them;
    construct a replayed pipeline via
    ``DetectionPipeline(**bundle["pipeline"])``.
    """

    warmup_epochs: int = 0
    baseline_windows: int = 3
    compute_threshold: float = 1.6
    comm_threshold: float = 1.3
    recv_threshold: float = 1.25
    refresh_threshold: float = 0.5
    burn_factor: float = 1.5
    worker_ratio: float = 1.8
    hot_threshold: float = 0.2

    def __post_init__(self):
        # Coerce to the declared int / float so ``params()`` records the
        # same JSON whether a threshold came from a spec or a bundle.
        for name, kind in get_type_hints(type(self)).items():
            setattr(self, name, kind(getattr(self, name)))
        self._baseline_p95s: List[float] = []
        self._fleet_serving: set = set()

    def params(self) -> Dict[str, float]:
        """Constructor kwargs for an identical pipeline (bundled)."""
        return asdict(self)

    # ------------------------------------------------------------------
    def observe(self, obs) -> Optional[Verdict]:
        """Feed one observation; a non-None return ends detection."""
        if isinstance(obs, CrashObservation):
            return Verdict(
                kind="crash",
                detected_at_s=obs.detected_at_s,
                unit=obs.epoch,
                worker=obs.worker,
                evidence={"permanent": float(obs.permanent)},
            )
        if isinstance(obs, EpochObservation):
            return self._observe_epoch(obs)
        if isinstance(obs, FleetWindowObservation):
            return self._observe_fleet_window(obs)
        if isinstance(obs, WindowObservation):
            return self._observe_window(obs)
        raise TypeError(f"unknown observation {obs!r}")

    # -- training epochs -----------------------------------------------
    def _observe_epoch(self, obs: EpochObservation) -> Optional[Verdict]:
        if obs.epoch <= self.warmup_epochs:
            return None

        # Cache thrash: refresh traffic should be rare under a healthy
        # staleness bound; a sustained ~100% refresh share means the
        # bound collapsed (tau-pressure) and every epoch re-fetches.
        frac = obs.refresh_fraction
        if frac >= self.refresh_threshold:
            refresh = obs.layer_refresh_bytes
            layer = int(np.argmax(refresh)) + 1 if refresh else None
            return Verdict(
                kind="cache-thrash",
                detected_at_s=obs.t_end,
                unit=obs.epoch,
                layer=layer,
                evidence={"refresh_fraction": float(frac)},
            )

        # Straggler: one worker's compute share stands out vs median.
        compute = np.array(obs.compute_s())
        med = float(np.median(compute))
        if med > 0:
            ratios = compute / med
            worker = int(np.argmax(ratios))
            ratio = float(ratios[worker])
            if ratio >= self.compute_threshold:
                return Verdict(
                    kind="straggler",
                    detected_at_s=obs.t_end,
                    unit=obs.epoch,
                    worker=worker,
                    evidence={"compute_ratio": ratio},
                )

        # Degraded link: the sender's NIC occupancy stands out.  The
        # destination shows as one peer's elevated receive time; a flat
        # receive spread means every link out of the sender degraded.
        send = np.array(obs.net_send_s)
        med_send = float(np.median(send))
        if med_send > 0:
            ratios = send / med_send
            src = int(np.argmax(ratios))
            send_ratio = float(ratios[src])
            if send_ratio >= self.comm_threshold:
                recv = np.array(obs.net_recv_s)
                med_recv = float(np.median(recv))
                dst: Optional[int] = None
                recv_ratio = 0.0
                if med_recv > 0:
                    recv_ratios = recv / med_recv
                    cand = int(np.argmax(recv_ratios))
                    recv_ratio = float(recv_ratios[cand])
                    if recv_ratio >= self.recv_threshold:
                        dst = cand
                return Verdict(
                    kind="link",
                    detected_at_s=obs.t_end,
                    unit=obs.epoch,
                    worker=src,
                    link=(src, dst),
                    evidence={
                        "send_ratio": send_ratio,
                        "recv_ratio": recv_ratio,
                    },
                )
        return None

    # -- serving and fleet windows ---------------------------------------
    def _burn_evidence(self, obs) -> Optional[Dict[str, float]]:
        """The p95 burn past the baseline windows' mean, if there is one."""
        baseline = float(np.mean(self._baseline_p95s))
        if baseline <= 0 or obs.p95_s < self.burn_factor * baseline:
            return None
        return {
            "p95_s": obs.p95_s,
            "baseline_p95_s": baseline,
            "burn": obs.p95_s / baseline,
        }

    def _stand_out(self, means: Dict[int, float]):
        """``(blamed, ratio)``: whose mean latency towers over the median.

        ``blamed`` is ``None`` unless the largest mean reaches
        ``worker_ratio`` times the median of the positive ones.
        """
        positive = [m for m in means.values() if m > 0]
        if not positive:
            return None, 0.0
        med = float(np.median(positive))
        cand = max(means, key=lambda k: means[k])
        ratio = float(means[cand] / med)
        return (int(cand) if ratio >= self.worker_ratio else None), ratio

    def _observe_window(self, obs: WindowObservation) -> Optional[Verdict]:
        if len(self._baseline_p95s) < self.baseline_windows:
            self._baseline_p95s.append(obs.p95_s)
            return None
        evidence = self._burn_evidence(obs)
        if evidence is None:
            return None
        worker, evidence["worker_ratio"] = self._stand_out({
            w: obs.worker_mean_s.get(w, 0.0) for w in range(obs.num_workers)
        })
        return Verdict(
            kind="slo-burn",
            detected_at_s=obs.t_end,
            unit=obs.window,
            worker=worker,
            evidence=evidence,
        )

    def _observe_fleet_window(
        self, obs: FleetWindowObservation
    ) -> Optional[Verdict]:
        if len(self._baseline_p95s) < self.baseline_windows:
            self._baseline_p95s.append(obs.p95_s)
            self._fleet_serving.update(
                r for r, n in obs.replica_served.items() if n > 0
            )
            return None

        # Replica crash: a baseline-serving replica now serves nothing
        # while requests routed to it shed.  The shed counter is the
        # discriminator -- a replica merely drained by the router sheds
        # nothing.
        for replica in sorted(self._fleet_serving):
            if (
                obs.replica_served.get(replica, 0) == 0
                and obs.replica_shed.get(replica, 0) > 0
            ):
                return Verdict(
                    kind="replica-crash",
                    detected_at_s=obs.t_end,
                    unit=obs.window,
                    worker=replica,
                    evidence={
                        "replica_shed": float(obs.replica_shed[replica]),
                        "shed_fraction": float(obs.shed_fraction),
                    },
                )

        # Hotspot burn: the fleet p95 burns past baseline while one
        # vertex dominates the offered window.
        evidence = self._burn_evidence(obs)
        if evidence is None or obs.hot_share < self.hot_threshold:
            return None
        evidence["hot_share"] = float(obs.hot_share)
        worker, evidence["replica_ratio"] = self._stand_out(obs.replica_mean_s)
        return Verdict(
            kind="hotspot-burn",
            detected_at_s=obs.t_end,
            unit=obs.window,
            worker=worker,
            evidence=evidence,
        )


__all__ = ["Verdict", "DetectionPipeline"]
