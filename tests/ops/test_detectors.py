"""Detection pipeline on synthetic observation streams.

Each scenario feeds hand-built observations -- no engine run -- so
these tests pin the decision rules themselves: which signal trips
which verdict, and that healthy streams stay quiet.
"""

import pytest

from repro.ops import (
    CrashObservation,
    DetectionPipeline,
    EpochObservation,
    WindowObservation,
)

N = 4


def make_epoch(
    epoch,
    *,
    gpu=(0.5,) * N,
    cpu=(0.2,) * N,
    send=(0.1,) * N,
    recv=(0.1,) * N,
    idle=(0.2,) * N,
    layer_bytes=(1000.0, 2000.0),
    refresh=(0.0, 0.0),
):
    t0 = float(epoch - 1)
    return EpochObservation(
        epoch=epoch, t_start=t0, t_end=t0 + 1.0, num_workers=N,
        gpu_s=gpu, cpu_s=cpu, net_send_s=send, net_recv_s=recv,
        idle_s=idle, layer_bytes=layer_bytes, layer_refresh_bytes=refresh,
        cache_hits=100, cache_misses=5,
    )


def make_window(window, *, p95=1.0, worker_mean=None, shed=0):
    return WindowObservation(
        window=window, t_start=float(window), t_end=float(window) + 1.0,
        num_workers=N, offered=40, served=40 - shed, shed=shed,
        p50_s=p95 * 0.5, p95_s=p95, mean_s=p95 * 0.6,
        worker_mean_s=worker_mean or {w: p95 * 0.6 for w in range(N)},
        worker_served={w: 10 for w in range(N)},
    )


class TestHealthyStreams:
    def test_no_false_positive_on_steady_epochs(self):
        pipeline = DetectionPipeline()
        for e in range(1, 12):
            assert pipeline.observe(make_epoch(e)) is None

    def test_no_false_positive_on_steady_windows(self):
        pipeline = DetectionPipeline(baseline_windows=3)
        for w in range(12):
            assert pipeline.observe(make_window(w)) is None

    def test_warmup_epochs_are_ignored(self):
        pipeline = DetectionPipeline(warmup_epochs=2)
        # A wildly imbalanced warmup epoch must not trip detection.
        wild = make_epoch(1, gpu=(0.5, 0.5, 8.0, 0.5))
        assert pipeline.observe(wild) is None
        assert pipeline.observe(make_epoch(2)) is None
        # ... but the same imbalance after warmup does.
        assert pipeline.observe(make_epoch(3, gpu=(0.5, 0.5, 8.0, 0.5))) \
            is not None

    def test_unknown_observation_rejected(self):
        with pytest.raises(TypeError):
            DetectionPipeline().observe(object())


class TestScenarioDetection:
    def test_straggler_blamed_on_slow_worker(self):
        pipeline = DetectionPipeline()
        for e in range(1, 4):
            assert pipeline.observe(make_epoch(e)) is None
        verdict = pipeline.observe(
            make_epoch(4, gpu=(0.5, 0.5, 4.0, 0.5),
                       idle=(3.0, 3.0, 0.0, 3.0))
        )
        assert verdict is not None
        assert verdict.kind == "straggler"
        assert verdict.worker == 2
        assert verdict.unit == 4
        assert verdict.evidence["compute_ratio"] >= 1.6

    def test_link_degradation_blamed_on_sender(self):
        pipeline = DetectionPipeline()
        verdict = pipeline.observe(
            make_epoch(4, send=(0.1, 1.5, 0.1, 0.1),
                       recv=(0.5, 0.5, 0.5, 0.5))
        )
        assert verdict is not None
        assert verdict.kind == "link"
        assert verdict.worker == 1
        # Flat receive spread => every link out of the sender degraded.
        assert verdict.link == (1, None)

    def test_link_destination_localized_when_one_receiver_stands_out(self):
        pipeline = DetectionPipeline()
        verdict = pipeline.observe(
            make_epoch(4, send=(0.1, 1.5, 0.1, 0.1),
                       recv=(0.1, 0.1, 0.1, 0.9))
        )
        assert verdict is not None
        assert verdict.kind == "link"
        assert verdict.link == (1, 3)

    def test_crash_observation_yields_crash_verdict(self):
        pipeline = DetectionPipeline()
        verdict = pipeline.observe(
            CrashObservation(epoch=4, detected_at_s=3.2, worker=1,
                             permanent=True)
        )
        assert verdict is not None
        assert verdict.kind == "crash"
        assert verdict.worker == 1
        assert verdict.detected_at_s == 3.2

    def test_cache_thrash_blamed_on_refresh_layer(self):
        pipeline = DetectionPipeline()
        verdict = pipeline.observe(
            make_epoch(6, layer_bytes=(1000.0, 2000.0),
                       refresh=(800.0, 1900.0))
        )
        assert verdict is not None
        assert verdict.kind == "cache-thrash"
        assert verdict.layer == 2  # layer moving the most refresh bytes
        assert verdict.evidence["refresh_fraction"] == pytest.approx(0.9)

    def test_slo_burn_blamed_on_hot_worker(self):
        pipeline = DetectionPipeline(baseline_windows=3)
        for w in range(3):
            assert pipeline.observe(make_window(w, p95=1.0)) is None
        verdict = pipeline.observe(
            make_window(3, p95=2.4,
                        worker_mean={0: 0.6, 1: 2.8, 2: 0.6, 3: 0.6})
        )
        assert verdict is not None
        assert verdict.kind == "slo-burn"
        assert verdict.worker == 1
        assert verdict.evidence["burn"] == pytest.approx(2.4)

    def test_slo_burn_without_hot_worker_leaves_blame_open(self):
        pipeline = DetectionPipeline(baseline_windows=2)
        for w in range(2):
            assert pipeline.observe(make_window(w, p95=1.0)) is None
        verdict = pipeline.observe(make_window(2, p95=3.0))
        assert verdict is not None
        assert verdict.kind == "slo-burn"
        assert verdict.worker is None


class TestSerialization:
    def test_params_rebuild_equivalent_pipeline(self):
        a = DetectionPipeline(baseline_windows=2, compute_threshold=2.0)
        b = DetectionPipeline(**a.params())
        assert a.params() == b.params()
        stream = [make_window(0), make_window(1), make_window(2, p95=9.0)]
        va = [a.observe(o) for o in stream][-1]
        vb = [b.observe(o) for o in stream][-1]
        assert va is not None and vb is not None
        assert va.to_dict() == vb.to_dict()
