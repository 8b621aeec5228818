"""Properties of the Section-5.4 comm/compute overlap pass.

The :func:`~repro.execution.passes.overlap_exchange` pass may only fold
VertexForward (dense) time into an exchange's communication window; it
must never invent or destroy charged work.  Three properties pin this:

- **monotone**: with the pass on, no worker's charged wall-clock (and
  hence the epoch time) ever exceeds the pass-off run of the same
  seeded configuration;
- **conservative**: per-worker GPU totals are identical on/off -- the
  folded share is recorded inside the window, not dropped;
- **no-op at one chunk**: a worker receiving from fewer than two peers
  has nothing to pipeline behind, so the pass marks nothing and the
  charged timeline is bit-identical to the pass-off run.
"""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import GPU
from repro.core.model import GNNModel
from repro.engines import DepCommEngine, HybridEngine
from repro.execution import compile_program
from repro.execution.passes import overlap_exchange
from repro.graph import generators
from repro.training.prep import prepare_graph


def _engine(cls, num_workers, seed, overlap_pass, **kwargs):
    g = generators.community(96, 4, avg_degree=10.0, seed=seed)
    generators.attach_features(g, 16, 4, seed=seed + 1, class_signal=2.0)
    graph = prepare_graph(g, "gcn")
    model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes, seed=2)
    return graph, cls(
        graph, model, ClusterSpec.ecs(num_workers),
        record_timeline=True,
        program_passes=("overlap-exchange",) if overlap_pass else (),
        **kwargs,
    )


def _paired_epoch(cls, num_workers, seed, **kwargs):
    """charge_epoch on identical engines, pass off vs on."""
    _, off = _engine(cls, num_workers, seed, overlap_pass=False, **kwargs)
    _, on = _engine(cls, num_workers, seed, overlap_pass=True, **kwargs)
    return off, off.charge_epoch(), on, on.charge_epoch()


ENGINES = [DepCommEngine, HybridEngine]


class TestOverlapNeverSlower:
    @pytest.mark.parametrize("cls", ENGINES)
    @pytest.mark.parametrize("seed", [3, 7, 13])
    def test_epoch_wall_clock_monotone(self, cls, seed):
        off, t_off, on, t_on = _paired_epoch(cls, 4, seed)
        assert t_on <= t_off + 1e-12
        # Per-worker clocks, not just the makespan: folding one
        # worker's dense time must not push any other worker later.
        assert np.all(on.timeline.clocks <= off.timeline.clocks + 1e-12)

    @pytest.mark.parametrize("cls", ENGINES)
    def test_gpu_totals_preserved(self, cls):
        off, _, on, _ = _paired_epoch(cls, 4, seed=3)
        np.testing.assert_allclose(
            on.timeline.totals[GPU], off.timeline.totals[GPU],
            rtol=0, atol=1e-12,
        )

    def test_folds_marked_and_spans_recorded(self):
        # On a 4-worker DepComm engine every worker receives from 3
        # peers, so the pass must mark folds and (when the window has
        # slack) leave inspectable ``overlap`` spans behind.  With the
        # P optimization off the window is pure communication, so the
        # slack is guaranteed positive.
        from repro.comm.scheduler import CommOptions

        _, on = _engine(
            DepCommEngine, 4, seed=3, overlap_pass=True,
            comm=CommOptions(ring=True, lock_free=True, overlap=False),
        )
        on.plan()
        assert "overlap-exchange" in on.program_.passes
        folds = [
            lp.exchange.fold_dense[w]
            for lp in on.program_.layers
            for w in range(4)
            if lp.exchange.recv_chunks(w) >= 2
        ]
        assert folds and all(folds)
        on.charge_epoch()
        saved = [s for s in on.timeline.spans if s.name == "overlap"]
        assert saved, "expected at least one folded exchange in the trace"
        for span in saved:
            assert span.args["saved_s"] > 0
            assert 1 <= span.args["layer"] <= on.num_layers


class TestSingleChunkNoOp:
    """With 2 workers each exchange has at most one source chunk."""

    @pytest.mark.parametrize("cls", ENGINES)
    def test_pass_marks_nothing(self, cls):
        _, on = _engine(cls, 2, seed=3, overlap_pass=True)
        on.plan()
        assert "overlap-exchange" in on.program_.passes
        for lp in on.program_.layers:
            for w in range(2):
                assert lp.exchange.recv_chunks(w) <= 1
                assert not lp.exchange.fold_dense[w]

    @pytest.mark.parametrize("cls", ENGINES)
    def test_charged_timeline_bit_identical(self, cls):
        off, t_off, on, t_on = _paired_epoch(cls, 2, seed=3)
        assert t_on == t_off
        assert np.array_equal(on.timeline.clocks, off.timeline.clocks)
        for kind in off.timeline.totals:
            assert np.array_equal(
                on.timeline.totals[kind], off.timeline.totals[kind]
            )

    def test_pass_is_idempotent(self):
        # Running the pass twice on the same program marks the same set
        # of folds -- it only ever flips False -> True where eligible.
        _, on = _engine(DepCommEngine, 4, seed=3, overlap_pass=True)
        plan = on.plan()
        program = compile_program(on, plan)
        overlap_exchange(program, on)
        first = [lp.exchange.fold_dense.copy() for lp in program.layers]
        overlap_exchange(program, on)
        for before, lp in zip(first, program.layers):
            assert np.array_equal(before, lp.exchange.fold_dense)
