"""Properties of the Section-5.4 comm/compute overlap pass.

Every engine compiles its Program through
:func:`~repro.execution.passes.run_passes`, which marks the exchanges
whose window may absorb VertexForward (dense) time.  The marks may only
fold dense time into a communication window; they must never invent or
destroy charged work or touch the numerics.  The reference is an
ablation on the IR: the same Program with every ``fold_dense`` mark
zeroed.  The properties:

- **numerics untouched**: losses and parameters are bit-identical with
  the marks zeroed or not, on every engine;
- **monotone**: with the marks, no worker's charged wall-clock (and
  hence the epoch time) ever exceeds the zeroed run of the same seeded
  configuration;
- **conservative**: per-worker GPU totals are identical -- the folded
  share is recorded inside the window, not dropped;
- **no-op at one chunk**: a worker receiving from fewer than two peers
  has nothing to pipeline behind, so it is never marked and, where no
  worker is marked, the charged timeline is bit-identical to the zeroed
  run.
"""

import contextlib
import itertools

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import GPU
from repro.comm.scheduler import CommOptions
from repro.core.model import GNNModel
from repro.engines import DepCommEngine, HybridEngine, base, make_engine
from repro.execution import compile_program
from repro.execution.passes import run_passes
from repro.graph import generators
from repro.graph.datasets import load_dataset
from repro.sampling import engine as sampled_engine
from repro.tensor import optim
from repro.training.prep import prepare_graph


def _zero_marks(program):
    for lp in program.layers:
        for ex in (lp.exchange, lp.post_exchange):
            if ex is not None:
                ex.fold_dense[:] = False
    return program


@contextlib.contextmanager
def marks_zeroed():
    """Every Program compiled inside has its overlap marks zeroed."""
    with pytest.MonkeyPatch.context() as mp:
        for module in (base, sampled_engine):
            mp.setattr(
                module, "run_passes",
                lambda program, engine: _zero_marks(run_passes(program, engine)),
            )
        yield


def _fold_exchanges(program):
    """The exchange whose window each layer's dense work may fold into."""
    for lp in program.layers:
        yield lp.post_exchange if lp.is_tp else lp.exchange


def _engine(cls, num_workers, seed, **kwargs):
    g = generators.community(96, 4, avg_degree=10.0, seed=seed)
    generators.attach_features(g, 16, 4, seed=seed + 1, class_signal=2.0)
    graph = prepare_graph(g, "gcn")
    model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes, seed=2)
    return cls(
        graph, model, ClusterSpec.ecs(num_workers),
        record_timeline=True, **kwargs,
    )


# R+L without P: with P on, chunk compute fills these small windows and
# nothing folds, so the comparisons below would hold vacuously.
NO_PIPELINING = CommOptions(ring=True, lock_free=True, overlap=False)


def _paired_epoch(cls, num_workers, seed):
    """charge_epoch on identical engines, marks zeroed vs as compiled."""
    with marks_zeroed():
        off = _engine(cls, num_workers, seed, comm=NO_PIPELINING)
        t_off = off.charge_epoch()
    on = _engine(cls, num_workers, seed, comm=NO_PIPELINING)
    return off, t_off, on, on.charge_epoch()


def _overlap_spans(engine):
    return [s for s in engine.timeline.spans if s.name == "overlap"]


ENGINES = [DepCommEngine, HybridEngine]


class TestOverlapNeverSlower:
    @pytest.mark.parametrize("cls", ENGINES)
    @pytest.mark.parametrize("seed", [3, 7, 13])
    def test_epoch_wall_clock_monotone(self, cls, seed):
        off, t_off, on, t_on = _paired_epoch(cls, 4, seed)
        assert _overlap_spans(on), "nothing folded: the check is vacuous"
        assert t_on <= t_off + 1e-12
        # Per-worker clocks, not just the makespan: folding one
        # worker's dense time must not push any other worker later.
        assert np.all(on.timeline.clocks <= off.timeline.clocks + 1e-12)

    @pytest.mark.parametrize("cls", ENGINES)
    def test_gpu_totals_preserved(self, cls):
        off, _, on, _ = _paired_epoch(cls, 4, seed=3)
        assert _overlap_spans(on)
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
        on = _engine(DepCommEngine, 4, seed=3, comm=NO_PIPELINING)
        on.plan()
        folds = [
            lp.exchange.fold_dense[w]
            for lp in on.program_.layers
            for w in range(4)
            if lp.exchange.recv_chunks(w) >= 2
        ]
        assert folds and all(folds)
        on.charge_epoch()
        saved = _overlap_spans(on)
        assert saved, "expected at least one folded exchange in the trace"
        for span in saved:
            assert span.args["saved_s"] > 0
            assert 1 <= span.args["layer"] <= on.num_layers
            # Only the worker's own dense time of that layer can fold,
            # and only into the time its exchange kept it waiting.
            layer, w = span.args["layer"], span.worker
            _, _, dense = on.accountant.layer_compute_split(layer)
            stats = on._forward_stats[layer - 1]
            window = max(stats.send_s[w] + stats.retry_wait_s[w], stats.recv_s[w])
            assert span.args["saved_s"] <= min(dense[w], window)


class TestSingleChunkNoOp:
    """With 2 workers each exchange has at most one source chunk."""

    @pytest.mark.parametrize("cls", ENGINES)
    def test_pass_marks_nothing(self, cls):
        on = _engine(cls, 2, seed=3)
        on.plan()
        for lp in on.program_.layers:
            for w in range(2):
                assert lp.exchange.recv_chunks(w) <= 1
                assert not lp.exchange.fold_dense[w]

    @pytest.mark.parametrize("cls", ENGINES)
    def test_charged_timeline_bit_identical(self, cls):
        off, t_off, on, t_on = _paired_epoch(cls, 2, seed=3)
        assert not _overlap_spans(on)
        assert t_on == t_off
        assert np.array_equal(on.timeline.clocks, off.timeline.clocks)
        for kind in off.timeline.totals:
            assert np.array_equal(
                on.timeline.totals[kind], off.timeline.totals[kind]
            )

    def test_pass_is_idempotent(self):
        # Running the pass twice on the same program marks the same set
        # of folds.
        on = _engine(DepCommEngine, 4, seed=3)
        program = compile_program(on, on.plan())
        run_passes(program, on)
        first = [lp.exchange.fold_dense.copy() for lp in program.layers]
        run_passes(program, on)
        for before, lp in zip(first, program.layers):
            assert np.array_equal(before, lp.exchange.fold_dense)


# Every engine that compiles a Program, on 4 workers so that receivers
# of 2+ chunks exist.
ALL_ENGINES = [
    "depcache", "depcomm", "hybrid", "hybrid4", "tp", "roc", "sampled",
    "distdgl",
]
SAMPLED = ("sampled", "distdgl")


def _any_engine(name, arch):
    graph = prepare_graph(load_dataset("cora", scale=0.1, seed=0), arch)
    model = GNNModel.build(arch, graph.feature_dim, 8, graph.num_classes, seed=1)
    kwargs = {"batch_size": 16, "fanouts": (3, 5)} if name in SAMPLED else {}
    return make_engine(name, graph, model, ClusterSpec.ecs(4), **kwargs)


def _programs(engine):
    """The compiled Program, or the first rounds of a sampled epoch."""
    if engine.name in SAMPLED:
        rounds = engine.rounds(shuffle=False)
        return [program for _, _, _, program, _ in itertools.islice(rounds, 3)]
    engine.plan()
    return [engine.program_]


def _train(engine, epochs=2):
    opt = optim.Adam(engine.model.parameters(), lr=0.01)
    losses = [engine.run_epoch(opt).loss for _ in range(epochs)]
    return losses, [p.data.copy() for p in engine.model.parameters()]


@pytest.mark.parametrize("arch", ["gcn", "sage"])
@pytest.mark.parametrize("name", ALL_ENGINES)
def test_marks_move_only_charged_time_and_only_down(name, arch):
    for program in _programs(_any_engine(name, arch)):
        for ex in _fold_exchanges(program):
            for w in range(program.num_workers):
                assert ex.fold_dense[w] == (ex.recv_chunks(w) >= 2)

    with marks_zeroed():
        losses_off, params_off = _train(_any_engine(name, arch))
        t_off = _any_engine(name, arch).charge_epoch()
    losses_on, params_on = _train(_any_engine(name, arch))
    t_on = _any_engine(name, arch).charge_epoch()
    assert losses_on == losses_off
    for a, b in zip(params_on, params_off):
        assert np.array_equal(a, b)
    assert t_on <= t_off
