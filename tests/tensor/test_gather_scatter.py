"""``gather_scatter_rows`` and ``FusedGatherScatter`` versus the three-op
chain they replace, compared as raw bits.

The chain (``IndexSelect -> Mul -> SegmentSum``) and the unfused layer
forward are kept here as references: the package no longer has them.
Every comparison is on the integer view of the floats, so signed zeros
and NaN payloads count.  The cut-over constants are patched small so the
rounds, the hub tail and the early exit all run on generated inputs.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import ops
from repro.core.blocks import LayerBlock, build_block
from repro.core.layers import GCNConv, GINConv, SAGEConv
from repro.tensor import functional as F
from repro.tensor import scatter
from repro.tensor.scatter import gather_scatter_rows
from repro.tensor.tensor import Tensor
from repro.training.prep import prepare_graph
import references

REDUCERS = ["sum", "weighted_sum", "mean"]

# inf * -0.0 and inf + -inf are among the generated cells; the chain
# warns about them exactly as the kernel does.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view({4: np.uint32, 8: np.uint64}[a.dtype.itemsize])


def _same(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert np.array_equal(_bits(got), _bits(expected))


# -- references ---------------------------------------------------------
def _chain_rows(x, gather, index, weights, num_rows):
    """What the kernel replaces, on raw arrays: the E x d message array,
    then ``np.add.at`` from zeros."""
    messages = x[gather]
    if weights is not None:
        messages = messages * weights.reshape(-1, 1)
    out = np.zeros((num_rows,) + x.shape[1:], dtype=messages.dtype)
    np.add.at(out, index, messages)
    return out


def _chain(x: Tensor, src_pos, segments, num_segments, weights, reducer) -> Tensor:
    """The three tape nodes ``fused_gather_scatter`` stands for."""
    messages = F.index_select(x, src_pos)
    if reducer == "weighted_sum":
        messages = messages * Tensor(weights.reshape(-1, 1))
    if reducer == "mean":
        return references.segment_mean(messages, segments, num_segments)
    return F.segment_sum(messages, segments, num_segments)


def _value_and_grad(fn, x_data, seed):
    x = Tensor(x_data.copy(), requires_grad=True)
    out = fn(x)
    out.backward(seed)
    return out.data, x.grad


# -- generated cases ----------------------------------------------------
_PAYLOAD_NAN = {
    "f4": np.array([0x7FC00123], dtype=np.uint32).view(np.float32)[0],
    "f8": np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)[0],
}


def _segments(rng, kind, num_edges, num_rows):
    if kind == "zipf":  # hub skew: a few rows hold most edges
        index = np.minimum(rng.zipf(1.3, size=num_edges) - 1, num_rows - 1)
    elif kind == "sparse":  # most rows have no edge at all
        index = rng.integers(0, max(1, num_rows // 4), size=num_edges)
    else:
        index = rng.integers(0, num_rows, size=num_edges)
    return index.astype(np.int64)


def _make_case(rng, num_edges, num_inputs, num_rows, width, x_dtype, w_dtype,
               kind, sort, special):
    x = (rng.standard_normal((num_inputs, width)) * 1e3).astype(x_dtype)
    if special is not None:
        fill = _PAYLOAD_NAN[x_dtype] if special == "payload" else special
        x[rng.random(num_inputs) < 0.3] = fill
    gather = rng.integers(0, num_inputs, size=num_edges).astype(np.int64)
    index = _segments(rng, kind, num_edges, num_rows)
    if sort:
        index = np.sort(index)
    weights = None
    if w_dtype is not None:
        weights = rng.standard_normal(num_edges).astype(w_dtype)
        if special is not None and num_edges:
            weights[rng.random(num_edges) < 0.2] = -0.0
    return x, gather, index, weights, num_rows


@st.composite
def cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 100_000)))
    num_rows = draw(st.integers(1, 40))
    return _make_case(
        rng,
        num_edges=draw(st.integers(0, 120)),
        num_inputs=draw(st.integers(1, 50)),
        num_rows=num_rows,
        width=draw(st.sampled_from([1, 7, 64])),
        x_dtype=draw(st.sampled_from(["f4", "f8"])),
        w_dtype=draw(st.sampled_from(["f4", "f8", None])),
        kind=draw(st.sampled_from(["uniform", "zipf", "sparse"])),
        sort=draw(st.booleans()),
        special=draw(
            st.sampled_from([None, -0.0, np.inf, -np.inf, np.nan, "payload"])
        ),
    )


_HYPOTHESIS = dict(
    max_examples=120, deadline=None,
    # The patched constants are the same for every example.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestKernelBits:
    @settings(**_HYPOTHESIS)
    @given(case=cases())
    def test_random_cases(self, constants, case):
        x, gather, index, weights, num_rows = case
        _same(
            gather_scatter_rows(x, gather, index, weights, num_rows),
            _chain_rows(x, gather, index, weights, num_rows),
        )

    @pytest.mark.parametrize("x_dtype", ["f4", "f8"])
    @pytest.mark.parametrize("w_dtype", ["f4", "f8", None])
    @pytest.mark.parametrize("kind", ["uniform", "zipf", "sparse"])
    @pytest.mark.parametrize("sort", [False, True])
    def test_grid(self, constants, x_dtype, w_dtype, kind, sort):
        rng = np.random.default_rng(11)
        case = _make_case(rng, 300, 80, 100, 7, x_dtype, w_dtype, kind, sort, -0.0)
        _same(gather_scatter_rows(*case), _chain_rows(*case))

    def test_default_constants_reach_rounds_and_tail(self, monkeypatch):
        # No patching: a block over the shipped cut-over with one hub
        # row that outlives the rounds, so the tail is not empty.
        tails = []
        real = scatter._add_at
        monkeypatch.setattr(
            scatter, "_add_at",
            lambda out, index, values: tails.append(len(index))
            or real(out, index, values),
        )
        rng = np.random.default_rng(0)
        index = np.concatenate(
            [rng.integers(0, 200, size=3000), np.zeros(500, dtype=np.int64)]
        )
        rng.shuffle(index)
        x = rng.standard_normal((900, 64)).astype(np.float32)
        gather = rng.integers(0, 900, size=3500)
        weights = rng.standard_normal(3500).astype(np.float32)
        for idx in (index, np.sort(index)):
            _same(
                gather_scatter_rows(x, gather, idx, weights, 200),
                _chain_rows(x, gather, idx, weights, 200),
            )
        # Only the hub's leftover edges were materialised, both times.
        assert len(tails) == 2 and all(0 < n < 3500 // 4 for n in tails)

    def test_swapped_roles_are_the_adjoint(self, constants):
        # <A x, y> == <x, A^T y> with A^T the same kernel, roles swapped.
        rng = np.random.default_rng(5)
        gather = rng.integers(0, 30, size=200)
        index = rng.integers(0, 20, size=200)
        weights = rng.standard_normal(200)
        x, y = rng.standard_normal((30, 7)), rng.standard_normal((20, 7))
        forward = gather_scatter_rows(x, gather, index, weights, 20)
        adjoint = gather_scatter_rows(y, index, gather, weights, 30)
        assert np.isclose((forward * y).sum(), (x * adjoint).sum())

    def test_no_edges(self, constants):
        empty = np.zeros(0, dtype=np.int64)
        out = gather_scatter_rows(np.ones((3, 7), np.float32), empty, empty, None, 4)
        _same(out, np.zeros((4, 7), np.float32))
        out = gather_scatter_rows(
            np.ones((3, 7), np.float32), empty, empty, np.zeros(0, np.float64), 4
        )
        _same(out, np.zeros((4, 7), np.float64))

    def test_no_rows(self, constants):
        empty = np.zeros(0, dtype=np.int64)
        assert gather_scatter_rows(np.ones((3, 7)), empty, empty, None, 0).shape == (0, 7)
        assert gather_scatter_rows(np.ones((0, 7)), empty, empty, None, 2).shape == (2, 7)

    def test_negative_entries_read_from_the_end(self, constants):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((9, 7))
        gather = np.array([0, -1, 3, -9, 8, 2])
        index = np.array([1, -1, 1, 0, -4, 1])
        _same(
            gather_scatter_rows(x, gather, index, None, 4),
            _chain_rows(x, gather, index, None, 4),
        )

    def test_one_dimensional_rows_take_the_plain_path(self, constants):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(9)
        gather, index = rng.integers(0, 9, size=50), rng.integers(0, 5, size=50)
        _same(
            gather_scatter_rows(x, gather, index, None, 5),
            _chain_rows(x, gather, index, None, 5),
        )


class TestKernelValidation:
    @pytest.mark.parametrize("bad", [5, -6, 2**40])
    def test_bad_entry_is_named_before_any_write(self, monkeypatch, bad):
        monkeypatch.setattr(scatter, "MIN_ELEMENTS", 0)
        # The result array is the kernel's own, so "untouched" means
        # neither of its two writers was entered when it raises.
        written = []
        for writer in ("_add_at", "_ranked_rounds"):
            monkeypatch.setattr(
                scatter, writer, lambda out, *rest: written.append(out)
            )
        good = np.array([0, 1, 2, 3])
        wrong = np.array([0, 1, bad, 2])
        with pytest.raises(IndexError, match=rf"gather index {bad} .*num_rows=5"):
            gather_scatter_rows(np.ones((5, 7)), wrong, good, None, 6)
        with pytest.raises(IndexError, match=rf"scatter index {bad} .*num_rows=5"):
            gather_scatter_rows(np.ones((8, 7)), good, wrong, None, 5)
        assert written == []

    @pytest.mark.parametrize("bad", [5, -6, 2**40])
    def test_bad_entry_under_the_cut_over(self, monkeypatch, bad):
        # A small block is the chain: numpy names a bad ``gather`` entry
        # while the messages are built, the flat helper a bad row.
        entered = []
        real = scatter._add_at
        monkeypatch.setattr(
            scatter, "_add_at",
            lambda *args: entered.append(1) or real(*args),
        )
        good = np.array([0, 1, 2, 3])
        wrong = np.array([0, 1, bad, 2])
        with pytest.raises(IndexError, match=rf"index {bad} is out of bounds .*size 5"):
            gather_scatter_rows(np.ones((5, 7)), wrong, good, None, 6)
        assert not entered
        with pytest.raises(IndexError, match=rf"scatter index {bad} .*num_rows=5"):
            gather_scatter_rows(np.ones((8, 7)), good, wrong, None, 5)

    def test_scatter_add_rows_out_is_untouched(self, monkeypatch):
        # The in-place entry point over the same rounds: a bad row past
        # many good ones leaves every cell of ``out`` as it was.
        monkeypatch.setattr(scatter, "MIN_ELEMENTS", 0)
        monkeypatch.setattr(scatter, "ROUND_ELEMENTS", 1)
        out = np.zeros((5, 7))
        index = np.array([0, 1, 2, 3, 4, 0, 1, 9])
        with pytest.raises(IndexError, match=r"scatter index 9 .*num_rows=5"):
            scatter.scatter_add_rows(out, index, np.ones((8, 7)))
        assert not out.any()

    def test_fused_op_names_mismatched_lengths(self):
        x = Tensor(np.ones((4, 3)))
        with pytest.raises(ValueError, match="src_pos has 3 entries for 2 segments"):
            F.fused_gather_scatter(x, np.array([0, 1, 2]), np.array([0, 1]), 2)
        with pytest.raises(ValueError, match="weights has 1 entries for 3 edges"):
            F.fused_gather_scatter(
                x, np.array([0, 1, 2]), np.array([0, 1, 1]), 2,
                weights=np.ones(1, np.float32), reducer="weighted_sum",
            )
        # Weights a reducer does not read are not checked either.
        F.fused_gather_scatter(
            x, np.array([0, 1, 2]), np.array([0, 1, 1]), 2,
            weights=np.ones(1, np.float32), reducer="mean",
        )


class TestFusedOpBits:
    """``FusedGatherScatter`` value and input gradient vs the chain."""

    @staticmethod
    def _check(case, reducer, seed_dtype=None):
        x, src_pos, segments, weights, num_segments = case
        if reducer == "weighted_sum" and weights is None:
            weights = np.ones(len(src_pos), dtype=np.float32)
        rng = np.random.default_rng(len(src_pos))
        probe = _chain(
            Tensor(x), src_pos, segments, num_segments, weights, reducer
        ).data
        seed = rng.standard_normal(probe.shape).astype(seed_dtype or probe.dtype)
        expected = _value_and_grad(
            lambda t: _chain(t, src_pos, segments, num_segments, weights, reducer),
            x, seed,
        )
        got = _value_and_grad(
            lambda t: F.fused_gather_scatter(
                t, src_pos, segments, num_segments, weights=weights, reducer=reducer
            ),
            x, seed,
        )
        for g, e in zip(got, expected):
            _same(g, e)

    @settings(**_HYPOTHESIS)
    @given(case=cases(), reducer=st.sampled_from(REDUCERS))
    def test_random_cases(self, constants, case, reducer):
        self._check(case, reducer)

    @pytest.mark.parametrize("reducer", REDUCERS)
    @pytest.mark.parametrize("x_dtype", ["f4", "f8"])
    @pytest.mark.parametrize("w_dtype", ["f4", "f8", None])
    @pytest.mark.parametrize("sort", [False, True])
    def test_grid(self, constants, reducer, x_dtype, w_dtype, sort):
        rng = np.random.default_rng(13)
        case = _make_case(rng, 300, 80, 100, 7, x_dtype, w_dtype, "zipf", sort, None)
        self._check(case, reducer)
        # A float64 seed into float32 layers: training no longer makes
        # one (the loss keeps its inputs' dtype), but the Function must
        # still match the chain when a caller passes it.
        self._check(case, reducer, seed_dtype="f8")

    def test_tape_saves_no_array(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((30, 7)), requires_grad=True)
        out = F.fused_gather_scatter(
            x, rng.integers(0, 30, 100), rng.integers(0, 9, 100), 9,
            weights=rng.standard_normal(100), reducer="weighted_sum",
        )
        assert not any(isinstance(s, np.ndarray) for s in out._ctx.saved)


# -- layers -------------------------------------------------------------
def _unfused_forward(layer, block: LayerBlock, h_inputs: Tensor) -> Tensor:
    """The layers' forward before the kernel: one tape node per op."""
    f_src, _ = ops.scatter_to_edge(block, h_inputs)
    if isinstance(layer, SAGEConv):
        messages = ops.edge_forward(block, f_src, None, lambda src, dst, w: src)
        aggregated = references.segment_mean(
            messages, block.edge_dst_pos, block.num_outputs
        )
    else:
        messages = ops.edge_forward(
            block, f_src, None, lambda src, dst, w: src * Tensor(w.reshape(-1, 1))
        )
        aggregated = ops.gather_by_dst(block, messages)
    return ops.vertex_forward(block, h_inputs, aggregated, layer.vertex)


def _layer_grads(forward, layer, block, rows, seed):
    layer.zero_grad()
    h = Tensor(rows.copy(), requires_grad=True)
    out = forward(block, h)
    out.backward(seed)
    return [out.data, h.grad] + [p.grad for p in layer.parameters()]


class TestLayersMatchUnfused:
    @pytest.mark.parametrize("layer_cls", [GCNConv, GINConv, SAGEConv])
    @pytest.mark.parametrize("graph_seed", [0, 1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_backward_bits(self, constants, layer_cls, graph_seed, dtype):
        arch = {GCNConv: "gcn", GINConv: "gin", SAGEConv: "sage"}[layer_cls]
        rng = np.random.default_rng(graph_seed)
        graph = prepare_graph(
            references.rmat(120, 900, seed=graph_seed, bidirectional=True), arch
        )
        compute = rng.choice(120, size=int(rng.integers(1, 90)), replace=False)
        block = build_block(graph, compute)
        layer = layer_cls(9, 5, rng=np.random.default_rng(graph_seed + 10))
        rows = rng.standard_normal((block.num_inputs, 9)).astype(dtype)
        seed = rng.standard_normal((block.num_outputs, 5))
        got = _layer_grads(layer.forward, layer, block, rows, seed)
        expected = _layer_grads(
            lambda b, h: _unfused_forward(layer, b, h), layer, block, rows, seed
        )
        assert len(got) == len(expected) > 2
        for g, e in zip(got, expected):
            _same(g, e)


class TestNoMessageTensor:
    def test_gcn_layer_peak_stays_under_one_message_array(self):
        # 32768 edges x 64 float32 = 8 MB of messages, were they built;
        # inputs, outputs and gradients are 512 rows each (128 KB).
        num_edges, num_rows, width = 32768, 512, 64
        rng = np.random.default_rng(0)
        dst = np.sort(rng.integers(0, num_rows, size=num_edges))
        block = LayerBlock(
            compute_vertices=np.arange(num_rows),
            input_vertices=np.arange(num_rows),
            edge_src_pos=rng.integers(0, num_rows, size=num_edges),
            edge_dst_pos=dst,
            edge_weight=rng.random(num_edges).astype(np.float32),
            compute_pos_in_inputs=np.arange(num_rows),
            edge_src_global=np.zeros(0, dtype=np.int64),
            edge_ids=np.arange(num_edges),
        )
        assert num_edges * width >= scatter.MIN_ELEMENTS
        layer = GCNConv(width, width, rng=rng)
        rows = rng.standard_normal((num_rows, width)).astype(np.float32)
        seed = rng.standard_normal((num_rows, width)).astype(np.float32)
        message_bytes = num_edges * width * 4

        tracemalloc.start()
        try:
            h = Tensor(rows, requires_grad=True)
            layer.forward(block, h).backward(seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert h.grad is not None
        # The schedule's ~10 int64 per edge (2.5 MB), 512-row activations
        # and round buffers; the chain held two E x d arrays and more.
        assert peak < message_bytes // 2, peak
