"""``scatter_add_rows`` versus ``np.add.at``, compared as raw bits.

The kernel claims bit-identity by construction (same additions, same
per-row order), so every comparison here is on the integer view of the
floats: signed zeros, NaN payloads and infinities must match too.  The
cut-over constants are patched small so the rounds, the hub tail and
both plain-call exits all run on inputs Hypothesis can shrink.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.tensor import functional as F
from repro.tensor import scatter
from repro.tensor.scatter import scatter_add_rows, scatter_rows
from repro.tensor.tensor import Tensor


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view({4: np.uint32, 8: np.uint64}[a.dtype.itemsize])


def _assert_same_bits(index, values, out):
    expected, got = out.copy(), out.copy()
    np.add.at(expected, index, values)
    scatter_add_rows(got, index, values)
    assert got.dtype == expected.dtype
    assert np.array_equal(_bits(got), _bits(expected))


@pytest.fixture(params=[(0, 1), (0, 16), (64, 48), (10**9, 512)], ids=str)
def constants(request, monkeypatch):
    """(MIN_ELEMENTS, ROUND_ELEMENTS): rounds to the last edge, rounds
    plus tail, a cut-over inside the generated sizes, never."""
    min_elements, round_elements = request.param
    monkeypatch.setattr(scatter, "MIN_ELEMENTS", min_elements)
    monkeypatch.setattr(scatter, "ROUND_ELEMENTS", round_elements)


def _index(rng, kind, num_edges, num_rows):
    if kind == "zipf":  # hub skew: a few rows hold most edges
        index = np.minimum(rng.zipf(1.3, size=num_edges) - 1, num_rows - 1)
    elif kind == "bounded":  # fan-in <= 3: nothing left for the tail
        index = rng.permutation(np.repeat(np.arange(num_rows), 3))[:num_edges]
    else:
        index = rng.integers(0, num_rows, size=num_edges)
    return index.astype(np.int64)


@st.composite
def cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 100_000)))
    num_rows = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["uniform", "zipf", "bounded"]))
    num_edges = draw(st.integers(0, 3 * num_rows if kind == "bounded" else 120))
    width = draw(st.sampled_from([1, 7, 64]))
    out_dtype, values_dtype = draw(
        st.sampled_from(
            [("f4", "f4"), ("f8", "f8"), ("f4", "f8"), ("f8", "f4")]
        )
    )
    index = _index(rng, kind, num_edges, num_rows)
    if draw(st.booleans()):
        index = np.sort(index)
    if draw(st.booleans()):  # in-range negatives address rows from the end
        index = np.where(rng.random(num_edges) < 0.3, index - num_rows, index)
    values = (rng.standard_normal((num_edges, width)) * 1e3).astype(values_dtype)
    special = draw(st.sampled_from([None, -0.0, np.inf, -np.inf, np.nan]))
    if special is not None and num_edges:
        values[rng.random(num_edges) < 0.3] = special
    if draw(st.booleans()):
        out = rng.standard_normal((num_rows, width)).astype(out_dtype)
    else:
        out = np.zeros((num_rows, width), dtype=out_dtype)
    return index, values, out


class TestBitIdentity:
    @settings(
        max_examples=150, deadline=None,
        # The patched constants are the same for every example.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=cases())
    def test_random_cases(self, constants, case):
        _assert_same_bits(*case)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [1, 7, 64])
    @pytest.mark.parametrize("kind", ["uniform", "zipf", "bounded"])
    @pytest.mark.parametrize("sort", [False, True])
    def test_grid(self, constants, dtype, width, kind, sort):
        rng = np.random.default_rng(width)
        index = _index(rng, kind, 300, 100)
        if sort:
            index = np.sort(index)
        values = rng.standard_normal((300, width)).astype(dtype)
        _assert_same_bits(index, values, np.zeros((100, width), dtype))
        _assert_same_bits(
            index, values, rng.standard_normal((100, width)).astype(dtype)
        )

    def test_default_constants_reach_rounds_and_tail(self):
        # No patching: a block big enough for the shipped cut-over, with
        # one hub row that outlives the rounds.
        rng = np.random.default_rng(0)
        index = np.concatenate(
            [rng.integers(0, 200, size=3000), np.zeros(500, dtype=np.int64)]
        )
        rng.shuffle(index)
        values = rng.standard_normal((3500, 64)).astype(np.float32)
        _assert_same_bits(index, values, np.zeros((200, 64), np.float32))
        _assert_same_bits(np.sort(index), values, np.zeros((200, 64), np.float32))

    def test_more_rows_than_sixteen_bit_keys(self, constants):
        # Row ids past 65535 cannot take the uint16 radix sort.
        rng = np.random.default_rng(3)
        index = rng.integers(0, 70_000, size=400)
        index[::3] = 69_999
        values = rng.standard_normal((400, 7)).astype(np.float32)
        _assert_same_bits(index, values, np.zeros((70_000, 7), np.float32))

    def test_negative_zero_rows(self, constants):
        # 0.0 + -0.0 is +0.0, so a fresh accumulator never keeps the sign.
        values = np.full((6, 7), -0.0, dtype=np.float32)
        index = np.array([0, 0, 1, 2, 2, 2])
        _assert_same_bits(index, values, np.zeros((4, 7), np.float32))
        _assert_same_bits(index, values, np.full((4, 7), -0.0, np.float32))

    def test_one_row(self, constants):
        values = np.arange(35.0).reshape(5, 7)
        _assert_same_bits(np.zeros(5, dtype=np.int64), values, np.ones((1, 7)))

    def test_no_edges(self, constants):
        out = np.ones((3, 7))
        scatter_add_rows(out, np.zeros(0, dtype=np.int64), np.zeros((0, 7)))
        assert np.array_equal(out, np.ones((3, 7)))

    def test_no_rows_no_edges(self, constants):
        out = np.zeros((0, 7))
        scatter_add_rows(out, np.zeros(0, dtype=np.int64), np.zeros((0, 7)))
        assert out.shape == (0, 7)

    def test_one_dimensional_values(self, constants):
        rng = np.random.default_rng(1)
        index = rng.integers(0, 9, size=200)
        _assert_same_bits(index, rng.standard_normal(200), np.zeros(9))

    def test_two_dimensional_index_falls_through(self, constants):
        index = np.array([[0, 1], [1, 1]])
        values = np.arange(28.0).reshape(2, 2, 7)
        _assert_same_bits(index, values, np.zeros((3, 7)))
        assert scatter_rows(index, values, 3).shape == (3, 7)


class TestIndexValidation:
    @pytest.mark.parametrize("bad", [5, -6, 99])
    def test_out_of_range_names_index_and_rows(self, monkeypatch, bad):
        monkeypatch.setattr(scatter, "MIN_ELEMENTS", 0)
        index = np.array([0, 1, bad, 2])
        with pytest.raises(IndexError, match=rf"index {bad} .*num_rows=5"):
            scatter_add_rows(np.zeros((5, 7)), index, np.ones((4, 7)))

    def test_below_cut_over_numpy_names_them(self):
        with pytest.raises(IndexError, match=r"index 5 .* size 5"):
            scatter_add_rows(np.zeros((5, 7)), np.array([5]), np.ones((1, 7)))

    def test_no_rows_with_edges(self, monkeypatch):
        monkeypatch.setattr(scatter, "MIN_ELEMENTS", 0)
        with pytest.raises(IndexError, match="num_rows=0"):
            scatter_add_rows(np.zeros((0, 7)), np.array([0]), np.ones((1, 7)))

    def test_out_is_untouched_on_error(self, monkeypatch):
        monkeypatch.setattr(scatter, "MIN_ELEMENTS", 0)
        out = np.zeros((5, 7))
        with pytest.raises(IndexError):
            scatter_add_rows(out, np.array([0, 7]), np.ones((2, 7)))
        assert not out.any()

    def test_float_index_stays_numpys_error(self, constants):
        with pytest.raises(IndexError, match="integer"):
            scatter_add_rows(np.zeros((5, 7)), np.array([0.0]), np.ones((1, 7)))

    def test_segment_sum_length_check_stays(self):
        with pytest.raises(ValueError, match="segments has 2 entries for 3 rows"):
            F.segment_sum(Tensor(np.ones((3, 2))), np.array([0, 1]), 2)


class TestRoutedSites:
    """The autograd ops that used to open-code zeros + np.add.at."""

    def test_slice_backward_integer_rows(self, monkeypatch):
        monkeypatch.setattr(scatter, "MIN_ELEMENTS", 0)
        monkeypatch.setattr(scatter, "ROUND_ELEMENTS", 1)
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((6, 7)), requires_grad=True)
        rows = np.array([5, 0, 5, 2, 0, 5, -1])
        seed = rng.standard_normal((7, 7))
        x[rows].backward(seed)
        expected = np.zeros((6, 7))
        np.add.at(expected, rows, seed)
        assert np.array_equal(_bits(x.grad), _bits(expected))

    def test_slice_backward_other_indices_unchanged(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        x[(np.array([0, 0, 2]), np.array([1, 1, 3]))].sum().backward()
        assert x.grad[0, 1] == 2.0 and x.grad[2, 3] == 1.0 and x.grad.sum() == 3.0
