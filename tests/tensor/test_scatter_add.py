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
        # Both sides of the cut-over raise the kernel's message now: the
        # flat small-block form would otherwise name a flattened cell.
        with pytest.raises(
            IndexError, match=r"scatter index 5 is out of range for num_rows=5"
        ):
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


class TestFlatSmallBlocks:
    """``_add_at``: the flattened 1-D form below the cut-over, at the
    grouped-then-plain exit and on the hub tail, and its plain fallback."""

    @staticmethod
    def _same_bits(index, values, out):
        expected, got = out.copy(), out.copy()
        np.add.at(expected, index, values)
        scatter._add_at(got, index, values)
        assert np.array_equal(_bits(got), _bits(expected))

    @settings(max_examples=150, deadline=None)
    @given(case=cases())
    def test_random_cases(self, case):
        self._same_bits(*case)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [1, 7, 64])
    @pytest.mark.parametrize("kind", ["uniform", "zipf", "bounded"])
    @pytest.mark.parametrize("sort", [False, True])
    def test_grid(self, dtype, width, kind, sort):
        rng = np.random.default_rng(width)
        index = _index(rng, kind, 93, 31)
        if sort:
            index = np.sort(index)
        index = np.where(rng.random(93) < 0.2, index - 31, index)
        values = rng.standard_normal((93, width)).astype(dtype)
        values[rng.random(93) < 0.2] = -0.0
        values[rng.random(93) < 0.1] = np.inf
        values[rng.random(93) < 0.1] = np.nan
        self._same_bits(index, values, np.zeros((31, width), dtype))
        self._same_bits(
            index, values, rng.standard_normal((31, width)).astype(dtype)
        )

    @pytest.mark.parametrize("index_dtype", [np.int32, np.uint8, np.uint64])
    def test_narrow_and_unsigned_index_dtypes(self, index_dtype):
        rng = np.random.default_rng(4)
        index = rng.integers(0, 200, size=300).astype(index_dtype)
        values = rng.standard_normal((300, 64))
        self._same_bits(index, values, np.zeros((200, 64)))

    def test_one_row_and_no_edges(self):
        values = np.arange(35.0).reshape(5, 7)
        self._same_bits(np.zeros(5, dtype=np.int64), values, np.ones((1, 7)))
        self._same_bits(np.zeros(0, dtype=np.int64), np.zeros((0, 7)), np.ones((3, 7)))

    @pytest.mark.parametrize("bad", [5, -6, 99, 2**40])
    def test_bad_row_is_named_and_nothing_is_written(self, bad):
        # Rows are validated before they are flattened.
        out = np.zeros((5, 7))
        with pytest.raises(IndexError, match=rf"index {bad} .*num_rows=5"):
            scatter._add_at(out, np.array([0, bad, 1]), np.ones((3, 7)))
        assert not out.any()

    @pytest.mark.parametrize("bad", [
        np.int64(2**58),  # * 64 wraps to cell 0: would write row 0
        np.iinfo(np.int64).max,  # * 64 wraps to -64: would write the last row
        np.iinfo(np.int64).min,
        np.uint64(2**63),  # negative once cast to intp
        np.uint64(2**64 - 1),
    ])
    def test_rows_whose_flat_cell_would_wrap_int64_still_raise(self, bad):
        out = np.zeros((5, 64))
        index = np.array([0, bad, 1], dtype=np.asarray(bad).dtype)
        with pytest.raises(IndexError, match=rf"index {int(bad)} .*num_rows=5"):
            scatter._add_at(out, index, np.ones((3, 64)))
        with pytest.raises(IndexError, match=rf"index {int(bad)} .*num_rows=5"):
            scatter_add_rows(out, index, np.ones((3, 64)))
        assert not out.any()

    def test_out_of_range_cannot_alias_a_neighbouring_row(self):
        # A view of the first 2 rows of a 4-row buffer: flat cell 2 * 7
        # exists in memory, but not in the view the flat form indexes.
        backing = np.zeros((4, 7))
        with pytest.raises(IndexError, match="num_rows=2"):
            scatter._add_at(backing[:2], np.array([2]), np.ones((1, 7)))
        assert not backing.any()

    def test_non_contiguous_out_takes_the_fallback(self):
        rng = np.random.default_rng(5)
        index = rng.integers(0, 6, size=40)
        values = rng.standard_normal((40, 7))
        out = rng.standard_normal((6, 14))[:, ::2]
        assert not out.flags.c_contiguous
        self._same_bits(index, values, out)
        # The fallback is plain np.add.at: numpy's own message.
        with pytest.raises(IndexError, match=r"index 6 .* size 6"):
            scatter._add_at(out, np.array([6]), np.ones((1, 7)))

    @pytest.mark.parametrize("out_dtype, values_dtype", [("f4", "f8"), ("f8", "f4")])
    def test_mixed_dtypes_take_the_fallback(self, out_dtype, values_dtype):
        rng = np.random.default_rng(6)
        index = rng.integers(0, 6, size=40)
        values = rng.standard_normal((40, 7)).astype(values_dtype)
        self._same_bits(index, values, np.zeros((6, 7), out_dtype))
        with pytest.raises(IndexError, match=r"index 6 .* size 6"):
            scatter._add_at(
                np.zeros((6, 7), out_dtype), np.array([6]),
                np.ones((1, 7), values_dtype),
            )

    def test_masks_broadcasts_and_one_dimensional_values_fall_back(self):
        out = np.zeros((3, 7))
        scatter._add_at(out, np.array([True, False, True]), np.ones((2, 7)))
        assert out[0].sum() == 7 and out[1].sum() == 0 and out[2].sum() == 7
        scatter._add_at(out, np.array([1, 1]), np.ones(7))  # broadcast row
        assert out[1].sum() == 14
        flat = np.zeros(4)
        scatter._add_at(flat, np.array([3, 3, 0]), np.array([1.0, 2.0, 4.0]))
        assert flat.tolist() == [4.0, 0.0, 0.0, 3.0]

    def test_hub_tail_and_grouped_exit_run_the_flat_form(self, monkeypatch):
        # Count helper entries that take the flat branch on each exit.
        flat_calls = []
        real = scatter._add_at

        def spy(out, index, values):
            flat_calls.append(out.dtype == values.dtype and out.flags.c_contiguous)
            real(out, index, values)

        monkeypatch.setattr(scatter, "_add_at", spy)
        rng = np.random.default_rng(7)
        index = np.concatenate(
            [rng.integers(0, 50, size=300), np.zeros(200, dtype=np.int64)]
        )
        values = rng.standard_normal((500, 7)).astype(np.float32)
        monkeypatch.setattr(scatter, "MIN_ELEMENTS", 0)
        monkeypatch.setattr(scatter, "ROUND_ELEMENTS", 16)
        _assert_same_bits(index, values, np.zeros((50, 7), np.float32))
        assert flat_calls == [True]  # the hub tail
        monkeypatch.setattr(scatter, "MIN_ELEMENTS", 10**6)
        monkeypatch.setattr(scatter, "ROUND_ELEMENTS", 10**6)
        values = rng.standard_normal((500, 7)).astype(np.float32)
        _assert_same_bits(index, values, np.zeros((50, 7), np.float32))
        assert flat_calls == [True, True]  # below the cut-over


    def test_blocks_numpy_would_cast_break_even_at_a_third(self, monkeypatch):
        # LayerExecutor.accumulate's shape on reddit, float64 into
        # float32: below the flat cut-over, but the flat form cannot
        # take it and numpy's casting loop is ~15x slower than the
        # rounds there, so it must not leave through the helper.
        helper_calls = []
        real = scatter._add_at
        monkeypatch.setattr(
            scatter, "_add_at",
            lambda *args: helper_calls.append(1) or real(*args),
        )
        rng = np.random.default_rng(8)
        index = rng.permutation(75)
        assert 75 * 256 < scatter.MIN_ELEMENTS
        _assert_same_bits(
            index, rng.standard_normal((75, 256)), np.zeros((75, 256), np.float32)
        )
        assert not helper_calls
        _assert_same_bits(
            index, rng.standard_normal((75, 256)).astype(np.float32),
            np.zeros((75, 256), np.float32),
        )
        assert helper_calls == [1]


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
