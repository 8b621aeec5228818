"""Lock-free position-indexed buffers: the one stable sort behind the
``MirrorExchange`` lists and every compiled ``InputRoute``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.buffers import PositionIndexedBuffer, pack_by_destination


class TestPositionIndexedBuffer:
    def test_scatter_groups_by_destination(self):
        dest = np.array([2, 0, 1, 0])
        buf = PositionIndexedBuffer(dest, num_workers=3)
        rows = np.array([20.0, 0.0, 10.0, 1.0])
        packed = buf.scatter(rows)
        assert buf.chunk_for(packed, 0).tolist() == [0.0, 1.0]
        assert buf.chunk_for(packed, 1).tolist() == [10.0]
        assert buf.chunk_for(packed, 2).tolist() == [20.0]

    def test_positions_are_a_permutation(self):
        dest = np.array([1, 1, 0, 2, 0])
        buf = PositionIndexedBuffer(dest, num_workers=3)
        # Scattering the row numbers shows which row each position holds.
        holds = buf.scatter(np.arange(5))
        assert sorted(holds.tolist()) == list(range(5))
        assert holds.tolist() == [2, 4, 0, 1, 3]

    def test_preserves_per_destination_order(self):
        dest = np.array([0, 1, 0, 1])
        buf = PositionIndexedBuffer(dest, num_workers=2)
        packed = buf.scatter(np.array([1.0, 2.0, 3.0, 4.0]))
        assert buf.chunk_for(packed, 0).tolist() == [1.0, 3.0]
        assert buf.chunk_for(packed, 1).tolist() == [2.0, 4.0]

    def test_2d_rows(self):
        dest = np.array([1, 0])
        buf = PositionIndexedBuffer(dest, num_workers=2)
        rows = np.array([[1.0, 1.0], [2.0, 2.0]])
        packed = buf.scatter(rows)
        assert np.allclose(buf.chunk_for(packed, 0), [[2.0, 2.0]])

    def test_chunk_sizes(self):
        buf = PositionIndexedBuffer(np.array([0, 2, 2]), num_workers=3)
        assert buf.chunk_sizes().tolist() == [1, 0, 2]

    def test_source_rows_point_back(self):
        dest = np.array([1, 0, 1])
        buf = PositionIndexedBuffer(dest, num_workers=2)
        rows = np.array([10.0, 20.0, 30.0])
        packed = buf.scatter(rows)
        src_rows = buf.source_rows(1)
        assert np.allclose(rows[src_rows], buf.chunk_for(packed, 1))

    def test_wrong_row_count_raises(self):
        buf = PositionIndexedBuffer(np.array([0, 1]), num_workers=2)
        with pytest.raises(ValueError, match="laid out"):
            buf.scatter(np.zeros(3))

    def test_out_of_range_destination_raises(self):
        with pytest.raises(ValueError):
            PositionIndexedBuffer(np.array([0, 5]), num_workers=2)

    def test_empty_buffer(self):
        buf = PositionIndexedBuffer(np.array([], dtype=np.int64), num_workers=2)
        packed = buf.scatter(np.zeros((0, 3)))
        assert packed.shape == (0, 3)


class TestPackByDestination:
    def test_roundtrip(self):
        rows = np.arange(12.0).reshape(6, 2)
        dest = np.array([1, 0, 1, 2, 0, 1])
        packed, chunks = pack_by_destination(rows, dest, 3)
        assert len(chunks) == 3
        reassembled = np.concatenate(chunks)
        assert np.allclose(np.sort(reassembled[:, 0]), np.sort(rows[:, 0]))
        for w, chunk in enumerate(chunks):
            assert len(chunk) == (dest == w).sum()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_property_scatter_is_a_permutation(data):
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(0, 30))
    dest = np.asarray(
        data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    rows = np.arange(float(n))
    buf = PositionIndexedBuffer(dest, num_workers=m)
    packed = buf.scatter(rows)
    assert sorted(packed.tolist()) == rows.tolist()
    # Inside a chunk the rows keep their original order.
    for w in range(m):
        assert buf.chunk_for(packed, w).tolist() == rows[dest == w].tolist()
        assert buf.source_rows(w).tolist() == np.flatnonzero(dest == w).tolist()
    # Chunks exactly partition the packed buffer.
    assert buf.chunk_sizes().sum() == n
    for w in range(m):
        chunk = buf.chunk_for(packed, w)
        assert np.allclose(np.sort(dest[chunk.astype(np.int64)]), w)
