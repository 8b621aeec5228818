"""Master-mirror exchange bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mirror import MirrorExchange


@pytest.fixture
def exchange():
    # 3 workers; assignment: 0,1 -> w0; 2,3 -> w1; 4,5 -> w2.
    assignment = np.array([0, 0, 1, 1, 2, 2])
    comm = [
        np.array([2, 4]),      # w0 pulls 2 (from w1) and 4 (from w2)
        np.array([0]),         # w1 pulls 0 (from w0)
        np.array([], dtype=np.int64),  # w2 pulls nothing
    ]
    return MirrorExchange(assignment, comm, 3)


class TestCounts:
    def test_counts_matrix(self, exchange):
        expected = np.array([
            [0, 1, 0],
            [1, 0, 0],
            [1, 0, 0],
        ])
        assert np.array_equal(exchange.counts, expected)

    def test_total(self, exchange):
        assert exchange.total_vertices == 3

    def test_volume_matrix_scales_with_dim(self, exchange):
        v = exchange.volume_matrix(dim=8)
        assert v[1, 0] == 8 * 4
        assert v.sum() == 3 * 8 * 4

class TestIdLists:
    def test_recv_ids(self, exchange):
        assert exchange.recv_ids[(1, 0)].tolist() == [2]
        assert exchange.recv_ids[(2, 0)].tolist() == [4]
        assert exchange.recv_ids[(0, 1)].tolist() == [0]

    def test_own_vertex_as_mirror_rejected(self):
        assignment = np.array([0, 1])
        with pytest.raises(ValueError, match="own vertices"):
            MirrorExchange(assignment, [np.array([0]), np.array([])], 2)

    def test_empty_exchange(self):
        assignment = np.array([0, 1])
        ex = MirrorExchange(assignment, [np.array([], dtype=np.int64)] * 2, 2)
        assert ex.total_vertices == 0
        assert ex.volume_matrix(16).sum() == 0


def _mask_loop_lists(assignment, comm_vertices, num_workers):
    """The m x m boolean-mask construction ``MirrorExchange`` used
    before its lists came from one stable sort per receiver."""
    recv_ids = {}
    for i, vertices in enumerate(comm_vertices):
        owners = assignment[vertices]
        for j in range(num_workers):
            mine = vertices[owners == j]
            if len(mine):
                recv_ids[(j, i)] = mine
    return recv_ids


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_property_pair_lists_equal_the_mask_loop(data):
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(m, 40))
    assignment = np.asarray(
        data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    comm = []
    for i in range(m):
        remote = np.flatnonzero(assignment != i)
        picked = data.draw(st.lists(st.sampled_from(remote.tolist()), unique=True)
                           if len(remote) else st.just([]))
        comm.append(np.asarray(picked, dtype=np.int64))  # any order
    exchange = MirrorExchange(assignment, comm, m)
    want = _mask_loop_lists(assignment, comm, m)
    assert list(exchange.recv_ids) == list(want)  # same pairs, same order
    for pair, ids in want.items():
        assert exchange.recv_ids[pair].tolist() == ids.tolist()
        assert exchange.counts[pair] == len(ids)
    assert exchange.total_vertices == sum(len(c) for c in comm)
