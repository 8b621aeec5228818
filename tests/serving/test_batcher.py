"""Micro-batch formation."""

import pytest

from repro.serving import MicroBatcher, Request


def req(i, vertex, t):
    return Request(req_id=i, vertex=vertex, arrival_s=t)


class TestBatching:
    def test_window_coalesces(self):
        requests = [req(0, 5, 0.000), req(1, 6, 0.001), req(2, 7, 0.0015)]
        batches = MicroBatcher(window_s=0.002, max_batch=10).batches(requests)
        assert len(batches) == 1
        assert batches[0].size == 3
        # Window closed it: dispatch = first arrival + window.
        assert batches[0].dispatch_s == pytest.approx(0.002)

    def test_window_expiry_starts_new_batch(self):
        requests = [req(0, 5, 0.0), req(1, 6, 0.01)]
        batches = MicroBatcher(window_s=0.002, max_batch=10).batches(requests)
        assert [b.size for b in batches] == [1, 1]
        assert batches[1].dispatch_s == pytest.approx(0.012)

    def test_size_cap_dispatches_early(self):
        requests = [req(i, i, 0.0001 * i) for i in range(5)]
        batches = MicroBatcher(window_s=1.0, max_batch=2).batches(requests)
        assert [b.size for b in batches] == [2, 2, 1]
        # Size-capped batches dispatch at the capping request's arrival.
        assert batches[0].dispatch_s == pytest.approx(0.0001)
        # The trailing partial batch waits for its window.
        assert batches[2].dispatch_s == pytest.approx(0.0004 + 1.0)

    def test_zero_window_means_one_request_per_batch(self):
        requests = [req(i, i, 0.001 * i) for i in range(4)]
        batches = MicroBatcher(window_s=0.0, max_batch=64).batches(requests)
        assert [b.size for b in batches] == [1, 1, 1, 1]

    def test_unsorted_input_is_ordered_by_arrival(self):
        requests = [req(1, 6, 0.005), req(0, 5, 0.0)]
        batches = MicroBatcher(window_s=0.001, max_batch=8).batches(requests)
        assert [b.requests[0].req_id for b in batches] == [0, 1]

    def test_composition_ignores_everything_but_arrivals(self):
        """Same arrival times, different vertices: identical batching --
        the property that makes tau/mode sweeps replay the same batch
        sequence."""
        a = [req(i, i, 0.0005 * i) for i in range(6)]
        b = [req(i, 63 - i, 0.0005 * i) for i in range(6)]
        batcher = MicroBatcher(window_s=0.002, max_batch=4)
        sizes_a = [x.size for x in batcher.batches(a)]
        sizes_b = [x.size for x in batcher.batches(b)]
        dispatch_a = [x.dispatch_s for x in batcher.batches(a)]
        dispatch_b = [x.dispatch_s for x in batcher.batches(b)]
        assert sizes_a == sizes_b
        assert dispatch_a == dispatch_b


class TestMicroBatch:
    def test_vertices_dedup_first_appearance(self):
        batch = MicroBatcher(window_s=1.0, max_batch=8).batches(
            [req(0, 9, 0.0), req(1, 4, 0.001), req(2, 9, 0.002)]
        )[0]
        assert batch.vertices() == [9, 4]


class TestValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            MicroBatcher(window_s=-0.001)
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)
