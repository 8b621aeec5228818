"""HistoricalEmbeddingCache: staleness semantics, invalidation, accounting."""

import numpy as np
import pytest

from repro.cache.historical import HistoricalEmbeddingCache


def rows_for(ids, dim=4, value=1.0):
    return np.full((len(ids), dim), value, dtype=np.float32)


class TestStaleness:
    def test_fresh_within_tau(self):
        cache = HistoricalEmbeddingCache(2, tau=3.0)
        ids = np.array([5, 7])
        cache.store(2, ids, rows_for(ids), epoch=10)
        for epoch in (10, 11, 12):
            fresh, rows = cache.lookup(2, ids, epoch)
            assert fresh.all() and rows.shape == (2, 4)
        fresh, rows = cache.lookup(2, ids, 13)  # 13 - 10 >= 3: expired
        assert not fresh.any() and rows is None

    def test_tau_zero_never_fresh(self):
        cache = HistoricalEmbeddingCache(1, tau=0.0)
        ids = np.array([1])
        cache.store(1, ids, rows_for(ids), epoch=4)
        fresh, rows = cache.lookup(1, ids, 4)
        assert not fresh.any() and rows is None
        assert cache.counters.expirations == 1

    def test_tau_one_fresh_only_in_store_epoch(self):
        cache = HistoricalEmbeddingCache(1, tau=1.0)
        ids = np.array([1])
        cache.store(1, ids, rows_for(ids), epoch=4)
        assert cache.lookup(1, ids, 4)[0].all()
        assert not cache.lookup(1, ids, 5)[0].any()

    def test_tau_inf_always_fresh(self):
        cache = HistoricalEmbeddingCache(1, tau=float("inf"))
        ids = np.array([1])
        cache.store(1, ids, rows_for(ids), epoch=0)
        assert cache.lookup(1, ids, 10**6)[0].all()

    def test_restore_restamps(self):
        cache = HistoricalEmbeddingCache(1, tau=2.0)
        ids = np.array([3])
        cache.store(1, ids, rows_for(ids, value=1.0), epoch=0)
        cache.store(1, ids, rows_for(ids, value=9.0), epoch=5)
        fresh, rows = cache.lookup(1, ids, 6)
        assert fresh.all() and (rows == 9.0).all()
        assert cache.peek(1, [3])[1] == [5]

    def test_missing_is_miss(self):
        cache = HistoricalEmbeddingCache(1, tau=2.0)
        fresh, rows = cache.lookup(1, np.array([42]), 0)
        assert not fresh.any() and rows is None
        assert cache.counters.misses == 1

    def test_mixed_fresh_rows_align(self):
        cache = HistoricalEmbeddingCache(1, tau=10.0)
        cache.store(1, np.array([2]), rows_for([2], value=2.0), epoch=0)
        cache.store(1, np.array([4]), rows_for([4], value=4.0), epoch=0)
        fresh, rows = cache.lookup(1, np.array([4, 3, 2]), 1)
        assert fresh.tolist() == [True, False, True]
        assert rows[0, 0] == 4.0 and rows[1, 0] == 2.0


class TestLayers:
    def test_layers_are_separate_id_spaces(self):
        cache = HistoricalEmbeddingCache(2, tau=10.0)
        cache.store(1, np.array([7]), rows_for([7], value=1.0), epoch=0)
        cache.store(2, np.array([7]), rows_for([7], value=2.0), epoch=0)
        assert cache.lookup(1, np.array([7]), 0)[1][0, 0] == 1.0
        assert cache.lookup(2, np.array([7]), 0)[1][0, 0] == 2.0
        assert cache.breakdown() == {1: 1, 2: 1}

    def test_layer_bounds_checked(self):
        cache = HistoricalEmbeddingCache(2, tau=1.0)
        with pytest.raises(ValueError):
            cache.store(3, np.array([0]), rows_for([0]), epoch=0)
        with pytest.raises(ValueError):
            cache.lookup(0, np.array([0]), 0)


class TestEviction:
    def test_invalidate_clears_everything(self):
        cache = HistoricalEmbeddingCache(1, tau=10.0)
        cache.store(1, np.array([1, 2]), rows_for([1, 2]), epoch=0)
        cache.invalidate()
        assert len(cache) == 0 and cache.resident_bytes == 0
        assert not cache.lookup(1, np.array([1]), 0)[0].any()


class TestCounters:
    def test_hit_rate(self):
        cache = HistoricalEmbeddingCache(1, tau=2.0)
        cache.store(1, np.array([1]), rows_for([1]), epoch=0)
        cache.lookup(1, np.array([1]), 1)  # hit
        cache.lookup(1, np.array([1]), 3)  # expired
        cache.lookup(1, np.array([9]), 1)  # miss
        c = cache.counters
        assert (c.hits, c.expirations, c.misses) == (1, 1, 1)
        assert c.hit_rate() == pytest.approx(1 / 3)

    def test_stored_rows_are_copies(self):
        cache = HistoricalEmbeddingCache(1, tau=10.0)
        rows = rows_for([1])
        cache.store(1, np.array([1]), rows, epoch=0)
        rows[:] = 99.0  # mutate the caller's buffer
        assert cache.lookup(1, np.array([1]), 0)[1][0, 0] == 1.0


class TestValidation:
    def test_bad_args(self):
        with pytest.raises(ValueError):
            HistoricalEmbeddingCache(0, tau=1.0)
        with pytest.raises(ValueError):
            HistoricalEmbeddingCache(1, tau=-1.0)
        cache = HistoricalEmbeddingCache(1, tau=1.0)
        with pytest.raises(ValueError):
            cache.store(1, np.array([1, 2]), rows_for([1]), epoch=0)
