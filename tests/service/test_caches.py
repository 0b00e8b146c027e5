"""Unit tests for the service factor cache and the request queue."""

import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.service import (
    FactorCache,
    FactorEntry,
    RequestQueue,
    ServiceOverloaded,
    SolveRequest,
)
from repro.sparse import grid_laplacian_2d


def _entry(key: str, nbytes: int, values_key: str = "v") -> FactorEntry:
    return FactorEntry(pattern_key=key, solver=object(),
                       values_key=values_key, nbytes=nbytes)


class TestFactorCache:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            FactorCache(0)

    def test_lru_eviction_by_budget(self):
        cache = FactorCache(budget_bytes=100)
        cache.put(_entry("a", 40))
        cache.put(_entry("b", 40))
        assert cache.get("a") is not None   # refresh "a"; "b" is now LRU
        evicted = cache.put(_entry("c", 40))
        assert [e.pattern_key for e in evicted] == ["b"]
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.current_bytes == 80
        assert cache.evictions == 1
        assert cache.bytes_evicted == 40

    def test_newest_entry_retained_even_over_budget(self):
        """One oversized factor must not turn every request into a miss."""
        cache = FactorCache(budget_bytes=100)
        cache.put(_entry("small", 10))
        evicted = cache.put(_entry("huge", 500))
        assert [e.pattern_key for e in evicted] == ["small"]
        assert "huge" in cache
        assert cache.current_bytes == 500

    def test_replacing_entry_updates_accounting(self):
        cache = FactorCache(budget_bytes=100)
        cache.put(_entry("a", 40))
        cache.put(_entry("a", 60, values_key="v2"))
        assert len(cache) == 1
        assert cache.current_bytes == 60


def _request(rid: int, pkey: str = "p", vkey: str = "v",
             ncols: int = 1) -> SolveRequest:
    a = grid_laplacian_2d(3, 3)
    return SolveRequest(request_id=rid, a=a,
                        b=np.zeros((a.n, ncols)), squeeze=False,
                        pattern_key=pkey, values_key=vkey,
                        future=Future(), submit_time=0.0)


class TestRequestQueue:
    def test_fifo(self):
        q = RequestQueue(maxsize=4)
        for i in range(3):
            q.put(_request(i))
        assert [q.get().request_id for _ in range(3)] == [0, 1, 2]

    def test_backpressure_raises_on_timeout(self):
        q = RequestQueue(maxsize=1)
        q.put(_request(0))
        with pytest.raises(ServiceOverloaded):
            q.put(_request(1), timeout=0.05)

    def test_put_unblocks_when_space_frees(self):
        q = RequestQueue(maxsize=1)
        q.put(_request(0))
        done = threading.Event()

        def producer():
            q.put(_request(1), timeout=5.0)
            done.set()

        t = threading.Thread(target=producer)
        t.start()
        assert q.get().request_id == 0
        assert done.wait(5.0)
        t.join()
        assert q.get().request_id == 1

    def test_get_timeout_returns_none(self):
        q = RequestQueue(maxsize=1)
        assert q.get(timeout=0.05) is None

    def test_closed_queue_rejects_put_drains_get(self):
        q = RequestQueue(maxsize=4)
        q.put(_request(0))
        q.close()
        with pytest.raises(RuntimeError):
            q.put(_request(1))
        assert q.get().request_id == 0
        assert q.get() is None           # closed + empty: no blocking

    def test_steal_matching_takes_only_same_factor(self):
        q = RequestQueue(maxsize=8)
        q.put(_request(0, pkey="p1", vkey="v1"))
        q.put(_request(1, pkey="p2", vkey="v1"))
        q.put(_request(2, pkey="p1", vkey="v2"))
        q.put(_request(3, pkey="p1", vkey="v1"))
        taken = q.steal_matching("p1", "v1", max_columns=8)
        assert [r.request_id for r in taken] == [0, 3]
        assert [q.get().request_id for _ in range(2)] == [1, 2]

    def test_steal_matching_respects_column_budget(self):
        q = RequestQueue(maxsize=8)
        q.put(_request(0, ncols=2))
        q.put(_request(1, ncols=3))
        q.put(_request(2, ncols=1))
        taken = q.steal_matching("p", "v", max_columns=3)
        # request 1 (3 cols) would overflow after request 0 (2 cols);
        # request 2 (1 col) still fits.
        assert [r.request_id for r in taken] == [0, 2]
        assert q.get().request_id == 1
