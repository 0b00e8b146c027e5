"""AnalysisCache: round-trip, value rebinding, eviction, corrupt files."""

import numpy as np
import pytest

from repro.sparse import random_spd, thermal_like
from repro.symbolic import AnalysisCache, analyze
from repro.symbolic.cache import analysis_from_arrays, analysis_to_arrays


def _assert_same_analysis(x, y):
    assert np.array_equal(x.perm.perm, y.perm.perm)
    assert np.array_equal(x.symbolic.struct_ptr, y.symbolic.struct_ptr)
    assert np.array_equal(x.symbolic.struct_rows, y.symbolic.struct_rows)
    assert np.array_equal(x.supernodes.sn_start, y.supernodes.sn_start)
    assert x.blocks.n_blocks() == y.blocks.n_blocks()
    for per_x, per_y in zip(x.blocks.blocks, y.blocks.blocks):
        for u, v in zip(per_x, per_y):
            assert (u.src, u.tgt, u.offset) == (v.src, v.tgt, v.offset)
            assert np.array_equal(u.rows, v.rows)
    assert np.array_equal(x.a_perm.lower.data, y.a_perm.lower.data)


class TestArrayRoundTrip:
    def test_round_trip_rebuilds_everything(self):
        a = thermal_like(n=200)
        analysis = analyze(a)
        rebuilt = analysis_from_arrays(a, analysis_to_arrays(analysis))
        _assert_same_analysis(analysis, rebuilt)
        # a rebuilt analysis reports an all-zero compute breakdown
        assert rebuilt.phase_seconds["ordering"] == 0.0
        assert rebuilt.phase_seconds["symbolic"] == 0.0
        assert rebuilt.phase_seconds["blocks"] == 0.0

    def test_version_mismatch_raises(self):
        a = random_spd(40, density=0.2, seed=1)
        arrays = analysis_to_arrays(analyze(a))
        arrays["version"] = np.int64(999)
        with pytest.raises(ValueError, match="format"):
            analysis_from_arrays(a, arrays)


class TestAnalysisCache:
    def test_memory_hit_rebinds_values(self):
        a = random_spd(60, density=0.15, seed=2)
        cache = AnalysisCache()
        assert cache.get(a) is None
        cache.put(a, analyze(a))
        # same pattern, different values
        b = random_spd(60, density=0.15, seed=2)
        b.lower.data[:] *= 2.0
        hit = cache.get(b)
        assert hit is not None
        _assert_same_analysis(hit, analyze(b))
        stats = cache.stats()
        assert stats == {"mem_hits": 1, "disk_hits": 0, "misses": 1,
                         "puts": 1, "evictions": 0, "entries": 1}

    def test_disk_hit_from_fresh_instance(self, tmp_path):
        a = thermal_like(n=180)
        writer = AnalysisCache(tmp_path)
        writer.put(a, analyze(a))
        reader = AnalysisCache(tmp_path)  # cold memory tier
        hit = reader.get(a)
        assert hit is not None
        _assert_same_analysis(hit, analyze(a))
        stats = reader.stats()
        assert stats["disk_hits"] == 1 and stats["mem_hits"] == 0
        # the disk hit was promoted: second get is a memory hit
        assert reader.get(a) is not None
        assert reader.stats()["mem_hits"] == 1

    def test_corrupt_file_is_a_miss(self, tmp_path):
        a = random_spd(50, density=0.2, seed=3)
        cache = AnalysisCache(tmp_path)
        key = cache.put(a, analyze(a))
        path = tmp_path / f"{key}.npz"
        path.write_bytes(b"this is not an npz archive")
        fresh = AnalysisCache(tmp_path)
        assert fresh.get(a) is None
        assert fresh.stats()["misses"] == 1

    def test_lru_eviction(self):
        cache = AnalysisCache(max_entries=2)
        mats = [random_spd(30 + i, density=0.2, seed=i) for i in range(3)]
        for m in mats:
            cache.put(m, analyze(m))
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        assert cache.get(mats[0]) is None      # evicted (oldest)
        assert cache.get(mats[2]) is not None  # newest survives

    def test_get_refreshes_lru_slot(self):
        cache = AnalysisCache(max_entries=2)
        mats = [random_spd(30 + i, density=0.2, seed=i) for i in range(3)]
        cache.put(mats[0], analyze(mats[0]))
        cache.put(mats[1], analyze(mats[1]))
        assert cache.get(mats[0]) is not None  # refresh 0; 1 is now LRU
        cache.put(mats[2], analyze(mats[2]))
        assert cache.key_of(mats[1]) not in cache
        assert cache.key_of(mats[0]) in cache and cache.key_of(mats[2]) in cache

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="max_entries"):
            AnalysisCache(max_entries=0)

    def test_memory_only_cache_has_no_disk_tier(self):
        a = random_spd(30, density=0.2, seed=5)
        cache = AnalysisCache()
        cache.put(a, analyze(a))
        with pytest.raises(ValueError, match="directory"):
            cache._path("deadbeef")


class TestSolverIntegration:
    def test_solver_hit_skips_cold_path_and_keeps_factors(self, tmp_path):
        from repro import CPU_ONLY, SolverOptions, SymPackSolver

        a = thermal_like(n=250)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(a.n)

        cold_opts = SolverOptions(nranks=2, offload=CPU_ONLY)
        s0 = SymPackSolver(a, cold_opts)
        info0 = s0.factorize()
        x0, _ = s0.solve(b)
        l0 = s0.storage.to_sparse_factor().toarray()
        assert info0.ordering_ms > 0.0
        assert info0.first_des_ms > 0.0

        cache = AnalysisCache(tmp_path)
        warm_opts = SolverOptions(nranks=2, offload=CPU_ONLY,
                                  analysis_cache=cache)
        s1 = SymPackSolver(a, warm_opts)   # miss: publishes
        s1.factorize()
        assert cache.stats()["puts"] == 1

        s2 = SymPackSolver(a, warm_opts)   # memory hit
        info2 = s2.factorize()
        x2, _ = s2.solve(b)
        l2 = s2.storage.to_sparse_factor().toarray()
        assert cache.stats()["mem_hits"] == 1
        # hit path skips ordering/symbolic/blocks entirely
        assert info2.ordering_ms == 0.0
        assert info2.symbolic_ms == 0.0
        assert info2.blocks_ms == 0.0
        assert "cache_load" in s2.analysis.phase_seconds
        # and the numeric results are bit-identical to the cold run
        assert np.array_equal(l0, l2)
        assert np.array_equal(x0, x2)
        # the trace carries the same breakdown
        phases = s2.trace.phase_breakdown()
        assert phases["ordering_ms"] == 0.0
        assert phases["first_des_ms"] > 0.0

    def test_service_symbolic_tier_rides_analysis_cache(self, tmp_path,
                                                        monkeypatch):
        from repro import CPU_ONLY, SolverOptions
        from repro.service import ServiceConfig, SolveService
        from repro.sparse import SymmetricCSC

        value_rebinds = []
        real_permuted = SymmetricCSC.permuted

        def counting(self, perm):
            value_rebinds.append(self)
            return real_permuted(self, perm)

        a = thermal_like(n=200)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(a.n)
        opts = SolverOptions(nranks=2, offload=CPU_ONLY)
        cfg = ServiceConfig(workers=1,
                            analysis_cache_dir=str(tmp_path))

        with SolveService(opts, cfg) as svc:
            x1, _ = svc.solve(a, b)
            counters = svc.counters()
        assert counters.analysis_cache["puts"] == 1
        assert counters.tiers.get("cold") == 1

        # A fresh service (new process stand-in) resolves the same
        # pattern at the symbolic tier straight from disk, permuting the
        # request's values into the cached ordering exactly once.
        monkeypatch.setattr(SymmetricCSC, "permuted", counting)
        with SolveService(opts, cfg) as svc2:
            x2, _ = svc2.solve(a, b)
            counters2 = svc2.counters()
        assert len(value_rebinds) == 1
        assert counters2.analysis_cache["disk_hits"] == 1
        assert counters2.analysis_cache["mem_hits"] == 0
        assert counters2.tiers.get("symbolic") == 1
        assert "cold" not in counters2.tiers
        assert np.array_equal(x1, x2)
