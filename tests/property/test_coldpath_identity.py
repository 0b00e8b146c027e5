"""Bit-identity of the accelerated cold path against the test oracles.

The quotient-graph minimum degree, the row-walk flat column structures,
the vectorized supernode build/amalgamation/regroup and the global block
partition were all written to reproduce the original implementations
*exactly* — same permutation, same supernode boundaries, same block
lists — so every downstream numeric artifact is unchanged.  These tests
pin that equivalence across the three synthetic workload families plus
random SPD patterns and seeds.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.ordering.amd import minimum_degree_order
from repro.sparse import bone_like, flan_like, random_spd, thermal_like
from repro.sparse.graph import AdjacencyGraph
from repro.symbolic import AnalysisCache, analyze
from tests.oracles.ordering import minimum_degree_order_reference
from tests.oracles.symbolic import analyze_reference

FAMILIES = {
    "flan_like": lambda seed: flan_like(scale=4 + seed % 2),
    "bone_like": lambda seed: bone_like(scale=5 + seed % 2),
    "thermal_like": lambda seed: thermal_like(n=150 + 40 * (seed % 2)),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [0, 1])
def test_quotient_md_matches_reference(family, seed):
    a = FAMILIES[family](seed)
    graph = AdjacencyGraph.from_symmetric(a)
    assert np.array_equal(minimum_degree_order(graph),
                          minimum_degree_order_reference(graph))


@pytest.mark.parametrize("seed", range(6))
def test_quotient_md_matches_reference_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 90))
    density = float(rng.uniform(0.02, 0.6))
    a = random_spd(n, density=density, seed=seed + 100)
    graph = AdjacencyGraph.from_symmetric(a)
    assert np.array_equal(minimum_degree_order(graph),
                          minimum_degree_order_reference(graph))


def _assert_analysis_identical(fast, ref):
    assert np.array_equal(fast.perm.perm, ref.perm.perm)
    assert np.array_equal(fast.symbolic.parent, ref.symbolic.parent)
    assert np.array_equal(fast.symbolic.struct_ptr, ref.symbolic.struct_ptr)
    assert np.array_equal(fast.symbolic.struct_rows, ref.symbolic.struct_rows)
    sf, sr = fast.supernodes, ref.supernodes
    assert np.array_equal(sf.sn_start, sr.sn_start)
    assert np.array_equal(sf.sn_of_col, sr.sn_of_col)
    assert np.array_equal(sf.parent_sn, sr.parent_sn)
    assert sf.zeros_introduced == sr.zeros_introduced
    assert len(sf.structs) == len(sr.structs)
    for x, y in zip(sf.structs, sr.structs):
        assert np.array_equal(x, y)
    assert sf.factor_nnz() == sr.factor_nnz()
    bf, br = fast.blocks, ref.blocks
    assert bf.n_blocks() == br.n_blocks()
    for per_f, per_r in zip(bf.blocks, br.blocks):
        assert len(per_f) == len(per_r)
        for u, v in zip(per_f, per_r):
            assert (u.src, u.tgt, u.offset) == (v.src, v.tgt, v.offset)
            assert np.array_equal(u.rows, v.rows)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [0, 1])
def test_full_pipeline_matches_reference(family, seed):
    a = FAMILIES[family](seed)
    _assert_analysis_identical(analyze(a), analyze_reference(a))


@pytest.mark.parametrize("ordering", ["scotch_like", "amd", "rcm"])
def test_pipeline_matches_reference_per_ordering(ordering):
    a = thermal_like(n=220)
    _assert_analysis_identical(analyze(a, ordering=ordering),
                               analyze_reference(a, ordering=ordering))


def _solver_families():
    from repro import CPU_ONLY, SolverOptions, SymPackSolver
    from repro.baselines.pastix_like import PastixLikeSolver, PastixOptions
    from repro.variants import (
        FanBothOptions,
        FanBothSolver,
        FanInOptions,
        FanInSolver,
        MultifrontalOptions,
        MultifrontalSolver,
    )

    return [
        (SymPackSolver, SolverOptions(nranks=2, offload=CPU_ONLY)),
        (FanInSolver, FanInOptions(nranks=2, offload=CPU_ONLY)),
        (FanBothSolver, FanBothOptions(nranks=2, offload=CPU_ONLY)),
        (MultifrontalSolver, MultifrontalOptions(nranks=2, offload=CPU_ONLY)),
        (PastixLikeSolver, PastixOptions(nranks=2, offload=CPU_ONLY)),
    ]


def test_factors_bit_identical_across_all_families():
    # End-to-end pin: feeding the *reference* cold path into each of the
    # five solver families produces factors bit-identical to the default
    # (accelerated) path.  The DES overhaul rides along implicitly — both
    # runs use the new event engine, so identical analyses must yield
    # identical task schedules and identical floating-point sums.
    a = thermal_like(n=240)
    ref = analyze_reference(a)
    for solver_cls, opts in _solver_families():
        fast = solver_cls(a, opts)
        fast.factorize()
        cache = AnalysisCache()
        cache.put(a, ref)
        slow = solver_cls(a, replace(opts, analysis_cache=cache))
        assert slow.analysis.perm is ref.perm, solver_cls.__name__
        slow.factorize()
        lf = fast.storage.to_sparse_factor()
        ls = slow.storage.to_sparse_factor()
        assert np.array_equal(lf.indptr, ls.indptr), solver_cls.__name__
        assert np.array_equal(lf.indices, ls.indices), solver_cls.__name__
        assert np.array_equal(lf.data, ls.data), solver_cls.__name__
