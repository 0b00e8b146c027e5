"""Orderings computed with whole-array graph operations equal the originals.

``repro.sparse.graph`` traverses graphs with ``scipy.sparse.csgraph`` and
gathers subgraphs from CSR row ranges; the per-vertex loops it replaced
live on in :mod:`tests.oracles.ordering`.  Every permutation must be
*identical* — not merely as good — because the permutation fixes the
symbolic structure, the task graph and therefore every factor bit.  The
cases cover grids, the flan / bone / thermal generators and random
multi-component graphs with isolated vertices, drawn in random vertex
order so that components interleave.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ordering import compute_ordering
from repro.sparse import (
    SymmetricCSC,
    bone_like,
    flan_like,
    grid_laplacian_2d,
    lower_csc,
    thermal_like,
)
from tests.oracles.ordering import nd_order, rcm_order, scotch_like_order

ORACLES = {"scotch_like": scotch_like_order, "nd": nd_order, "rcm": rcm_order}

MATRICES = {
    "grid_40x40": lambda: grid_laplacian_2d(40, 40),
    "grid_64x64": lambda: grid_laplacian_2d(64, 64),
    "grid_61x23": lambda: grid_laplacian_2d(61, 23),
    "flan_5": lambda: flan_like(scale=5),
    "flan_6": lambda: flan_like(scale=6, seed=3),
    "bone_8": lambda: bone_like(scale=8),
    "bone_9": lambda: bone_like(scale=9, seed=4),
    "thermal_900": lambda: thermal_like(n=900),
    "thermal_2500": lambda: thermal_like(n=2500, seed=5),
}


def _assert_same_order(a, method):
    new = compute_ordering(a, method).perm
    old = ORACLES[method](a)
    assert new.dtype == old.dtype
    assert np.array_equal(new, old), method


@pytest.mark.parametrize("method", sorted(ORACLES))
@pytest.mark.parametrize("name", sorted(MATRICES))
def test_generator_orderings_match_oracle(name, method):
    _assert_same_order(MATRICES[name](), method)


def _spd_from_edges(n, rows, cols):
    """Diagonally dominant SPD matrix whose graph has exactly these edges."""
    m = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsc()
    m = m + m.T
    m.data[:] = -1.0
    degree = -np.asarray(m.sum(axis=1)).ravel()
    return SymmetricCSC(lower_csc(m + sp.diags(degree + 1.0)))


@st.composite
def multi_component_matrices(draw):
    """A union of random connected pieces and isolated vertices, shuffled.

    Each piece is a random spanning tree plus extra random edges, so it
    is connected before the shuffle; sizes reach past the dissection
    leaf size so separators are actually taken.
    """
    sizes = draw(st.lists(st.integers(2, 260), min_size=1, max_size=6))
    isolated = draw(st.integers(0, 8))
    extra = draw(st.floats(0.0, 3.0))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    rows, cols, base = [], [], 0
    for size in sizes:
        child = np.arange(1, size)
        parent = rng.integers(0, child)  # parent < child: a spanning tree
        k = int(extra * size)
        rows += [base + child, base + rng.integers(0, size, k)]
        cols += [base + parent, base + rng.integers(0, size, k)]
        base += size
    n = base + isolated
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    keep = rows != cols
    relabel = rng.permutation(n)
    return _spd_from_edges(n, relabel[rows[keep]], relabel[cols[keep]])


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(multi_component_matrices())
def test_random_multi_component_orderings_match_oracle(a):
    for method in sorted(ORACLES):
        _assert_same_order(a, method)


@pytest.mark.parametrize("method", sorted(ORACLES))
def test_isolated_vertices_only(method):
    # No edges at all: every vertex is its own component.
    a = SymmetricCSC.from_any(np.diag(np.arange(1.0, 30.0)))
    _assert_same_order(a, method)
