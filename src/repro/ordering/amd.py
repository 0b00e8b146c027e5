"""Minimum-degree ordering (AMD-style).

A quotient-graph minimum-degree ordering with lazy-heap degree selection.
Used directly on small problems and as the leaf ordering of the
nested-dissection pipeline (mirroring how Scotch applies a local minimum
degree variant below its dissection cut-off).

:func:`minimum_degree_order` is a quotient-graph algorithm: eliminated
pivots become *elements* whose boundary lists stand in for the
elimination clique, elements reachable from the pivot are absorbed,
indistinguishable (twin) vertices are detected with an exact stamped scan
and mass-eliminated, and degrees start from a flat NumPy array.  It never
materialises the elimination graph, so the O(clique^2) set insertions of
the original set-of-sets implementation (the *reference*, kept as a test
oracle in ``tests/oracles/ordering.py``) are replaced by linear list
scans.

Bit-identity is by construction, not by luck:

* degrees are **exact** external degrees — the Amestoy-Davis-Duff
  *approximate* degree bound would change pivot selection relative to the
  reference, so it is deliberately not used;
* ties break on vertex index, matching the reference heap's
  ``(degree, vertex)`` tuples;
* when pivot ``v`` is the minimum, every vertex whose closed
  neighbourhood equals ``v``'s sits at degree ``deg(v) - 1`` after ``v``
  is eliminated while every other vertex stays at ``>= deg(v)``, so the
  reference eliminates exactly ``v``'s twin set next, in ascending index
  order.  Mass-eliminating ``{v} + twins`` sorted ascending therefore
  reproduces the reference's one-at-a-time order exactly.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..sparse.csc import SymmetricCSC
from ..sparse.graph import AdjacencyGraph
from .base import register_ordering
from .permutation import Permutation

__all__ = ["amd_ordering", "minimum_degree_order"]


def minimum_degree_order(graph: AdjacencyGraph) -> np.ndarray:
    """Quotient-graph minimum-degree elimination order of ``graph``.

    Bit-identical to the set-of-sets reference (property tests assert
    this across all generator families); see the module docstring for
    why.
    """
    n = graph.n
    order = np.empty(n, dtype=np.int64)
    if n == 0:
        return order

    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    # Initial degrees in one flat array; the heap keys below are plain
    # ints sliced out of it (`tolist` avoids boxed-scalar arithmetic in
    # the elimination loop).
    degree = np.diff(graph.indptr).astype(np.int64)
    key = degree.tolist()

    # Quotient-graph state.  `a_list[v]` holds still-uncovered original
    # neighbours, `e_list[v]` the elements (eliminated cliques) whose
    # boundary contains v, `bound[e]` an element's boundary (None once
    # absorbed).  Eliminated/merged vertices simply stay in stale lists
    # and are skipped via `alive`.
    a_list: list[list[int]] = [indices[indptr[v]:indptr[v + 1]] for v in range(n)]
    e_list: list[list[int]] = [[] for _ in range(n)]
    bound: list[list[int] | None] = [None] * n
    alive = [True] * n
    lp_mark = [0] * n  # stamp: member of the current pivot boundary
    seen_mark = [0] * n  # stamp: already counted for the current scan
    tag = 0
    stamp = 0

    heap: list[tuple[int, int]] = [(int(d), v) for v, d in enumerate(key)]
    heapq.heapify(heap)

    pos = 0
    while pos < n:
        while True:
            d, v = heapq.heappop(heap)
            if alive[v] and d == key[v]:
                break

        # --- Boundary of the new element: distinct live vertices
        # adjacent to v, through uncovered edges and through every
        # element v touches.  Those elements' boundaries are subsets of
        # {v} + Lp (their boundary is a clique containing v), so they
        # are absorbed into the new element — but only *after* the
        # degree/twin scans below, which still need the old boundaries
        # to see each member's pre-elimination adjacency.
        tag += 1
        lp: list[int] = []
        for x in a_list[v]:
            if alive[x] and lp_mark[x] != tag:
                lp_mark[x] = tag
                lp.append(x)
        for e in e_list[v]:
            b = bound[e]
            if b is None:
                continue
            for x in b:
                if alive[x] and x != v and lp_mark[x] != tag:
                    lp_mark[x] = tag
                    lp.append(x)

        # --- One exact stamped scan per boundary vertex: computes the
        # external degree (distinct live neighbours outside the
        # boundary) and tests indistinguishability from the pivot
        # (no external neighbours and adjacent to every other boundary
        # vertex).  The same pass prunes covered/dead entries.
        lp_size = len(lp)
        ext = [0] * lp_size
        twins: list[int] = []
        for li, i in enumerate(lp):
            stamp += 1
            seen_mark[i] = stamp  # never count self
            seen_mark[v] = stamp  # nor the pivot (still flagged alive here)
            ext_i = 0
            cov_i = 0
            new_a: list[int] = []
            for x in a_list[i]:
                if not alive[x] or seen_mark[x] == stamp:
                    continue
                seen_mark[x] = stamp
                if lp_mark[x] == tag:
                    cov_i += 1  # covered by the new element: prune
                else:
                    ext_i += 1
                    new_a.append(x)
            a_list[i] = new_a
            new_e: list[int] = []
            for e in e_list[i]:
                b = bound[e]
                if b is None:
                    continue
                new_e.append(e)
                for x in b:
                    if not alive[x] or seen_mark[x] == stamp:
                        continue
                    seen_mark[x] = stamp
                    if lp_mark[x] == tag:
                        cov_i += 1
                    else:
                        ext_i += 1
            new_e.append(v)  # the new element covers Lp \ {i}
            e_list[i] = new_e
            ext[li] = ext_i
            if ext_i == 0 and cov_i == lp_size - 1:
                twins.append(i)

        # --- Mass elimination: the pivot plus its exact twin set, in
        # ascending index order (see module docstring for the proof that
        # this matches the reference's consecutive picks).
        alive[v] = False
        for t in twins:
            alive[t] = False
        group = [v] + twins
        group.sort()
        for g in group:
            order[pos] = g
            pos += 1

        # --- Form the element and refresh surviving boundary degrees.
        # The pivot's elements are absorbed now that the scans are done;
        # stale references to them in surviving e_lists are dropped
        # lazily on their next scan.
        for e in e_list[v]:
            bound[e] = None
        lp2 = [x for x in lp if alive[x]]
        bound[v] = lp2
        a_list[v] = []
        e_list[v] = []
        base = len(lp2) - 1
        for li, i in enumerate(lp):
            if not alive[i]:
                continue
            d_new = base + ext[li]
            key[i] = d_new
            heapq.heappush(heap, (d_new, i))
    return order


@register_ordering("amd")
def amd_ordering(a: SymmetricCSC) -> Permutation:
    """Minimum-degree fill-reducing ordering of a symmetric matrix."""
    graph = AdjacencyGraph.from_symmetric(a)
    return Permutation(minimum_degree_order(graph))
