"""Reverse Cuthill-McKee ordering.

A bandwidth-reducing ordering; not the paper's primary choice but a useful
cheap baseline and a building block for level-set separators.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csc import SymmetricCSC
from ..sparse.graph import AdjacencyGraph, pseudo_peripheral_vertex
from .base import register_ordering
from .permutation import Permutation

__all__ = ["rcm_ordering"]


def _cuthill_mckee(graph: AdjacencyGraph) -> np.ndarray:
    """Cuthill-McKee order over all components (deterministic).

    ``order`` doubles as the BFS queue: ``order[head:tail]`` holds the
    visited vertices still to be expanded.  Isolated vertices sort first
    by degree and each is its own pseudo-peripheral vertex and whole
    component, so they are placed up front in one step, with no BFS.
    """
    n = graph.n
    order = np.empty(n, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    degs = graph.degrees()
    isolated = np.flatnonzero(degs == 0)
    order[:isolated.size] = isolated
    visited[isolated] = True
    head = tail = isolated.size
    for start in np.argsort(degs, kind="stable")[isolated.size:]:
        if visited[start]:
            continue
        root = pseudo_peripheral_vertex(graph, int(start))
        visited[root] = True
        order[tail] = root
        tail += 1
        while head < tail:
            v = order[head]
            head += 1
            nbrs = graph.neighbors(v)
            nbrs = nbrs[~visited[nbrs]]
            visited[nbrs] = True
            nbrs = nbrs[np.argsort(degs[nbrs], kind="stable")]
            order[tail:tail + nbrs.size] = nbrs
            tail += nbrs.size
    return order


@register_ordering("rcm")
def rcm_ordering(a: SymmetricCSC) -> Permutation:
    """Reverse Cuthill-McKee ordering of a symmetric matrix."""
    graph = AdjacencyGraph.from_symmetric(a)
    return Permutation(_cuthill_mckee(graph)[::-1].copy())
