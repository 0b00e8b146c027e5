"""Adjacency-graph utilities for symmetric sparse matrices.

The ordering algorithms (nested dissection, AMD, RCM) operate on the
undirected adjacency graph of the matrix: vertex ``i`` is adjacent to ``j``
iff ``a_ij != 0`` for ``i != j``.  This module provides a compact CSR-style
adjacency structure plus traversal helpers (BFS levels, connected
components, pseudo-peripheral vertices) used by several orderings.

Every helper is a whole-array operation: traversals run in
:mod:`scipy.sparse.csgraph` on a CSR matrix that each graph builds once,
and induced subgraphs are gathered from CSR row ranges.
Results are ordered exactly as the per-vertex formulations ordered them
(levels and components sorted by vertex id, components by their smallest
vertex), so the orderings built on top are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .csc import SymmetricCSC, expand_symmetric

__all__ = [
    "AdjacencyGraph",
    "bfs_levels",
    "connected_components",
    "peripheral_level_structure",
    "pseudo_peripheral_vertex",
]


@dataclass(frozen=True)
class AdjacencyGraph:
    """Undirected adjacency graph in CSR-like (indptr, indices) form.

    Self-loops are removed; the structure is symmetric by construction.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @staticmethod
    def from_symmetric(a: SymmetricCSC) -> "AdjacencyGraph":
        """Adjacency graph of the full symmetric matrix, diagonal dropped."""
        full = expand_symmetric(a.lower)
        return AdjacencyGraph.from_sparse(full)

    @staticmethod
    def from_sparse(full: sp.spmatrix) -> "AdjacencyGraph":
        """Adjacency graph of an already-full symmetric sparse matrix."""
        full = sp.csr_matrix(full)
        full = full - sp.diags(full.diagonal())
        full = sp.csr_matrix(full)
        full.eliminate_zeros()
        full.sort_indices()
        return AdjacencyGraph(
            indptr=full.indptr.astype(np.int64),
            indices=full.indices.astype(np.int64),
        )

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.indptr.size - 1

    @cached_property
    def csr(self) -> sp.csr_matrix:
        """Unit-weight CSR matrix of the graph (built on first use, then cached).

        The input of every :mod:`scipy.sparse.csgraph` traversal below.
        """
        return sp.csr_matrix(
            (np.ones(self.indices.size), self.indices, self.indptr),
            shape=(self.n, self.n))

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        """Vector of all vertex degrees."""
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbors of vertex ``v``."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def subgraph(self, vertices: np.ndarray) -> tuple["AdjacencyGraph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns the subgraph and the vertex list (mapping local -> global).
        Local vertex ``i`` corresponds to global vertex ``vertices[i]``;
        each local adjacency list is sorted, whatever the order of
        ``vertices``.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        k = vertices.size
        local = np.full(self.n, -1, dtype=np.int64)
        local[vertices] = np.arange(k)
        # Gather the CSR row ranges of `vertices` back to back: output
        # slot j of row i reads input slot j + starts[i] - (row i's offset).
        starts = self.indptr[vertices]
        lens = self.indptr[vertices + 1] - starts
        ends = np.cumsum(lens)
        pos = np.arange(ends[-1] if k else 0) + np.repeat(starts - (ends - lens), lens)
        row = np.repeat(np.arange(k), lens)
        col = local[self.indices[pos]]
        inside = col >= 0
        row, col = row[inside], col[inside]
        col = col[np.lexsort((col, row))]
        indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=k), out=indptr[1:])
        return AdjacencyGraph(indptr=indptr, indices=col), vertices


def bfs_levels(graph: AdjacencyGraph, root: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Breadth-first level structure rooted at ``root``.

    Returns ``(level, levels)`` where ``level[v]`` is the BFS depth of ``v``
    (-1 if unreachable) and ``levels[d]`` lists the vertices at depth ``d``
    in ascending order.  Unreachable vertices appear in no level.
    """
    order, parent = csgraph.breadth_first_order(
        graph.csr, root, directed=True, return_predecessors=True)
    # `order` is FIFO discovery order: each level is a run of it, and the
    # queue positions of the vertices' BFS parents never decrease along
    # it, so level d + 1 ends just after the last vertex whose parent
    # lies in level d.
    pos = np.empty(graph.n, dtype=np.int64)
    pos[order] = np.arange(order.size)
    parent_pos = pos[parent[order[1:]]]
    bounds = [0, 1]
    while bounds[-1] < order.size:
        bounds.append(int(np.searchsorted(parent_pos, bounds[-1])) + 1)
    level = np.full(graph.n, -1, dtype=np.int64)
    level[order] = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    return level, [np.sort(order[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def connected_components(graph: AdjacencyGraph) -> list[np.ndarray]:
    """Connected components as sorted vertex arrays, ordered by smallest vertex."""
    if graph.n == 0:
        return []
    ncomp, labels = csgraph.connected_components(graph.csr, directed=False)
    # Renumber components by their smallest vertex, then group stably.
    _, first = np.unique(labels, return_index=True)
    rank = np.empty(ncomp, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(ncomp)
    key = rank[labels]
    members = np.argsort(key, kind="stable")
    bounds = [0, *np.cumsum(np.bincount(key)).tolist()]
    return [members[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def peripheral_level_structure(graph: AdjacencyGraph, start: int
                               ) -> tuple[int, np.ndarray, list[np.ndarray]]:
    """Pseudo-peripheral vertex and its BFS level structure (George-Liu sweep).

    Starting from ``start``, repeatedly re-roots at the minimum-degree
    vertex of the deepest level (first in id order on ties) until the
    eccentricity stops growing.  Returns ``(root, level, levels)`` with
    ``(level, levels) == bfs_levels(graph, root)``, so callers that need
    the root's level structure do not traverse again.
    """
    degrees = graph.degrees()
    root = start
    level, levels = bfs_levels(graph, root)
    while True:
        last = levels[-1]
        candidate = int(last[np.argmin(degrees[last])])
        c_level, c_levels = bfs_levels(graph, candidate)
        if len(c_levels) <= len(levels):
            return root, level, levels
        root, level, levels = candidate, c_level, c_levels


def pseudo_peripheral_vertex(graph: AdjacencyGraph, start: int) -> int:
    """Find a pseudo-peripheral vertex by repeated BFS (George-Liu sweep).

    Used to pick good roots for level-set separators and RCM: a vertex at
    (approximately) maximal eccentricity within its component.
    """
    return peripheral_level_structure(graph, start)[0]
