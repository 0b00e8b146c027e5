"""Ordering oracles: the original per-vertex implementations, verbatim.

The graph helpers (``AdjacencyGraph.subgraph``, ``bfs_levels``,
``connected_components``, ``pseudo_peripheral_vertex``), nested
dissection and Cuthill-McKee below are the loop-based code that
``repro.sparse.graph`` / ``repro.ordering`` replaced with whole-array
NumPy and ``scipy.sparse.csgraph`` operations; the set-of-sets minimum
degree is the original the quotient-graph ``minimum_degree_order``
reproduces.  Every production permutation must equal the one computed
here (``tests/property/test_ordering_identity.py``,
``tests/property/test_coldpath_identity.py``).

Only the entry-point wrappers at the bottom (``scotch_like_order``,
``nd_order``, ``rcm_order``, ``amd_reference_order``) are new; the
algorithms are unchanged, so the copies are deliberately not tidied.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.ordering.amd import minimum_degree_order
from repro.ordering.nested_dissection import NDOptions
from repro.ordering.scotch_like import ScotchLikeOptions
from repro.sparse.csc import SymmetricCSC, expand_symmetric


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
        Local vertex ``i`` corresponds to global vertex ``vertices[i]``.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        local = np.full(self.n, -1, dtype=np.int64)
        local[vertices] = np.arange(vertices.size)
        indptr = [0]
        indices: list[int] = []
        for v in vertices:
            nbrs = local[self.neighbors(v)]
            nbrs = nbrs[nbrs >= 0]
            indices.extend(int(u) for u in np.sort(nbrs))
            indptr.append(len(indices))
        return (
            AdjacencyGraph(
                indptr=np.asarray(indptr, dtype=np.int64),
                indices=np.asarray(indices, dtype=np.int64),
            ),
            vertices,
        )


def bfs_levels(graph: AdjacencyGraph, root: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Breadth-first level structure rooted at ``root``.

    Returns ``(level, levels)`` where ``level[v]`` is the BFS depth of ``v``
    (-1 if unreachable) and ``levels[d]`` lists the vertices at depth ``d``.
    """
    level = np.full(graph.n, -1, dtype=np.int64)
    level[root] = 0
    frontier = np.asarray([root], dtype=np.int64)
    levels = [frontier]
    depth = 0
    while frontier.size:
        nxt: list[int] = []
        for v in frontier:
            for u in graph.neighbors(v):
                if level[u] < 0:
                    level[u] = depth + 1
                    nxt.append(int(u))
        frontier = np.asarray(sorted(set(nxt)), dtype=np.int64)
        if frontier.size:
            levels.append(frontier)
        depth += 1
    return level, levels


def connected_components(graph: AdjacencyGraph) -> list[np.ndarray]:
    """Connected components as sorted vertex arrays (deterministic order)."""
    seen = np.zeros(graph.n, dtype=bool)
    components: list[np.ndarray] = []
    for start in range(graph.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in graph.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    stack.append(int(u))
        components.append(np.asarray(sorted(comp), dtype=np.int64))
    return components


def pseudo_peripheral_vertex(graph: AdjacencyGraph, start: int) -> int:
    """Find a pseudo-peripheral vertex by repeated BFS (George-Liu sweep).

    Used to pick good roots for level-set separators and RCM: a vertex at
    (approximately) maximal eccentricity within its component.
    """
    v = start
    _, levels = bfs_levels(graph, v)
    ecc = len(levels) - 1
    while True:
        last = levels[-1]
        degs = np.asarray([graph.degree(int(u)) for u in last])
        candidate = int(last[int(np.argmin(degs))])
        _, levels = bfs_levels(graph, candidate)
        new_ecc = len(levels) - 1
        if new_ecc <= ecc:
            return v
        v, ecc = candidate, new_ecc


def _level_separator(graph: AdjacencyGraph, opts: NDOptions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split one connected graph into (part_a, part_b, separator).

    Chooses the thinnest BFS level near the middle of a level structure
    rooted at a pseudo-peripheral vertex.  Falls back to an empty separator
    when the graph has too few levels to split.
    """
    root = pseudo_peripheral_vertex(graph, 0)
    level, levels = bfs_levels(graph, root)
    nlev = len(levels)
    # Vertices unreachable from the root (the graph may have been
    # disconnected by a previous separator removal): they can join either
    # part safely; put them with part_a.
    unreachable = np.flatnonzero(level < 0)
    if nlev < 3:
        return unreachable, np.empty(0, np.int64), np.flatnonzero(level >= 0)

    mid = nlev // 2
    radius = max(1, int(opts.balance_window * nlev / 2))
    lo = max(1, mid - radius)
    hi = min(nlev - 1, mid + radius + 1)
    candidates = range(lo, hi)
    sep_level = min(candidates, key=lambda d: (levels[d].size, abs(d - mid)))

    separator = levels[sep_level]
    part_a = np.concatenate(
        [levels[d] for d in range(sep_level)] + [unreachable]
    )
    below = [levels[d] for d in range(sep_level + 1, nlev)]
    part_b = np.concatenate(below) if below else np.empty(0, np.int64)
    return np.sort(part_a), np.sort(part_b), np.sort(separator)


MDCallable = Callable[[AdjacencyGraph], np.ndarray]


def _nd_recurse(graph: AdjacencyGraph, vertices: np.ndarray, opts: NDOptions,
                out: list[int], md: MDCallable) -> None:
    """Append the nested-dissection order of ``graph`` (global ids) to ``out``."""
    if graph.n == 0:
        return
    if graph.n <= opts.leaf_size:
        local = md(graph)
        out.extend(int(vertices[v]) for v in local)
        return

    part_a, part_b, separator = _level_separator(graph, opts)
    if part_a.size == 0 or part_b.size == 0:
        # Could not split (e.g. path-like or clique-like graph): fall back.
        local = md(graph)
        out.extend(int(vertices[v]) for v in local)
        return

    for part in (part_a, part_b):
        sub, sub_vertices = graph.subgraph(part)
        _nd_recurse(sub, vertices[sub_vertices], opts, out, md)
    # Separator last: its columns are eliminated after both halves.
    out.extend(int(vertices[v]) for v in separator)


def nested_dissection_order(a: SymmetricCSC, opts: NDOptions | None = None,
                            md: MDCallable | None = None) -> np.ndarray:
    """Nested-dissection elimination order for ``a`` (all components).

    ``md`` selects the leaf minimum-degree implementation; the default is
    the fast quotient-graph one.
    """
    opts = opts or NDOptions()
    md = md or minimum_degree_order
    graph = AdjacencyGraph.from_symmetric(a)
    seen = np.zeros(graph.n, dtype=bool)
    order: list[int] = []
    for start in range(graph.n):
        if seen[start]:
            continue
        # Collect the component containing `start`.
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in graph.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    stack.append(int(u))
        comp_arr = np.asarray(sorted(comp), dtype=np.int64)
        sub, sub_vertices = graph.subgraph(comp_arr)
        _nd_recurse(sub, comp_arr, opts, order, md)
    return np.asarray(order, dtype=np.int64)


def _cuthill_mckee(graph: AdjacencyGraph) -> np.ndarray:
    """Cuthill-McKee order over all components (deterministic)."""
    n = graph.n
    order = np.empty(n, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    degs = graph.degrees()
    pos = 0
    for start in np.argsort(degs, kind="stable"):
        if visited[start]:
            continue
        root = pseudo_peripheral_vertex(graph, int(start))
        queue = [root]
        visited[root] = True
        while queue:
            v = queue.pop(0)
            order[pos] = v
            pos += 1
            nbrs = graph.neighbors(v)
            nbrs = nbrs[~visited[nbrs]]
            visited[nbrs] = True
            queue.extend(int(u) for u in nbrs[np.argsort(degs[nbrs], kind="stable")])
    return order


def minimum_degree_order_reference(graph: AdjacencyGraph) -> np.ndarray:
    """Set-of-sets minimum-degree order (the retained reference).

    Eliminating a vertex turns its neighbourhood into a clique; the next
    pivot is always a vertex of (currently) minimal degree.  Ties break by
    vertex index for determinism.
    """
    n = graph.n
    adj: list[set[int]] = [set(int(u) for u in graph.neighbors(v)) for v in range(n)]
    eliminated = np.zeros(n, dtype=bool)
    heap: list[tuple[int, int]] = [(len(adj[v]), v) for v in range(n)]
    heapq.heapify(heap)
    order = np.empty(n, dtype=np.int64)

    for pos in range(n):
        while True:
            deg, v = heapq.heappop(heap)
            if not eliminated[v] and deg == len(adj[v]):
                break
        order[pos] = v
        eliminated[v] = True
        nbrs = adj[v]
        for u in nbrs:
            adj[u].discard(v)
        # Form the elimination clique among surviving neighbours.
        nbr_list = sorted(nbrs)
        for i, u in enumerate(nbr_list):
            new = adj[u]
            before = len(new)
            for w in nbr_list[i + 1 :]:
                if w not in new:
                    new.add(w)
                    adj[w].add(u)
            if len(new) != before:
                heapq.heappush(heap, (len(new), u))
        for u in nbr_list:
            heapq.heappush(heap, (len(adj[u]), u))
        adj[v] = set()
    return order


# --- Entry points mirroring the registered orderings -----------------------

def scotch_like_order(a: SymmetricCSC, md: MDCallable | None = None) -> np.ndarray:
    """Oracle of the ``scotch_like`` ordering."""
    return nested_dissection_order(a, ScotchLikeOptions().to_nd(), md=md)


def nd_order(a: SymmetricCSC, md: MDCallable | None = None) -> np.ndarray:
    """Oracle of the ``nd`` ordering."""
    return nested_dissection_order(a, NDOptions(), md=md)


def rcm_order(a: SymmetricCSC) -> np.ndarray:
    """Oracle of the ``rcm`` ordering."""
    return _cuthill_mckee(AdjacencyGraph.from_symmetric(a))[::-1].copy()


def amd_reference_order(a: SymmetricCSC) -> np.ndarray:
    """The set-of-sets minimum degree on ``a`` (oracle of ``amd``)."""
    return minimum_degree_order_reference(AdjacencyGraph.from_symmetric(a))
