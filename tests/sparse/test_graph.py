"""Unit tests for the adjacency-graph substrate."""

from functools import cached_property

import numpy as np
import scipy.sparse as sp

import repro.sparse.graph as graph_module
from repro.ordering import compute_ordering
from repro.sparse import (
    AdjacencyGraph,
    SymmetricCSC,
    bfs_levels,
    connected_components,
    grid_laplacian_2d,
    pseudo_peripheral_vertex,
)
from repro.sparse.graph import peripheral_level_structure


def graph_from_edges(n, edges):
    a = np.eye(n) * 4.0
    for i, j in edges:
        a[i, j] = a[j, i] = -1.0
    return AdjacencyGraph.from_symmetric(SymmetricCSC.from_any(a))


def path_graph(n):
    a = np.eye(n) * 2.0
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = -1.0
    return AdjacencyGraph.from_symmetric(SymmetricCSC.from_any(a))


class TestConstruction:
    def test_drops_diagonal(self, tiny_spd):
        g = AdjacencyGraph.from_symmetric(tiny_spd)
        for v in range(g.n):
            assert v not in g.neighbors(v)

    def test_symmetric_neighbors(self, lap2d):
        g = AdjacencyGraph.from_symmetric(lap2d)
        for v in range(g.n):
            for u in g.neighbors(v):
                assert v in g.neighbors(int(u))

    def test_degrees_match_structure(self):
        g = path_graph(5)
        assert list(g.degrees()) == [1, 2, 2, 2, 1]


class TestSubgraph:
    def test_induced_edges_only(self):
        g = path_graph(6)
        sub, verts = g.subgraph(np.array([0, 1, 3, 4]))
        assert sub.n == 4
        # local 0-1 connected (global 0-1); local 2-3 connected (global 3-4)
        assert 1 in sub.neighbors(0)
        assert 2 not in sub.neighbors(1)  # global 1-3 not adjacent
        assert 3 in sub.neighbors(2)

    def test_vertex_mapping_returned(self):
        g = path_graph(4)
        _, verts = g.subgraph(np.array([2, 3]))
        assert list(verts) == [2, 3]

    def test_unsorted_vertex_list(self):
        # Local ids follow the given order; each adjacency list is sorted.
        g = AdjacencyGraph.from_symmetric(grid_laplacian_2d(4, 4))
        vertices = np.array([9, 5, 4, 6, 1, 10, 0])
        sub, verts = g.subgraph(vertices)
        assert list(verts) == list(vertices)
        local = {int(v): i for i, v in enumerate(vertices)}
        for i, v in enumerate(vertices):
            expected = sorted(local[int(u)] for u in g.neighbors(int(v))
                              if int(u) in local)
            assert list(sub.neighbors(i)) == expected

    def test_subgraph_of_nothing(self):
        sub, verts = path_graph(5).subgraph(np.array([], dtype=np.int64))
        assert sub.n == 0 and verts.size == 0 and sub.indices.size == 0


class TestBfs:
    def test_levels_of_path(self):
        g = path_graph(5)
        level, levels = bfs_levels(g, 0)
        assert list(level) == [0, 1, 2, 3, 4]
        assert len(levels) == 5

    def test_unreachable_marked(self):
        # Two disconnected edges: 0-1 and 2-3.
        a = np.eye(4) * 2
        a[0, 1] = a[1, 0] = -1
        a[2, 3] = a[3, 2] = -1
        g = AdjacencyGraph.from_symmetric(SymmetricCSC.from_any(a))
        level, _ = bfs_levels(g, 0)
        assert level[2] == -1 and level[3] == -1

    def test_levels_sorted_within_each_level(self):
        g = AdjacencyGraph.from_symmetric(grid_laplacian_2d(7, 9))
        for root in (0, 31, 62):
            level, levels = bfs_levels(g, root)
            assert list(levels[0]) == [root]
            for d, members in enumerate(levels):
                assert np.all(np.diff(members) > 0)
                assert np.array_equal(members, np.flatnonzero(level == d))

    def test_isolated_root(self):
        g = graph_from_edges(6, [(0, 1), (1, 2), (3, 4)])
        level, levels = bfs_levels(g, 5)
        assert list(level) == [-1, -1, -1, -1, -1, 0]
        assert len(levels) == 1 and list(levels[0]) == [5]
        assert pseudo_peripheral_vertex(g, 5) == 5

    def test_unreachable_vertices_in_no_level(self):
        g = graph_from_edges(7, [(0, 4), (4, 6), (1, 2), (2, 5)])
        level, levels = bfs_levels(g, 6)
        assert [list(x) for x in levels] == [[6], [4], [0]]
        assert np.array_equal(np.flatnonzero(level < 0), [1, 2, 3, 5])
        assert sorted(np.concatenate(levels).tolist()) == [0, 4, 6]


class TestComponents:
    def test_single_component(self, lap2d):
        g = AdjacencyGraph.from_symmetric(lap2d)
        comps = connected_components(g)
        assert len(comps) == 1
        assert comps[0].size == g.n

    def test_multiple_components(self):
        a = np.eye(5) * 2
        a[0, 1] = a[1, 0] = -1
        g = AdjacencyGraph.from_symmetric(SymmetricCSC.from_any(a))
        comps = connected_components(g)
        assert [c.size for c in comps] == [2, 1, 1, 1]

    def test_ordered_by_smallest_vertex(self):
        # Interleaved components: {1, 6, 3}, {0, 5}, {2}, {4, 7}.
        g = graph_from_edges(8, [(6, 1), (3, 6), (5, 0), (7, 4)])
        comps = connected_components(g)
        assert [list(c) for c in comps] == [[0, 5], [1, 3, 6], [2], [4, 7]]

    def test_empty_graph(self):
        g = AdjacencyGraph(indptr=np.zeros(1, np.int64), indices=np.zeros(0, np.int64))
        assert connected_components(g) == []


class TestPseudoPeripheral:
    def test_path_endpoint(self):
        g = path_graph(9)
        v = pseudo_peripheral_vertex(g, 4)
        assert v in (0, 8)

    def test_grid_corner_has_max_ecc(self):
        g = AdjacencyGraph.from_symmetric(grid_laplacian_2d(5, 5))
        v = pseudo_peripheral_vertex(g, 12)  # start from the center
        _, levels = bfs_levels(g, v)
        # Eccentricity of a 5x5 grid from a corner is 8; from center it is 4.
        assert len(levels) - 1 >= 7

    def test_level_structure_is_the_roots(self):
        g = AdjacencyGraph.from_symmetric(grid_laplacian_2d(6, 11))
        root, level, levels = peripheral_level_structure(g, 30)
        assert root == pseudo_peripheral_vertex(g, 30)
        ref_level, ref_levels = bfs_levels(g, root)
        assert np.array_equal(level, ref_level)
        assert [list(x) for x in levels] == [list(x) for x in ref_levels]


class TestNoPerVertexLoops:
    """Structural guard: the orderings stay whole-array operations."""

    def test_scotch_like_never_walks_vertices(self, monkeypatch):
        counts = {"neighbors": 0, "bfs": 0}
        built = []
        neighbors = AdjacencyGraph.neighbors
        build_csr = AdjacencyGraph.__dict__["csr"].func
        bfs = graph_module.bfs_levels

        def counting_neighbors(self, v):
            counts["neighbors"] += 1
            return neighbors(self, v)

        def counting_csr(self):
            built.append(self)  # keeps the graph alive: ids stay unique
            return build_csr(self)

        def counting_bfs(graph, root):
            counts["bfs"] += 1
            return bfs(graph, root)

        csr = cached_property(counting_csr)
        csr.__set_name__(AdjacencyGraph, "csr")
        monkeypatch.setattr(AdjacencyGraph, "neighbors", counting_neighbors)
        monkeypatch.setattr(AdjacencyGraph, "csr", csr)
        monkeypatch.setattr(graph_module, "bfs_levels", counting_bfs)
        compute_ordering(grid_laplacian_2d(64, 64), "scotch_like")
        assert counts["neighbors"] == 0
        # Every traversed graph built its CSR exactly once and reused it
        # for all of its traversals.
        assert built
        assert len({id(g) for g in built}) == len(built)
        assert counts["bfs"] >= 2 * len(built)

    def test_edgeless_matrix_needs_no_traversal(self, monkeypatch):
        """Isolated vertices are placed directly: no BFS, no subgraph."""
        counts = {"bfs": 0, "subgraph": 0}
        bfs = graph_module.bfs_levels
        subgraph = AdjacencyGraph.subgraph

        def counting_bfs(graph, root):
            counts["bfs"] += 1
            return bfs(graph, root)

        def counting_subgraph(self, vertices):
            counts["subgraph"] += 1
            return subgraph(self, vertices)

        monkeypatch.setattr(graph_module, "bfs_levels", counting_bfs)
        monkeypatch.setattr(AdjacencyGraph, "subgraph", counting_subgraph)
        n = 5000
        a = SymmetricCSC.from_any(sp.diags(np.arange(1.0, n + 1.0)))
        for method in ("rcm", "nd", "scotch_like"):
            perm = compute_ordering(a, method).perm
            assert np.array_equal(np.sort(perm), np.arange(n)), method
        assert counts == {"bfs": 0, "subgraph": 0}
