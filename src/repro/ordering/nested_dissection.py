"""Nested dissection ordering (George, 1973).

The paper's experiments apply a Scotch nested-dissection ordering before
factorization.  This module implements nested dissection from scratch:

* a vertex separator is extracted from the middle level of a BFS level
  structure rooted at a pseudo-peripheral vertex (George-Liu style);
* the two halves are ordered recursively, the separator is ordered last;
* subgraphs below a cut-off are ordered by minimum degree.

Ordering separators last concentrates fill into the trailing columns and
yields the bushy, supernode-rich elimination trees that the fan-out solver
feeds on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.csc import SymmetricCSC
from ..sparse.graph import AdjacencyGraph, connected_components, peripheral_level_structure
from .amd import minimum_degree_order
from .base import register_ordering
from .permutation import Permutation

__all__ = ["NDOptions", "nested_dissection_order", "nd_ordering"]


@dataclass(frozen=True)
class NDOptions:
    """Tuning parameters for nested dissection.

    Attributes
    ----------
    leaf_size:
        Subgraphs at or below this size are ordered by minimum degree.
    balance_window:
        Fraction of BFS levels around the median considered when choosing
        the separator level (the smallest level in the window wins).
    """

    leaf_size: int = 64
    balance_window: float = 0.3


def _level_separator(graph: AdjacencyGraph, opts: NDOptions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split one connected graph into (part_a, part_b, separator).

    Chooses the thinnest BFS level near the middle of a level structure
    rooted at a pseudo-peripheral vertex.  Falls back to an empty separator
    when the graph has too few levels to split.  All three parts come out
    sorted by vertex id.
    """
    _, level, levels = peripheral_level_structure(graph, 0)
    nlev = len(levels)
    # Vertices unreachable from the root (level -1: the graph may have
    # been disconnected by a previous separator removal) can join either
    # part safely; they go with part_a.
    if nlev < 3:
        return np.flatnonzero(level < 0), np.empty(0, np.int64), np.flatnonzero(level >= 0)

    mid = nlev // 2
    radius = max(1, int(opts.balance_window * nlev / 2))
    lo = max(1, mid - radius)
    hi = min(nlev - 1, mid + radius + 1)
    candidates = range(lo, hi)
    sep_level = min(candidates, key=lambda d: (levels[d].size, abs(d - mid)))
    return (np.flatnonzero(level < sep_level), np.flatnonzero(level > sep_level),
            levels[sep_level])


def _nd_recurse(graph: AdjacencyGraph, vertices: np.ndarray, opts: NDOptions,
                out: list[np.ndarray]) -> None:
    """Append the nested-dissection order of ``graph`` (global ids) to ``out``."""
    if graph.n == 0:
        return
    if graph.n <= opts.leaf_size:
        out.append(vertices[minimum_degree_order(graph)])
        return

    part_a, part_b, separator = _level_separator(graph, opts)
    if part_a.size == 0 or part_b.size == 0:
        # Could not split (e.g. path-like or clique-like graph): fall back.
        out.append(vertices[minimum_degree_order(graph)])
        return

    for part in (part_a, part_b):
        sub, sub_vertices = graph.subgraph(part)
        _nd_recurse(sub, vertices[sub_vertices], opts, out)
    # Separator last: its columns are eliminated after both halves.
    out.append(vertices[separator])


def nested_dissection_order(a: SymmetricCSC, opts: NDOptions | None = None) -> np.ndarray:
    """Nested-dissection elimination order for ``a`` (all components).

    Components are dissected one after another, in the order of their
    smallest vertex.  A singleton component is its own order.
    """
    opts = opts or NDOptions()
    graph = AdjacencyGraph.from_symmetric(a)
    out: list[np.ndarray] = []
    for comp in connected_components(graph):
        if comp.size == 1:
            out.append(comp)
            continue
        sub, _ = graph.subgraph(comp)
        _nd_recurse(sub, comp, opts, out)
    return np.concatenate(out) if out else np.empty(0, np.int64)


@register_ordering("nd")
def nd_ordering(a: SymmetricCSC) -> Permutation:
    """Nested-dissection fill-reducing ordering with default options."""
    return Permutation(nested_dissection_order(a))
