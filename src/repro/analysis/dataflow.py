"""Generic forward worklist fixed-point engine over :mod:`repro.analysis.cfg`.

A client subclasses :class:`ForwardAnalysis`, providing the initial state,
the join of two states at a merge point, and the per-node transfer
function.  :func:`solve` then iterates to a fixed point and returns the
state *entering* every reachable node.

Edge semantics follow the CFG contract: ordinary edges propagate the
*post*-state (``transfer`` applied) of the source node, while ``exc`` edges
propagate the *pre*-state -- the statement raised before completing, so
none of its effects are visible on the handler path.

Transfer functions must be pure: the engine may evaluate a node many times
before the fixed point stabilises.  Analyses that report findings should do
so in a separate reporting pass over the solved states (see
:mod:`repro.analysis.locks` for the pattern).
"""

from __future__ import annotations

from collections import deque
from typing import Generic, Optional, TypeVar

from .cfg import CFG, Node

__all__ = ["DataflowDivergence", "FixedPoint", "ForwardAnalysis", "solve"]

S = TypeVar("S")


class DataflowDivergence(RuntimeError):
    """The worklist failed to stabilise within the step budget.

    Raised instead of looping forever when a client's join/transfer pair is
    not monotone (a client bug); carries the function name so the flow
    driver can report which function's analysis diverged.
    """

    def __init__(self, qualname: str, steps: int) -> None:
        super().__init__(
            f"dataflow did not converge in {steps} steps for {qualname!r}")
        self.qualname = qualname
        self.steps = steps


class ForwardAnalysis(Generic[S]):
    """Client interface: a join-semilattice plus a transfer function."""

    def initial_state(self, cfg: CFG) -> S:
        raise NotImplementedError

    def join(self, a: S, b: S) -> S:
        raise NotImplementedError

    def transfer(self, node: Node, state: S) -> S:
        raise NotImplementedError


class FixedPoint(Generic[S]):
    """Solved states: the state entering each reachable node."""

    def __init__(self, cfg: CFG, analysis: ForwardAnalysis[S],
                 in_states: dict[int, S]) -> None:
        self.cfg = cfg
        self.analysis = analysis
        self._in = in_states

    def reached(self, node: Node) -> bool:
        return node.idx in self._in

    def state_in(self, node: Node) -> Optional[S]:
        return self._in.get(node.idx)

    def state_out(self, node: Node) -> Optional[S]:
        state = self._in.get(node.idx)
        if state is None:
            return None
        return self.analysis.transfer(node, state)


def solve(cfg: CFG, analysis: ForwardAnalysis[S],
          max_steps: int = 0) -> FixedPoint[S]:
    """Run the forward worklist algorithm to a fixed point.

    ``max_steps`` bounds total node evaluations (0 picks a generous
    default proportional to graph size); exceeding it raises
    :class:`DataflowDivergence`.
    """
    if max_steps <= 0:
        max_steps = 2000 + 200 * len(cfg.nodes)

    in_states: dict[int, S] = {cfg.entry.idx: analysis.initial_state(cfg)}
    worklist: deque[Node] = deque([cfg.entry])
    queued: set[int] = {cfg.entry.idx}
    steps = 0

    while worklist:
        steps += 1
        if steps > max_steps:
            raise DataflowDivergence(cfg.qualname, steps)
        node = worklist.popleft()
        queued.discard(node.idx)
        state = in_states[node.idx]
        post = analysis.transfer(node, state)
        for edge in node.out_edges:
            contrib = state if edge.carries_pre_state else post
            dst = edge.dst
            old = in_states.get(dst.idx)
            new = contrib if old is None else analysis.join(old, contrib)
            if old is None or new != old:
                in_states[dst.idx] = new
                if dst.idx not in queued:
                    queued.add(dst.idx)
                    worklist.append(dst)

    return FixedPoint(cfg, analysis, in_states)
