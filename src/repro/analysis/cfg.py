"""Intra-procedural control-flow graphs over the Python AST.

One CFG per function.  Nodes are statement-granular: each simple statement
(assignment, expression, ``return``, ``raise``, ...) becomes one node, and
compound statements contribute a *header* node (the ``if``/``while``/``for``
test) plus the nodes of their bodies.  ``with`` blocks additionally get
synthetic :class:`WithEnter` / :class:`WithExit` marker nodes so dataflow
clients can model context-manager enter/exit effects (lock acquire/release,
pooled-buffer scopes) without re-deriving block structure.

Edge kinds (``Edge.kind``):

``next``
    Ordinary successor edge; carries the *post*-state of the source node.
``back``
    Loop back edge (body end -> loop header); also a post-state edge.
``exc``
    Implicit exception edge; carries the *pre*-state of the source node
    (the statement raised before completing).  Only statements lexically
    inside a ``try`` with handlers or a ``finally`` get these edges --
    arbitrary calls are not treated as may-raise, which keeps the
    lock analysis precise (see docs/correctness.md for the trade-off).
``return`` / ``fallthrough`` / ``raise``
    Terminal edges into the synthetic EXIT node: explicit ``return``,
    falling off the end of the function, and an explicit ``raise`` that
    escapes the function (possibly after unwinding ``with`` exits and
    ``finally`` bodies).  All three carry post-state.

Exception unwinding is modelled structurally: every ``with`` pushes an
unwind node (its :class:`WithExit` clone) and every ``try`` pushes either a
handler-dispatch node or a duplicated ``finally`` body, chained outward so a
``raise`` deep inside nested blocks releases context managers and runs
``finally`` blocks before reaching a handler or the EXIT node.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional, Union

__all__ = [
    "CFG",
    "Edge",
    "EXIT_EDGE_KINDS",
    "Node",
    "WithEnter",
    "WithExit",
    "build_cfg",
    "function_cfgs",
]

EXIT_EDGE_KINDS = ("return", "fallthrough", "raise")

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass(frozen=True)
class WithEnter:
    """Marker event: one ``withitem``'s context manager was entered."""

    stmt: Union[ast.With, ast.AsyncWith]
    item: ast.withitem
    lineno: int


@dataclass(frozen=True)
class WithExit:
    """Marker event: one ``withitem``'s ``__exit__`` ran (any path)."""

    stmt: Union[ast.With, ast.AsyncWith]
    item: ast.withitem
    lineno: int


Event = Union[ast.stmt, WithEnter, WithExit, None]


@dataclass
class Edge:
    src: "Node"
    dst: "Node"
    kind: str

    @property
    def carries_pre_state(self) -> bool:
        return self.kind == "exc"


class Node:
    """One CFG node: a statement, a marker, or a synthetic label."""

    __slots__ = ("idx", "event", "label", "in_edges", "out_edges")

    def __init__(self, idx: int, event: Event = None, label: str = "") -> None:
        self.idx = idx
        self.event = event
        self.label = label
        self.in_edges: list[Edge] = []
        self.out_edges: list[Edge] = []

    @property
    def lineno(self) -> int:
        ev = self.event
        if ev is None:
            return 0
        return int(ev.lineno)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        what = self.label or type(self.event).__name__
        return f"<Node {self.idx} {what} L{self.lineno}>"


class CFG:
    """Control-flow graph of one function."""

    def __init__(self, func: FunctionNode, qualname: str) -> None:
        self.func = func
        self.qualname = qualname
        self.nodes: list[Node] = []
        self.entry = self.new_node(label="entry")
        self.exit = self.new_node(label="exit")

    def new_node(self, event: Event = None, label: str = "") -> Node:
        node = Node(len(self.nodes), event, label)
        self.nodes.append(node)
        return node

    def add_edge(self, src: Node, dst: Node, kind: str = "next") -> Edge:
        edge = Edge(src, dst, kind)
        src.out_edges.append(edge)
        dst.in_edges.append(edge)
        return edge

    def reachable_order(self) -> list[Node]:
        """Nodes reachable from entry, in reverse postorder."""
        seen: set[int] = set()
        order: list[Node] = []

        def visit(node: Node) -> None:
            stack = [(node, iter(node.out_edges))]
            seen.add(node.idx)
            while stack:
                cur, edges = stack[-1]
                advanced = False
                for edge in edges:
                    if edge.dst.idx not in seen:
                        seen.add(edge.dst.idx)
                        stack.append((edge.dst, iter(edge.dst.out_edges)))
                        advanced = True
                        break
                if not advanced:
                    order.append(cur)
                    stack.pop()

        visit(self.entry)
        order.reverse()
        return order


class _Unwind:
    """One frame of the exception-unwind chain.

    ``target`` is the node a raising statement jumps to; ``models_implicit``
    says whether implicit (non-``raise``) exceptions are modelled at this
    depth -- true only when a handler-dispatch or ``finally`` frame sits at
    or below this frame.
    """

    __slots__ = ("target", "models_implicit")

    def __init__(self, target: Node, models_implicit: bool) -> None:
        self.target = target
        self.models_implicit = models_implicit


class _Builder:
    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        # (continue_target, break_collector, cleanup_depth_at_entry)
        self.loops: list[tuple[Node, list[Node], int]] = []
        self.unwind: list[_Unwind] = []
        # cleanup actions enclosing the current position, innermost last;
        # return/break/continue must perform these on the way out:
        # ("finally", stmts) builds an inline copy of a finally body,
        # ("with", stmt, item) emits a WithExit marker (__exit__ runs).
        self.cleanup: list[tuple] = []

    # ------------------------------------------------------------ helpers

    def _connect(self, frontier: list[Node], node: Node,
                 kind: str = "next") -> None:
        for pred in frontier:
            self.cfg.add_edge(pred, node, kind)

    def _unwind_target(self) -> Optional[_Unwind]:
        return self.unwind[-1] if self.unwind else None

    def _raise_escape(self, src: Node) -> None:
        """Route an explicit ``raise`` at ``src`` into the unwind chain."""
        top = self._unwind_target()
        if top is not None:
            self.cfg.add_edge(src, top.target, "next")
        else:
            self.cfg.add_edge(src, self.cfg.exit, "raise")

    def _implicit_exc(self, node: Node) -> None:
        """Add a pre-state exception edge if this depth models them."""
        top = self._unwind_target()
        if top is not None and top.models_implicit:
            self.cfg.add_edge(node, top.target, "exc")

    def _run_cleanup(self, frontier: list[Node],
                     down_to: int = 0) -> list[Node]:
        """Run enclosing cleanup actions (innermost first) on an early-exit
        path: WithExit markers and inline copies of ``finally`` bodies.

        ``down_to`` is the cleanup-stack depth to unwind to: 0 for a
        ``return`` (everything), the innermost loop's entry depth for
        ``break``/``continue``.
        """
        saved_unwind, saved_cleanup = self.unwind, self.cleanup
        self.unwind, self.cleanup = [], []
        try:
            for action in reversed(saved_cleanup[down_to:]):
                if action[0] == "finally":
                    frontier = self.seq(action[1], frontier)
                else:
                    _tag, stmt, item = action
                    node = self.cfg.new_node(
                        WithExit(stmt, item, stmt.lineno))
                    self._connect(frontier, node)
                    frontier = [node]
        finally:
            self.unwind, self.cleanup = saved_unwind, saved_cleanup
        return frontier

    # ------------------------------------------------------------- driver

    def build(self, func: FunctionNode) -> None:
        frontier = self.seq(func.body, [self.cfg.entry])
        self._connect(frontier, self.cfg.exit, "fallthrough")

    def seq(self, stmts: list[ast.stmt], frontier: list[Node]) -> list[Node]:
        for stmt in stmts:
            if not frontier:
                break  # unreachable tail (after return/raise/...)
            frontier = self.stmt(stmt, frontier)
        return frontier

    # ---------------------------------------------------------- dispatch

    def stmt(self, stmt: ast.stmt, frontier: list[Node]) -> list[Node]:
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, frontier)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._build_loop(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._build_with(stmt, stmt.items, frontier)
        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, frontier)
        if isinstance(stmt, ast.Match):
            return self._build_match(stmt, frontier)
        return self._build_simple(stmt, frontier)

    def _build_simple(self, stmt: ast.stmt,
                      frontier: list[Node]) -> list[Node]:
        node = self.cfg.new_node(stmt)
        self._connect(frontier, node)
        if isinstance(stmt, ast.Return):
            end = self._run_cleanup([node])
            self._connect(end, self.cfg.exit, "return")
            return []
        if isinstance(stmt, ast.Raise):
            self._implicit_exc(node)  # pre-state: the raised expr may blow up
            self._raise_escape(node)
            return []
        if isinstance(stmt, ast.Break):
            if self.loops:
                end = self._run_cleanup([node], down_to=self.loops[-1][2])
                self.loops[-1][1].extend(end)
            return []
        if isinstance(stmt, ast.Continue):
            if self.loops:
                end = self._run_cleanup([node], down_to=self.loops[-1][2])
                self._connect(end, self.loops[-1][0], "back")
            return []
        self._implicit_exc(node)
        return [node]

    def _build_if(self, stmt: ast.If, frontier: list[Node]) -> list[Node]:
        head = self.cfg.new_node(stmt)
        self._connect(frontier, head)
        self._implicit_exc(head)
        then_end = self.seq(stmt.body, [head])
        else_end = self.seq(stmt.orelse, [head]) if stmt.orelse else [head]
        return then_end + else_end

    def _build_loop(self, stmt: Union[ast.While, ast.For, ast.AsyncFor],
                    frontier: list[Node]) -> list[Node]:
        head = self.cfg.new_node(stmt)
        self._connect(frontier, head)
        self._implicit_exc(head)
        breaks: list[Node] = []
        self.loops.append((head, breaks, len(self.cleanup)))
        try:
            body_end = self.seq(stmt.body, [head])
        finally:
            self.loops.pop()
        self._connect(body_end, head, "back")
        else_end = self.seq(stmt.orelse, [head]) if stmt.orelse else [head]
        return else_end + breaks

    def _build_with(self, stmt: Union[ast.With, ast.AsyncWith],
                    items: list[ast.withitem],
                    frontier: list[Node]) -> list[Node]:
        if not items:
            return self.seq(stmt.body, frontier)
        item = items[0]
        enter = self.cfg.new_node(WithEnter(stmt, item, stmt.lineno))
        self._connect(frontier, enter)
        self._implicit_exc(enter)

        # Unwind node: __exit__ runs before the exception continues outward.
        outer = self._unwind_target()
        exc_exit = self.cfg.new_node(WithExit(stmt, item, stmt.lineno))
        if outer is not None:
            self.cfg.add_edge(exc_exit, outer.target, "next")
            models = outer.models_implicit
        else:
            self.cfg.add_edge(exc_exit, self.cfg.exit, "raise")
            models = False
        self.unwind.append(_Unwind(exc_exit, models))
        self.cleanup.append(("with", stmt, item))
        try:
            body_end = self._build_with(stmt, items[1:], [enter])
        finally:
            self.cleanup.pop()
            self.unwind.pop()
        norm_exit = self.cfg.new_node(WithExit(stmt, item, stmt.lineno))
        self._connect(body_end, norm_exit)
        return [norm_exit]

    def _build_try(self, stmt: ast.Try, frontier: list[Node]) -> list[Node]:
        outer = self._unwind_target()

        fin_exc_entry: Optional[Node] = None
        if stmt.finalbody:
            # Exception copy of the finally body: runs, then keeps unwinding.
            fin_exc_entry = self.cfg.new_node(label="finally-exc")
            fin_exc_end = self.seq(stmt.finalbody, [fin_exc_entry])
            if outer is not None:
                self._connect(fin_exc_end, outer.target)
            else:
                self._connect(fin_exc_end, self.cfg.exit, "raise")
            # Early exits (return/break/continue) inside the protected
            # region must run an inline copy of this finally body.
            self.cleanup.append(("finally", stmt.finalbody))

        try:
            if stmt.handlers:
                dispatch = self.cfg.new_node(label="except-dispatch")
                self.unwind.append(_Unwind(dispatch, True))
                try:
                    body_end = self.seq(stmt.body, frontier)
                finally:
                    self.unwind.pop()
                body_end = self.seq(stmt.orelse, body_end)

                # Handler bodies unwind through the finally copy (if any),
                # else through the enclosing chain.
                pushed = False
                if fin_exc_entry is not None:
                    self.unwind.append(_Unwind(fin_exc_entry, True))
                    pushed = True
                handler_ends: list[Node] = []
                try:
                    for handler in stmt.handlers:
                        hnode = self.cfg.new_node(handler)
                        self.cfg.add_edge(dispatch, hnode)
                        handler_ends.extend(self.seq(handler.body, [hnode]))
                finally:
                    if pushed:
                        self.unwind.pop()
                after = body_end + handler_ends
            else:
                # try/finally without handlers
                if fin_exc_entry is not None:
                    self.unwind.append(_Unwind(fin_exc_entry, True))
                    try:
                        body_end = self.seq(stmt.body, frontier)
                    finally:
                        self.unwind.pop()
                else:
                    body_end = self.seq(stmt.body, frontier)
                after = self.seq(stmt.orelse, body_end)
        finally:
            if stmt.finalbody:
                self.cleanup.pop()

        if stmt.finalbody:
            return self.seq(stmt.finalbody, after)
        return after

    def _build_match(self, stmt: ast.Match,
                     frontier: list[Node]) -> list[Node]:
        head = self.cfg.new_node(stmt)
        self._connect(frontier, head)
        self._implicit_exc(head)
        ends: list[Node] = [head]  # no case may match
        for case in stmt.cases:
            ends.extend(self.seq(case.body, [head]))
        return ends


def build_cfg(func: FunctionNode, qualname: str = "") -> CFG:
    """Build the CFG of one function definition."""
    cfg = CFG(func, qualname or func.name)
    _Builder(cfg).build(func)
    return cfg


def function_cfgs(tree: ast.Module) -> Iterator[tuple[str, CFG]]:
    """Yield ``(qualname, cfg)`` for every function in a module.

    Qualified names follow attribute style: ``Class.method``,
    ``outer.inner`` for nested defs.  Nested functions get their own CFG;
    they appear as opaque definition statements in the enclosing graph.
    """

    def walk(body: list[ast.stmt], prefix: str) -> Iterator[tuple[str, CFG]]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{node.name}"
                yield qual, build_cfg(node, qual)
                yield from walk(node.body, f"{qual}.")
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")

    yield from walk(tree.body, "")
