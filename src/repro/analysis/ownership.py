"""Flow-sensitive ownership analysis for pooled buffers (REP200-REP203).

Tracks abstract resource states through the pooled-memory APIs:

* ``<pool>.take(...)`` / ``<ctx>.take_buffer(...)`` acquire a buffer that
  must reach ``<pool>.give(buf)`` / ``release_buffer(buf)`` on *every*
  path out of the function -- including exception edges -- unless it
  escapes (returned, stored into an attribute/container, or the function
  is annotated ``# flow: transfer``).
* ``<ledger>.charge(...)`` opens a pseudo-resource on the receiver that a
  matching ``<ledger>.release(...)`` must close (leak detection only).
* Constructing a class that defines ``release``/``retire``/``close``
  (e.g. ``FactorStorage``, ``PlanArena``) acquires an object resource
  closed by calling one of those methods on it.  Object closes are
  idempotent, so repeated ``close()`` is not a double-give.

Rules:

``REP200``  leak-on-path: a taken resource reaches a ``return``,
            fall-through, or escaping ``raise`` edge still taken (also:
            overwriting or discarding a taken binding).
``REP201``  double-give: a buffer given back twice on one path.
``REP202``  use-after-give: a buffer read after it was given back.
``REP203``  conditional divergence: a join point where the resource is
            taken on one incoming path and released on another.

States form the diamond lattice ``absent < taken|released < conflict``;
the join is pointwise.  Findings are emitted in a reporting pass over the
solved fixed point, never during iteration.

Inline directives (on the ``def`` line or the line above it):

* ``# flow: transfer`` -- ownership intentionally leaves this function
  (e.g. :meth:`BufferPool.take` charges its ledger on behalf of the
  caller); suppresses REP200 for the whole function.
* ``# flow: allow(REP200,REP202)`` -- suppress the named rules here.

A lightweight summary pass lifts results across direct calls: a callee
that releases one of its parameters (directly or transitively, like
``SolveService._retire`` closing ``victim.solver``) releases the caller's
argument, and a callee whose return value is a fresh acquisition makes
``x = helper()`` an acquire in the caller.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional, Union

from .cfg import (
    CFG,
    EXIT_EDGE_KINDS,
    Node,
    WithEnter,
    WithExit,
    build_cfg,
)
from .dataflow import DataflowDivergence, FixedPoint, ForwardAnalysis, solve
from .report import Finding

__all__ = [
    "DEFAULT_OWNERSHIP_MODULES",
    "ModuleSource",
    "analyze_ownership",
    "parse_directives",
]

# Analysed by ``python -m repro.analysis flow`` (relative to src/repro/).
DEFAULT_OWNERSHIP_MODULES = (
    "core/base.py",
    "core/session.py",
    "core/storage.py",
    "kernels/dispatch.py",
    "memory/__init__.py",
    "memory/ledger.py",
    "memory/pool.py",
    "pgas/device.py",
    "plans/arena.py",
    "service/caches.py",
    "service/service.py",
)

TAKEN = "taken"
RELEASED = "released"
CONFLICT = "conflict"

# Methods that close an object resource (idempotent by convention).
CLOSER_ATTRS = frozenset({"release", "retire", "close"})
# Receiver-method inserts that transfer the argument into a container.
CONTAINER_INSERT_ATTRS = frozenset(
    {"append", "appendleft", "add", "insert", "push", "put", "setdefault",
     "extend"})


@dataclass(frozen=True)
class ModuleSource:
    """One analysed module: path relative to ``src/repro`` plus its text."""

    rel: str
    text: str


@dataclass(frozen=True)
class Res:
    """Abstract state of one resource binding."""

    status: str  # taken | released | conflict
    line: int    # acquisition (or last transition) line
    kind: str    # buffer | ledger | object


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` attribute chains as a dotted string, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _pool_like(recv: str) -> bool:
    seg = recv.split(".")[-1].lstrip("_").lower()
    return seg.endswith("pool") or seg.endswith("arena")


def _ledger_like(recv: str) -> bool:
    seg = recv.split(".")[-1].lstrip("_").lower()
    return seg.endswith("ledger")


def parse_directives(lines: list[str], lineno: int) -> tuple[frozenset[str], bool]:
    """``(allowed_rules, transfer)`` from ``# flow:`` comments at a ``def``.

    Looks at the ``def`` line itself, then upward through the contiguous
    block of comment and decorator lines directly above it (so multi-line
    rationale comments and decorated functions both work).
    """
    allowed: set[str] = set()
    transfer = False
    candidates = []
    if 0 <= lineno - 1 < len(lines):
        candidates.append(lineno - 1)
    idx = lineno - 2
    while 0 <= idx < len(lines):
        stripped = lines[idx].strip()
        if not (stripped.startswith("#") or stripped.startswith("@")):
            break
        candidates.append(idx)
        idx -= 1
    for idx in candidates:
        line = lines[idx]
        marker = line.find("# flow:")
        if marker < 0:
            continue
        directive = line[marker + len("# flow:"):].strip()
        if directive.startswith("transfer"):
            transfer = True
        elif directive.startswith("allow(") and directive.endswith(")"):
            inner = directive[len("allow("):-1]
            for rule in inner.split(","):
                rule = rule.strip()
                if rule:
                    allowed.add(rule)
    return frozenset(allowed), transfer


# --------------------------------------------------------------- registry


@dataclass
class FuncRecord:
    rel: str
    qualname: str
    func: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    class_name: Optional[str]
    allow: frozenset[str]
    transfer: bool

    @property
    def params(self) -> list[str]:
        args = self.func.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if self.class_name and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names


@dataclass
class Summary:
    releases: set[str]        # parameter names released by the callee
    returns_acquired: bool


class Registry:
    """All functions and object-owning classes across the analysed set."""

    def __init__(self, modules: list[ModuleSource]) -> None:
        self.funcs: dict[tuple[str, str], FuncRecord] = {}
        self.object_classes: set[str] = set()
        self.trees: dict[str, ast.Module] = {}
        self.errors: list[Finding] = []
        for mod in modules:
            try:
                tree = ast.parse(mod.text)
            except SyntaxError as exc:
                self.errors.append(Finding(
                    rule="REP290",
                    where=f"{mod.rel}:{exc.lineno or 0}",
                    message=f"flow analysis could not parse module: {exc.msg}",
                    details={"module": mod.rel, "stage": "parse"},
                ))
                continue
            self.trees[mod.rel] = tree
            lines = mod.text.splitlines()
            self._collect(mod.rel, tree.body, "", None, lines)

    def _collect(self, rel: str, body: list[ast.stmt], prefix: str,
                 class_name: Optional[str], lines: list[str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{node.name}"
                allow, transfer = parse_directives(lines, node.lineno)
                self.funcs[(rel, qual)] = FuncRecord(
                    rel, qual, node, class_name, allow, transfer)
                self._collect(rel, node.body, f"{qual}.", class_name, lines)
            elif isinstance(node, ast.ClassDef):
                methods = {n.name for n in node.body
                           if isinstance(n, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))}
                if methods & CLOSER_ATTRS:
                    self.object_classes.add(node.name)
                self._collect(rel, node.body, f"{prefix}{node.name}.",
                              node.name, lines)

    def resolve_call(self, caller: FuncRecord,
                     call: ast.Call) -> Optional[FuncRecord]:
        """Resolve ``self.m(...)`` and module-level ``f(...)`` callees."""
        fn = call.func
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
            if fn.value.id == "self" and caller.class_name:
                return self.funcs.get(
                    (caller.rel, f"{caller.class_name}.{fn.attr}"))
            return None
        if isinstance(fn, ast.Name):
            return self.funcs.get((caller.rel, fn.id))
        return None


def _build_summaries(reg: Registry) -> dict[tuple[str, str], Summary]:
    """Fixed point of per-function release/acquire summaries."""
    summaries = {key: Summary(set(), False) for key in reg.funcs}
    for _round in range(6):
        changed = False
        for key, record in reg.funcs.items():
            summ = summaries[key]
            params = set(record.params)
            acquired_names: set[str] = set()
            for node in ast.walk(record.func):
                if not isinstance(node, ast.Call):
                    if (isinstance(node, ast.Assign)
                            and len(node.targets) == 1
                            and isinstance(node.targets[0], ast.Name)
                            and isinstance(node.value, ast.Call)
                            and _classify_acquire(node.value, record, reg,
                                                  summaries) is not None):
                        acquired_names.add(node.targets[0].id)
                    continue
                fn = node.func
                # direct give/release_buffer of a parameter
                if isinstance(fn, ast.Attribute):
                    recv = _dotted(fn.value)
                    if (fn.attr == "give" and recv and _pool_like(recv)
                            and node.args
                            and isinstance(node.args[0], ast.Name)
                            and node.args[0].id in params):
                        if node.args[0].id not in summ.releases:
                            summ.releases.add(node.args[0].id)
                            changed = True
                    if (fn.attr == "release_buffer" and node.args
                            and isinstance(node.args[0], ast.Name)
                            and node.args[0].id in params):
                        if node.args[0].id not in summ.releases:
                            summ.releases.add(node.args[0].id)
                            changed = True
                    # param.close() / param.solver.close() / ...
                    if fn.attr in CLOSER_ATTRS:
                        root = fn.value
                        while isinstance(root, ast.Attribute):
                            root = root.value
                        if (isinstance(root, ast.Name)
                                and root.id in params
                                and root.id not in summ.releases):
                            summ.releases.add(root.id)
                            changed = True
                # lifted through a resolved callee
                callee = reg.resolve_call(record, node)
                if callee is not None:
                    csumm = summaries[(callee.rel, callee.qualname)]
                    cparams = callee.params
                    for i, arg in enumerate(node.args):
                        if (isinstance(arg, ast.Name) and arg.id in params
                                and i < len(cparams)
                                and cparams[i] in csumm.releases
                                and arg.id not in summ.releases):
                            summ.releases.add(arg.id)
                            changed = True
                    for kw in node.keywords:
                        if (kw.arg and kw.arg in csumm.releases
                                and isinstance(kw.value, ast.Name)
                                and kw.value.id in params
                                and kw.value.id not in summ.releases):
                            summ.releases.add(kw.value.id)
                            changed = True
            # returns_acquired: return <acquire> or return of acquired var
            if not summ.returns_acquired:
                for node in ast.walk(record.func):
                    if not isinstance(node, ast.Return) or node.value is None:
                        continue
                    val = node.value
                    if isinstance(val, ast.Call) and _classify_acquire(
                            val, record, reg, summaries) is not None:
                        summ.returns_acquired = True
                        changed = True
                        break
                    if (isinstance(val, ast.Name)
                            and val.id in acquired_names):
                        summ.returns_acquired = True
                        changed = True
                        break
        if not changed:
            break
    return summaries


def _classify_acquire(
        call: ast.Call, record: FuncRecord, reg: Registry,
        summaries: dict[tuple[str, str], Summary]) -> Optional[str]:
    """Return the resource kind a call expression acquires, if any."""
    fn = call.func
    if isinstance(fn, ast.Attribute):
        recv = _dotted(fn.value)
        if fn.attr == "take" and recv and _pool_like(recv):
            return "buffer"
        if fn.attr == "take_buffer":
            return "buffer"
    if isinstance(fn, ast.Name) and fn.id in reg.object_classes:
        return "object"
    callee = reg.resolve_call(record, call)
    if callee is not None:
        if summaries[(callee.rel, callee.qualname)].returns_acquired:
            return "buffer"
    return None


# ---------------------------------------------------------------- analysis


OwnState = dict[str, Res]


def _join_res(a: Res, b: Res) -> Optional[Res]:
    if a.status == b.status:
        return a if a.line <= b.line else b
    if CONFLICT in (a.status, b.status):
        taken = a if a.status == TAKEN else (b if b.status == TAKEN else a)
        return Res(CONFLICT, taken.line, taken.kind)
    # taken meets released: divergence
    taken = a if a.status == TAKEN else b
    return Res(CONFLICT, taken.line, taken.kind)


class _Ownership(ForwardAnalysis[OwnState]):
    """Per-function transfer; findings collected only via ``sink``."""

    def __init__(self, record: FuncRecord, reg: Registry,
                 summaries: dict[tuple[str, str], Summary]) -> None:
        self.record = record
        self.reg = reg
        self.summaries = summaries

    # lattice ---------------------------------------------------------

    def initial_state(self, cfg: CFG) -> OwnState:
        return {}

    def join(self, a: OwnState, b: OwnState) -> OwnState:
        out: OwnState = {}
        for key in set(a) | set(b):
            ra, rb = a.get(key), b.get(key)
            if ra is None or rb is None:
                # absent is bottom: absent v X = X
                present = ra if ra is not None else rb
                if present is not None:
                    out[key] = present
            else:
                joined = _join_res(ra, rb)
                if joined is not None:
                    out[key] = joined
        return out

    def transfer(self, node: Node, state: OwnState) -> OwnState:
        return self.apply(node, state, None)

    # transfer --------------------------------------------------------

    def apply(self, node: Node, state: OwnState,
              sink: Optional[list[Finding]]) -> OwnState:
        ev = node.event
        if ev is None:
            return state
        new = dict(state)
        if isinstance(ev, WithEnter):
            self._with_enter(ev, new)
            return new
        if isinstance(ev, WithExit):
            self._with_exit(ev, new)
            return new
        if isinstance(ev, ast.stmt):
            self._stmt(ev, new, sink)
            return new
        return new

    def _with_enter(self, ev: WithEnter, state: OwnState) -> None:
        kind = _classify_acquire(ev.item.context_expr, self.record, self.reg,
                                 self.summaries) \
            if isinstance(ev.item.context_expr, ast.Call) else None
        if kind and isinstance(ev.item.optional_vars, ast.Name):
            state[ev.item.optional_vars.id] = Res(TAKEN, ev.lineno, kind)

    def _with_exit(self, ev: WithExit, state: OwnState) -> None:
        var = ev.item.optional_vars
        if isinstance(var, ast.Name):
            res = state.get(var.id)
            if res is not None and res.status == TAKEN:
                state[var.id] = Res(RELEASED, ev.lineno, res.kind)

    # statement-level transfer ---------------------------------------

    def _stmt(self, stmt: ast.stmt, state: OwnState,
              sink: Optional[list[Finding]]) -> None:
        # A compound statement's CFG node only evaluates its header
        # expression -- the body statements are separate nodes.
        if isinstance(stmt, (ast.If, ast.While)):
            evaluated: list[ast.AST] = [stmt.test]
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            evaluated = [stmt.iter]
        elif isinstance(stmt, ast.Match):
            evaluated = [stmt.subject]
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            state.pop(stmt.name, None)
            return
        else:
            evaluated = [stmt]

        released_here: set[str] = set()

        # 1. releases performed by this statement (any expression position)
        for expr in evaluated:
            for call in self._calls(expr):
                released_here |= self._apply_release(call, stmt, state, sink)

        # 2. use-after-give on loads not part of their own release
        for expr in evaluated:
            self._check_uses(expr, stmt.lineno, state, released_here, sink)

        # 3. binding / escape effects
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.targets, stmt.value, stmt, state, sink)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign([stmt.target], stmt.value, stmt, state, sink)
        elif isinstance(stmt, ast.Expr):
            value = stmt.value
            if isinstance(value, ast.Call):
                kind = _classify_acquire(value, self.record, self.reg,
                                         self.summaries)
                if kind is not None and not self._is_ledger_charge(value):
                    self._report(sink, "REP200", stmt.lineno,
                                 "<discarded>", kind,
                                 "acquired resource discarded without "
                                 "binding or release")
            self._charge_pseudo(value, stmt, state)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            for name in self._target_names(stmt.target):
                state.pop(name, None)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                for name in self._load_names(stmt.value):
                    res = state.get(name)
                    if res is not None and res.status == TAKEN:
                        state.pop(name)  # escapes to the caller
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    res = state.pop(target.id, None)
                    if res is not None and res.status == TAKEN:
                        self._report(sink, "REP200", stmt.lineno,
                                     target.id, res.kind,
                                     f"'{target.id}' deleted while still "
                                     f"taken (acquired line {res.line})")

        # walrus bindings anywhere in the evaluated expressions
        for expr in evaluated:
            for sub in ast.walk(expr):
                if isinstance(sub, ast.NamedExpr) and isinstance(
                        sub.target, ast.Name):
                    state.pop(sub.target.id, None)

    def _assign(self, targets: list[ast.expr], value: ast.expr,
                stmt: ast.stmt, state: OwnState,
                sink: Optional[list[Finding]]) -> None:
        acquired = _classify_acquire(value, self.record, self.reg,
                                     self.summaries) \
            if isinstance(value, ast.Call) else None
        self._charge_pseudo(value, stmt, state)

        escapes_value = any(
            not isinstance(t, ast.Name) for t in targets)
        if escapes_value:
            # storing into an attribute/container publishes the value
            for name in self._load_names(value):
                res = state.get(name)
                if res is not None and res.status == TAKEN:
                    state.pop(name)

        for target in targets:
            if isinstance(target, ast.Name):
                old = state.get(target.id)
                if old is not None and old.status == TAKEN:
                    self._report(sink, "REP200", stmt.lineno, target.id,
                                 old.kind,
                                 f"'{target.id}' rebound while still taken "
                                 f"(acquired line {old.line})")
                if acquired is not None:
                    state[target.id] = Res(TAKEN, stmt.lineno, acquired)
                elif (isinstance(value, ast.Name)
                        and value.id in state):
                    # move semantics for plain aliasing: x = y
                    state[target.id] = state.pop(value.id)
                else:
                    state.pop(target.id, None)
            else:
                for name in self._target_names(target):
                    state.pop(name, None)

    # call effects ----------------------------------------------------

    def _is_ledger_charge(self, call: ast.Call) -> bool:
        fn = call.func
        if isinstance(fn, ast.Attribute) and fn.attr == "charge":
            recv = _dotted(fn.value)
            return bool(recv and _ledger_like(recv))
        return False

    def _charge_pseudo(self, value: ast.expr, stmt: ast.stmt,
                       state: OwnState) -> None:
        for call in (n for n in ast.walk(value)
                     if isinstance(n, ast.Call)):
            if self._is_ledger_charge(call):
                recv = _dotted(call.func.value)  # type: ignore[attr-defined]
                key = f"<ledger:{recv}>"
                if key not in state or state[key].status != TAKEN:
                    state[key] = Res(TAKEN, stmt.lineno, "ledger")

    def _apply_release(self, call: ast.Call, stmt: ast.stmt,
                       state: OwnState,
                       sink: Optional[list[Finding]]) -> set[str]:
        released: set[str] = set()
        fn = call.func

        def release_var(name: str, idempotent: bool) -> None:
            res = state.get(name)
            released.add(name)
            if res is None:
                return
            if res.status == TAKEN:
                state[name] = Res(RELEASED, stmt.lineno, res.kind)
            elif res.status == RELEASED and not idempotent:
                self._report(sink, "REP201", stmt.lineno, name, res.kind,
                             f"'{name}' given back twice (previous release "
                             f"line {res.line})")

        if isinstance(fn, ast.Attribute):
            recv = _dotted(fn.value)
            if (fn.attr == "give" and recv and _pool_like(recv)
                    and call.args and isinstance(call.args[0], ast.Name)):
                release_var(call.args[0].id, idempotent=False)
            elif (fn.attr == "release_buffer" and call.args
                    and isinstance(call.args[0], ast.Name)):
                release_var(call.args[0].id, idempotent=False)
            elif fn.attr == "release" and recv and _ledger_like(recv):
                key = f"<ledger:{recv}>"
                if key in state and state[key].status == TAKEN:
                    state[key] = Res(RELEASED, stmt.lineno, "ledger")
                released.add(key)
            elif fn.attr in CLOSER_ATTRS and isinstance(fn.value, ast.Name):
                res = state.get(fn.value.id)
                if res is not None and res.kind == "object":
                    release_var(fn.value.id, idempotent=True)
            elif (fn.attr in CONTAINER_INSERT_ATTRS and call.args):
                # container insert publishes the argument: stop tracking
                for arg in call.args:
                    if isinstance(arg, ast.Name):
                        res = state.get(arg.id)
                        if res is not None and res.status == TAKEN:
                            state.pop(arg.id)
                            released.add(arg.id)

        callee = self.reg.resolve_call(self.record, call)
        if callee is not None:
            csumm = self.summaries[(callee.rel, callee.qualname)]
            cparams = callee.params
            for i, arg in enumerate(call.args):
                if (isinstance(arg, ast.Name) and i < len(cparams)
                        and cparams[i] in csumm.releases):
                    release_var(arg.id, idempotent=True)
            for kw in call.keywords:
                if (kw.arg and kw.arg in csumm.releases
                        and isinstance(kw.value, ast.Name)):
                    release_var(kw.value.id, idempotent=True)
        return released

    # helpers ---------------------------------------------------------

    @staticmethod
    def _calls(tree: ast.AST) -> list[ast.Call]:
        return [n for n in ast.walk(tree) if isinstance(n, ast.Call)]

    @staticmethod
    def _load_names(expr: ast.AST) -> set[str]:
        return {n.id for n in ast.walk(expr)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}

    @staticmethod
    def _target_names(target: ast.expr) -> set[str]:
        names: set[str] = set()
        for n in ast.walk(target):
            if isinstance(n, ast.Name) and isinstance(
                    n.ctx, (ast.Store, ast.Del)):
                names.add(n.id)
        return names

    def _check_uses(self, expr: ast.AST, lineno: int, state: OwnState,
                    released_here: set[str],
                    sink: Optional[list[Finding]]) -> None:
        if sink is None:
            return
        for name in self._load_names(expr):
            if name in released_here:
                continue
            res = state.get(name)
            if res is not None and res.status == RELEASED:
                self._report(sink, "REP202", lineno, name, res.kind,
                             f"'{name}' used after being given back "
                             f"(released line {res.line})")

    def _report(self, sink: Optional[list[Finding]], rule: str, line: int,
                resource: str, kind: str, message: str) -> None:
        if sink is None:
            return
        if rule in self.record.allow:
            return
        if rule == "REP200" and self.record.transfer:
            return
        sink.append(Finding(
            rule=rule,
            where=f"{self.record.rel}:{line}",
            message=f"{self.record.qualname}: {message}",
            details={"function": self.record.qualname, "resource": resource,
                     "kind": kind},
        ))


# ----------------------------------------------------------------- driver


def _report_function(record: FuncRecord, reg: Registry,
                     summaries: dict[tuple[str, str], Summary],
                     findings: list[Finding]) -> None:
    analysis = _Ownership(record, reg, summaries)
    cfg = build_cfg(record.func, record.qualname)
    fp: FixedPoint[OwnState] = solve(cfg, analysis)

    sink: list[Finding] = []

    # per-node transfer effects (REP201/REP202/immediate REP200)
    for node in cfg.reachable_order():
        state = fp.state_in(node)
        if state is None:
            continue
        analysis.apply(node, state, sink)

    # REP203: taken-vs-released divergence at joins (exit divergence is
    # already reported precisely per-edge as REP200)
    for node in cfg.reachable_order():
        if node is cfg.exit:
            continue
        reached_in = [e for e in node.in_edges if fp.reached(e.src)]
        if len(reached_in) < 2:
            continue
        statuses: dict[str, set[str]] = {}
        for edge in reached_in:
            contrib = (fp.state_in(edge.src) if edge.carries_pre_state
                       else fp.state_out(edge.src))
            if contrib is None:
                continue
            for name, res in contrib.items():
                statuses.setdefault(name, set()).add(res.status)
        for name, seen in sorted(statuses.items()):
            if TAKEN in seen and RELEASED in seen:
                line = node.lineno or record.func.lineno
                analysis._report(
                    sink, "REP203", line, name, "buffer",
                    f"'{name}' is taken on one path into this point and "
                    f"released on another")

    # REP200: taken resources surviving to a function exit
    exit_node = cfg.exit
    for edge in exit_node.in_edges:
        if edge.kind not in EXIT_EDGE_KINDS or not fp.reached(edge.src):
            continue
        contrib = (fp.state_in(edge.src) if edge.carries_pre_state
                   else fp.state_out(edge.src))
        if contrib is None:
            continue
        line = edge.src.lineno or record.func.lineno
        for name, res in sorted(contrib.items()):
            if res.status != TAKEN:
                continue
            via = {"return": "return", "fallthrough": "falling off the end",
                   "raise": "an escaping raise"}[edge.kind]
            analysis._report(
                sink, "REP200", line, name, res.kind,
                f"'{name}' still taken at {via} "
                f"(acquired line {res.line})")

    seen_keys: set[tuple[str, str, str]] = set()
    for f in sink:
        key = (f.rule, f.where, str(f.details.get("resource")))
        if key not in seen_keys:
            seen_keys.add(key)
            findings.append(f)


def analyze_ownership(modules: list[ModuleSource]) -> list[Finding]:
    """Run the ownership analysis over a set of modules."""
    reg = Registry(modules)
    findings: list[Finding] = list(reg.errors)
    summaries = _build_summaries(reg)
    for key in sorted(reg.funcs):
        record = reg.funcs[key]
        try:
            _report_function(record, reg, summaries, findings)
        except (DataflowDivergence, RecursionError) as exc:
            findings.append(Finding(
                rule="REP290",
                where=f"{record.rel}:{record.func.lineno}",
                message=f"ownership analysis failed in "
                        f"{record.qualname}: {exc}",
                details={"function": record.qualname, "stage": "ownership"},
            ))
    findings.sort(key=lambda f: (f.where, f.rule))
    return findings
