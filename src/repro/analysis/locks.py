"""Lock-discipline analysis for shared mutable state (REP210-REP211).

Two rules over the threaded layers (trace counters, service caches,
pooled-memory accounting):

``REP210``  unguarded write: a class field is mutated under ``with
            self._lock`` somewhere (so the lock evidently guards it) but
            written *without* that lock elsewhere.  Fields never written
            under a lock are considered unshared and stay exempt, so
            single-threaded classes produce no noise.
``REP211``  lock-order inversion: following both ``with`` nesting and
            direct calls (with transitive acquire summaries), two locks
            are taken in opposite orders on different paths -- the classic
            deadlock shape -- or a non-reentrant lock is re-acquired while
            already held.

Held-lock sets are computed with the must-analysis fixed point from
:mod:`repro.analysis.dataflow` (join = intersection) over the CFGs of
:mod:`repro.analysis.cfg`, using the ``WithEnter``/``WithExit`` markers.

Lock identity resolution is type-directed but deliberately shallow:
``self.X`` resolves through the class's own lock attributes;
``obj.X`` resolves when ``obj``'s class is known from a constructor
assignment, a parameter annotation (including string annotations), or a
called method's return annotation.  Unresolvable acquisitions (e.g.
``with self._key_lock(k):`` handing out striped per-key locks) get a
site-unique name: they participate as edge *sources* but can never alias
another site, so they cannot fabricate spurious cycles.

Private methods (leading underscore) called only from inside the analysed
set inherit the *meet* of the locks held at their call sites as their
entry-held set -- this is what lets ``MemoryLedger._account`` count as
guarded even though its ``with self._lock`` lives in the public callers.
A method whose name is ever referenced without being called (thread
targets, hooks) gets an empty entry-held set.

A ``# flow: allow(REP210,REP211)`` comment on a ``def`` line (or in the
comment block directly above it) suppresses the named rules there.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Optional, Union

from .cfg import CFG, Node, WithEnter, WithExit, build_cfg
from .dataflow import DataflowDivergence, FixedPoint, ForwardAnalysis, solve
from .report import Finding

__all__ = ["DEFAULT_LOCK_MODULES", "ModuleSource", "analyze_locks",
           "parse_directives"]

# Analysed by ``python -m repro.analysis flow`` (relative to src/repro/).
DEFAULT_LOCK_MODULES = (
    "core/session.py",
    "core/tracing.py",
    "memory/ledger.py",
    "memory/pool.py",
    "service/caches.py",
    "service/requests.py",
    "service/service.py",
)


@dataclass(frozen=True)
class ModuleSource:
    """One analysed module: path relative to ``src/repro`` plus its text."""

    rel: str
    text: str


_ALLOW = re.compile(r"# flow:\s*allow\(([^)]*)\)\s*$")


def parse_directives(lines: list[str], lineno: int) -> frozenset[str]:
    """Rules a ``# flow: allow(...)`` comment suppresses at a ``def``.

    Looks at the ``def`` line itself, then upward through the contiguous
    block of comment and decorator lines directly above it (so multi-line
    rationale comments and decorated functions both work).
    """
    allowed: set[str] = set()
    idx = lineno - 1
    while 0 <= idx < len(lines) and (
            idx == lineno - 1 or lines[idx].lstrip().startswith(("#", "@"))):
        match = _ALLOW.search(lines[idx])
        if match:
            allowed.update(r.strip() for r in match.group(1).split(",")
                           if r.strip())
        idx -= 1
    return frozenset(allowed)


# factory dotted-name -> lock kind
LOCK_FACTORIES = {
    "threading.Lock": "Lock",
    "threading.RLock": "RLock",
    "threading.Condition": "Condition",
    "Lock": "Lock",
    "RLock": "RLock",
    "Condition": "Condition",
    "mutex": "Lock",
    "tracing.mutex": "Lock",
}
REENTRANT_KINDS = frozenset({"RLock"})

# receiver-method calls that mutate the receiver in place
MUTATING_CALLS = frozenset({
    "append", "appendleft", "add", "insert", "extend", "remove", "discard",
    "pop", "popleft", "popitem", "clear", "update", "setdefault", "sort",
    "reverse", "fill", "move_to_end", "put",
})

CONSTRUCTOR_METHODS = frozenset({"__init__", "__post_init__", "__new__"})


def _dotted(node: ast.AST) -> Optional[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass
class MethodInfo:
    rel: str
    qualname: str
    class_name: Optional[str]
    func: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    allow: frozenset[str]
    cfg: Optional[CFG] = None
    var_types: dict[str, str] = field(default_factory=dict)
    lock_aliases: dict[str, str] = field(default_factory=dict)


@dataclass
class ClassInfo:
    name: str
    rel: str
    lock_attrs: dict[str, str] = field(default_factory=dict)  # attr -> kind
    attr_types: dict[str, str] = field(default_factory=dict)  # attr -> class
    method_names: set[str] = field(default_factory=set)


@dataclass
class LockWrite:
    class_name: str
    root: str
    method: "MethodInfo"
    line: int
    held_own: frozenset[str]


@dataclass
class LockEdge:
    src: str
    dst: str
    rel: str
    line: int
    qualname: str


class LockWorld:
    """Classes, methods, lock attributes and types across the module set."""

    def __init__(self, modules: list[ModuleSource]) -> None:
        self.classes: dict[str, ClassInfo] = {}
        self.methods: dict[tuple[str, str], MethodInfo] = {}
        self.errors: list[Finding] = []
        trees: list[tuple[ModuleSource, ast.Module]] = []
        for mod in modules:
            try:
                tree = ast.parse(mod.text)
            except SyntaxError as exc:
                self.errors.append(Finding(
                    rule="REP290",
                    where=f"{mod.rel}:{exc.lineno or 0}",
                    message=f"flow analysis could not parse module: "
                            f"{exc.msg}",
                    details={"module": mod.rel, "stage": "parse"},
                ))
                continue
            trees.append((mod, tree))

        # pass 1: classes, methods, lock attributes
        for mod, tree in trees:
            lines = mod.text.splitlines()
            self._collect(mod.rel, tree.body, "", None, lines)
        # pass 2: attribute / parameter types (needs the class registry)
        for key, info in self.methods.items():
            self._infer_types(info)

        self.referenced_methods = self._bare_references(trees)

    # ------------------------------------------------------ collection

    def _collect(self, rel: str, body: list[ast.stmt], prefix: str,
                 class_name: Optional[str], lines: list[str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{node.name}"
                allow = parse_directives(lines, node.lineno)
                self.methods[(rel, qual)] = MethodInfo(
                    rel, qual, class_name, node, allow)
                if class_name is not None and class_name in self.classes:
                    self.classes[class_name].method_names.add(node.name)
                self._scan_lock_assigns(rel, class_name, node)
                self._collect(rel, node.body, f"{qual}.", class_name, lines)
            elif isinstance(node, ast.ClassDef):
                cinfo = self.classes.setdefault(
                    node.name, ClassInfo(node.name, rel))
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(
                            item.target, ast.Name):
                        kind = self._field_lock_kind(item)
                        if kind is not None:
                            cinfo.lock_attrs[item.target.id] = kind
                        else:
                            cls = self._annotation_class(item.annotation)
                            if cls is not None:
                                cinfo.attr_types[item.target.id] = cls
                self._collect(rel, node.body, f"{prefix}{node.name}.",
                              node.name, lines)

    def _scan_lock_assigns(
            self, rel: str, class_name: Optional[str],
            func: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        if class_name is None:
            return
        cinfo = self.classes.setdefault(class_name, ClassInfo(class_name, rel))
        for node in ast.walk(func):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            value = node.value
            if value is None or not isinstance(value, ast.Call):
                continue
            callee = _dotted(value.func)
            kind = LOCK_FACTORIES.get(callee or "")
            if kind is None:
                continue
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    cinfo.lock_attrs[target.attr] = kind

    def _field_lock_kind(self, item: ast.AnnAssign) -> Optional[str]:
        """Lock kind of a dataclass field, from annotation or factory."""
        ann = _dotted(item.annotation) if item.annotation is not None else None
        if ann in LOCK_FACTORIES:
            return LOCK_FACTORIES[ann]
        value = item.value
        if isinstance(value, ast.Call):
            for kw in value.keywords:
                if kw.arg == "default_factory":
                    factory = _dotted(kw.value)
                    if factory in LOCK_FACTORIES:
                        return LOCK_FACTORIES[factory]
        return None

    def _annotation_class(self, ann: Optional[ast.AST]) -> Optional[str]:
        """Extract a known class name from an annotation expression."""
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            for name in self.classes:
                if name in ann.value:
                    return name
            return None
        for node in ast.walk(ann):
            if isinstance(node, ast.Name) and node.id in self.classes:
                return node.id
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)):
                for name in self.classes:
                    if name in node.value:
                        return name
        return None

    # --------------------------------------------------- type inference

    def _infer_types(self, info: MethodInfo) -> None:
        cinfo = self.classes.get(info.class_name or "")
        args = info.func.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            cls = self._annotation_class(arg.annotation)
            if cls is not None:
                info.var_types[arg.arg] = cls

        for node in ast.walk(info.func):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            value = node.value

            # locals: x = ClassName(...) / x = self.attr / x = obj.m(...)
            if isinstance(target, ast.Name):
                cls = self._value_class(info, value)
                if cls is not None:
                    info.var_types[target.id] = cls
                alias = self._lock_name_of(info, value)
                if alias is not None:
                    info.lock_aliases[target.id] = alias
            # attributes: self.X = ClassName(...) / self.X = param
            elif (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and cinfo is not None):
                cls = self._value_class(info, value)
                if cls is not None:
                    cinfo.attr_types.setdefault(target.attr, cls)

    def _value_class(self, info: MethodInfo,
                     value: ast.expr) -> Optional[str]:
        for node in ast.walk(value):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in self.classes:
                    return node.func.id
            if isinstance(node, ast.Name) and node.id in info.var_types:
                return info.var_types[node.id]
        return None

    # ----------------------------------------------------- lock naming

    def receiver_class(self, info: MethodInfo,
                       expr: ast.expr) -> Optional[str]:
        """Class of an attribute chain's receiver, if statically known."""
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return info.class_name
            return info.var_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.receiver_class(info, expr.value)
            if base is not None and base in self.classes:
                return self.classes[base].attr_types.get(expr.attr)
            return None
        return None

    def _lock_name_of(self, info: MethodInfo,
                      expr: ast.expr) -> Optional[str]:
        """Resolve an expression naming a lock, else ``None``."""
        if isinstance(expr, ast.Name):
            return info.lock_aliases.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = self.receiver_class(info, expr.value)
            if owner is not None and owner in self.classes:
                if expr.attr in self.classes[owner].lock_attrs:
                    return f"{owner}.{expr.attr}"
        return None

    def lock_site_name(self, info: MethodInfo, expr: ast.expr,
                       line: int) -> str:
        resolved = self._lock_name_of(info, expr)
        if resolved is not None:
            return resolved
        return f"@{info.rel}:{info.qualname}:{line}"

    def lock_kind(self, lock_name: str) -> str:
        if "." in lock_name and not lock_name.startswith("@"):
            cls, attr = lock_name.split(".", 1)
            cinfo = self.classes.get(cls)
            if cinfo is not None:
                return cinfo.lock_attrs.get(attr, "Lock")
        return "Lock"

    # -------------------------------------------------- call resolution

    def resolve_call(self, info: MethodInfo,
                     call: ast.Call) -> Optional[MethodInfo]:
        fn = call.func
        if isinstance(fn, ast.Attribute):
            owner = self.receiver_class(info, fn.value)
            if owner is not None:
                for (rel, qual), target in self.methods.items():
                    if target.class_name == owner and \
                            qual == f"{owner}.{fn.attr}":
                        return target
            return None
        if isinstance(fn, ast.Name):
            if fn.id in self.classes:
                cinfo = self.classes[fn.id]
                return self.methods.get((cinfo.rel, f"{fn.id}.__init__"))
            return self.methods.get((info.rel, fn.id))
        return None

    # ----------------------------------------------------- references

    @staticmethod
    def _bare_references(
            trees: list[tuple[ModuleSource, ast.Module]]) -> set[str]:
        """Method names referenced as values (not called) anywhere."""
        referenced: set[str] = set()
        for _mod, tree in trees:
            call_funcs = {id(n.func) for n in ast.walk(tree)
                          if isinstance(n, ast.Call)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and \
                        id(node) not in call_funcs and \
                        isinstance(node.ctx, ast.Load):
                    referenced.add(node.attr)
        return referenced


# ------------------------------------------------------- held-lock flow


class _HeldLocks(ForwardAnalysis[frozenset]):
    """Must-held lock set: join is intersection."""

    def __init__(self, world: LockWorld, info: MethodInfo,
                 entry: frozenset) -> None:
        self.world = world
        self.info = info
        self.entry = entry

    def initial_state(self, cfg: CFG) -> frozenset:
        return self.entry

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a & b

    def transfer(self, node: Node, state: frozenset) -> frozenset:
        ev = node.event
        if isinstance(ev, WithEnter):
            name = self.world.lock_site_name(
                self.info, ev.item.context_expr, ev.lineno)
            return state | {name}
        if isinstance(ev, WithExit):
            name = self.world.lock_site_name(
                self.info, ev.item.context_expr, ev.lineno)
            return state - {name}
        return state


def _evaluated_exprs(ev: object) -> list[ast.AST]:
    """Expressions a CFG node actually evaluates (headers only)."""
    if isinstance(ev, WithEnter):
        return [ev.item.context_expr]
    if isinstance(ev, WithExit):
        return []
    if isinstance(ev, (ast.If, ast.While)):
        return [ev.test]
    if isinstance(ev, (ast.For, ast.AsyncFor)):
        return [ev.iter]
    if isinstance(ev, ast.Match):
        return [ev.subject]
    if isinstance(ev, (ast.FunctionDef, ast.AsyncFunctionDef,
                       ast.ClassDef)):
        return []
    if isinstance(ev, ast.stmt):
        return [ev]
    return []


class _LockAnalyzer:
    def __init__(self, world: LockWorld) -> None:
        self.world = world
        self.acquires: dict[tuple[str, str], frozenset] = {}
        self.entry_held: dict[tuple[str, str], frozenset] = {}
        self.errors: list[Finding] = []

    # ----------------------------------------------------- summaries

    def _build_cfgs(self) -> None:
        for key, info in self.world.methods.items():
            if info.cfg is None:
                info.cfg = build_cfg(info.func, info.qualname)

    def _acquire_summaries(self) -> None:
        """Transitive resolved-lock acquire sets, increasing fixed point."""
        methods = self.world.methods
        self.acquires = {key: frozenset() for key in methods}
        for _round in range(len(methods) + 2):
            changed = False
            for key, info in methods.items():
                acc = set(self.acquires[key])
                for node in ast.walk(info.func):
                    if isinstance(node, (ast.With, ast.AsyncWith)):
                        for item in node.items:
                            name = self.world._lock_name_of(
                                info, item.context_expr)
                            if name is not None:
                                acc.add(name)
                    if isinstance(node, ast.Call):
                        callee = self.world.resolve_call(info, node)
                        if callee is not None:
                            acc |= self.acquires[
                                (callee.rel, callee.qualname)]
                frozen = frozenset(acc)
                if frozen != self.acquires[key]:
                    self.acquires[key] = frozen
                    changed = True
            if not changed:
                break

    def _solve_method(self, info: MethodInfo,
                      entry: frozenset) -> Optional[FixedPoint]:
        analysis = _HeldLocks(self.world, info, entry)
        try:
            return solve(info.cfg, analysis)
        except (DataflowDivergence, RecursionError) as exc:
            self.errors.append(Finding(
                rule="REP290",
                where=f"{info.rel}:{info.func.lineno}",
                message=f"lock analysis failed in {info.qualname}: {exc}",
                details={"function": info.qualname, "stage": "locks"},
            ))
            return None

    def _entry_held_fixpoint(self) -> None:
        """Meet of caller-held locks at call sites of private methods."""
        methods = self.world.methods
        universe = frozenset(
            f"{c.name}.{attr}" for c in self.world.classes.values()
            for attr in c.lock_attrs)

        # who calls whom: callee key -> list of (caller key, node)
        call_sites: dict[tuple[str, str], list[tuple[tuple[str, str], Node]]] \
            = {key: [] for key in methods}
        for key, info in methods.items():
            for node in info.cfg.reachable_order():
                for expr in _evaluated_exprs(node.event):
                    for call in (n for n in ast.walk(expr)
                                 if isinstance(n, ast.Call)):
                        callee = self.world.resolve_call(info, call)
                        if callee is not None:
                            ckey = (callee.rel, callee.qualname)
                            call_sites[ckey].append((key, node))

        def liftable(key: tuple[str, str]) -> bool:
            info = methods[key]
            simple = info.qualname.rsplit(".", 1)[-1]
            if not simple.startswith("_") or simple.startswith("__"):
                return False
            if simple in self.world.referenced_methods:
                return False
            return bool(call_sites[key])

        self.entry_held = {
            key: universe if liftable(key) else frozenset()
            for key in methods}

        for _round in range(8):
            changed = False
            solved: dict[tuple[str, str], Optional[FixedPoint]] = {}
            for key, info in methods.items():
                solved[key] = self._solve_method(info, self.entry_held[key])
            for key in methods:
                if not liftable(key):
                    continue
                met: Optional[frozenset] = None
                for caller_key, node in call_sites[key]:
                    fp = solved.get(caller_key)
                    held = fp.state_in(node) if fp is not None else None
                    if held is None:
                        held = frozenset()
                    held = frozenset(h for h in held if not h.startswith("@"))
                    met = held if met is None else (met & held)
                new = met if met is not None else frozenset()
                if new != self.entry_held[key]:
                    self.entry_held[key] = new
                    changed = True
            if not changed:
                break

    # ------------------------------------------------------- reporting

    def run(self) -> list[Finding]:
        self._build_cfgs()
        self._acquire_summaries()
        self._entry_held_fixpoint()

        writes: list[LockWrite] = []
        edges: list[LockEdge] = []
        for key, info in self.world.methods.items():
            fp = self._solve_method(info, self.entry_held[key])
            if fp is None:
                continue
            self._collect_method(info, fp, writes, edges)

        findings = list(self.errors)
        findings.extend(self._report_unguarded(writes))
        findings.extend(self._report_inversions(edges))
        findings.sort(key=lambda f: (f.where, f.rule))
        return findings

    def _collect_method(self, info: MethodInfo, fp: FixedPoint,
                        writes: list[LockWrite],
                        edges: list[LockEdge]) -> None:
        world = self.world
        simple = info.qualname.rsplit(".", 1)[-1]
        in_constructor = simple in CONSTRUCTOR_METHODS
        cls = info.class_name
        own_locks = frozenset(
            f"{cls}.{attr}"
            for attr in world.classes.get(cls or "",
                                          ClassInfo("", "")).lock_attrs) \
            if cls else frozenset()

        for node in info.cfg.reachable_order():
            held = fp.state_in(node)
            if held is None:
                continue
            ev = node.event

            # --- lock-order edges
            if isinstance(ev, WithEnter):
                acquired = world.lock_site_name(
                    info, ev.item.context_expr, ev.lineno)
                for h in sorted(held):
                    edges.append(LockEdge(h, acquired, info.rel,
                                          node.lineno, info.qualname))
            for expr in _evaluated_exprs(ev):
                for call in (n for n in ast.walk(expr)
                             if isinstance(n, ast.Call)):
                    callee = world.resolve_call(info, call)
                    if callee is None:
                        continue
                    ckey = (callee.rel, callee.qualname)
                    for target in sorted(self.acquires.get(ckey, ())):
                        for h in sorted(held):
                            edges.append(LockEdge(
                                h, target, info.rel,
                                getattr(expr, "lineno", node.lineno)
                                or node.lineno,
                                info.qualname))

            # --- field writes (self.* only, outside constructors)
            if cls is None or in_constructor or not isinstance(ev, ast.stmt):
                continue
            for root, line in self._self_writes(ev):
                if f"{cls}.{root}" in own_locks or \
                        root in world.classes[cls].lock_attrs:
                    continue
                writes.append(LockWrite(
                    cls, root, info, line,
                    frozenset(held) & own_locks))

    @staticmethod
    def _self_writes(stmt: ast.stmt) -> list[tuple[str, int]]:
        """(root_field, line) for every write to ``self.<root>...``."""

        def self_root(expr: ast.AST) -> Optional[str]:
            root: Optional[str] = None
            node = expr
            while True:
                if isinstance(node, ast.Attribute):
                    root = node.attr
                    node = node.value
                elif isinstance(node, ast.Subscript):
                    node = node.value
                elif isinstance(node, ast.Call):
                    node = node.func
                elif isinstance(node, ast.Name):
                    return root if node.id == "self" else None
                else:
                    return None

        out: list[tuple[str, int]] = []
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, (ast.Attribute, ast.Subscript)) and \
                        isinstance(getattr(sub, "ctx", None),
                                   (ast.Store, ast.Del)):
                    root = self_root(sub)
                    if root is not None:
                        out.append((root, stmt.lineno))

        # mutating method calls on self attributes (this statement only,
        # compound headers never reach here)
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Call) and \
                    isinstance(sub.func, ast.Attribute) and \
                    sub.func.attr in MUTATING_CALLS:
                root = self_root(sub.func.value)
                if root is not None:
                    out.append((root, getattr(sub, "lineno", stmt.lineno)))
        return out

    def _report_unguarded(self, writes: list[LockWrite]) -> list[Finding]:
        guards: dict[tuple[str, str], set[str]] = {}
        for w in writes:
            if w.held_own:
                guards.setdefault((w.class_name, w.root),
                                  set()).update(w.held_own)
        findings: list[Finding] = []
        for w in writes:
            guarding = guards.get((w.class_name, w.root))
            if not guarding:
                continue  # never written under a lock: treated as unshared
            if w.held_own & guarding:
                continue
            if "REP210" in w.method.allow:
                continue
            locks = ", ".join(sorted(guarding))
            findings.append(Finding(
                rule="REP210",
                where=f"{w.method.rel}:{w.line}",
                message=f"{w.method.qualname}: write to "
                        f"'{w.class_name}.{w.root}' without holding "
                        f"{locks}, which guards it elsewhere",
                details={"function": w.method.qualname,
                         "field": f"{w.class_name}.{w.root}",
                         "guards": sorted(guarding)},
            ))
        return findings

    def _report_inversions(self, edges: list[LockEdge]) -> list[Finding]:
        findings: list[Finding] = []
        seen_pairs: set[frozenset] = set()
        by_pair: dict[tuple[str, str], LockEdge] = {}
        adjacency: dict[str, set[str]] = {}
        for e in edges:
            by_pair.setdefault((e.src, e.dst), e)
            adjacency.setdefault(e.src, set()).add(e.dst)

        # self-loop: re-entry on a non-reentrant lock
        for (src, dst), e in sorted(by_pair.items(),
                                    key=lambda kv: (kv[1].rel, kv[1].line)):
            if src == dst and \
                    self.world.lock_kind(src) not in REENTRANT_KINDS:
                findings.append(Finding(
                    rule="REP211",
                    where=f"{e.rel}:{e.line}",
                    message=f"{e.qualname}: non-reentrant lock '{src}' "
                            f"acquired while already held (self-deadlock)",
                    details={"locks": [src],
                             "sites": [f"{e.rel}:{e.line}"]},
                ))

        # two-lock inversions: A->B and B->A both present
        for (src, dst), e in sorted(by_pair.items(),
                                    key=lambda kv: (kv[1].rel, kv[1].line)):
            if src == dst:
                continue
            back = by_pair.get((dst, src))
            if back is None:
                continue
            pair = frozenset((src, dst))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            first, second = sorted(
                (e, back), key=lambda x: (x.rel, x.line))
            findings.append(Finding(
                rule="REP211",
                where=f"{first.rel}:{first.line}",
                message=f"lock-order inversion between '{src}' and "
                        f"'{dst}': {e.qualname} takes {src} then {dst} "
                        f"({e.rel}:{e.line}) while {back.qualname} takes "
                        f"{dst} then {src} ({back.rel}:{back.line})",
                details={"locks": sorted(pair),
                         "sites": [f"{e.rel}:{e.line}",
                                   f"{back.rel}:{back.line}"]},
            ))
        return findings


def analyze_locks(modules: list[ModuleSource]) -> list[Finding]:
    """Run the lock-discipline analysis over a set of modules."""
    world = LockWorld(modules)
    findings = list(world.errors)
    findings.extend(_LockAnalyzer(world).run())
    return findings
