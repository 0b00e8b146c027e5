"""Custom AST lint pass: repo invariants generic linters cannot express.

Run as ``python -m repro.analysis.lint`` (or through the combined
``python -m repro.analysis`` entry point).  Rules:

``REP101`` **unseeded randomness** — no legacy ``np.random.*`` sampling
    (global-state RNG) and no argument-less ``np.random.default_rng()``
    anywhere under ``src/repro``; reproductions must be replayable.
``REP102`` **confined concurrency** — ``threading`` /
    ``concurrent.futures`` / ``multiprocessing`` imports are allowed only
    in the ``service/`` package and ``core/tracing.py`` (which exports the sanctioned
    :func:`~repro.core.tracing.mutex` factory for everyone else).
``REP103`` **no validation asserts** — library code must not use
    ``assert`` for input validation: asserts vanish under ``python -O``,
    turning a loud failure into silent corruption.  Raise ``ValueError``.
``REP104`` **deterministic scheduling order** — ``core/taskgraph.py``
    must not iterate dict views (``.items()``/``.keys()``/``.values()``)
    without ``sorted(...)``: message-assembly order feeds the simulated
    schedule, and insertion order is an accident of build order.
``REP105`` **declared kernel effects** — every ``_op_*`` handler in
    ``kernels/dispatch.py`` may mutate only the operands its entry in
    :data:`~repro.analysis.effects.HANDLER_WRITE_SPEC` declares writable.
    The wave conflict verifier *trusts* that spec; an undeclared mutation
    would silently invalidate its proofs.
``REP106`` **pooled allocation, owned** — ``core/storage.py``,
    ``variants/*`` and ``kernels/*`` must not call raw ``np.zeros`` /
    ``np.empty``: dense buffers come from the
    :class:`~repro.memory.BufferPool`, so every byte is charged to the
    :class:`~repro.memory.MemoryLedger`.  Build-time symbolic helpers may
    be allowlisted in :data:`RAW_ALLOC_ALLOWLIST` (keyed by file and the
    *qualified* enclosing-function name, so ``Class.method`` and nested
    helpers resolve correctly and an entry covers the scopes inside it).
    And outside ``memory/``, a pool ``.take(`` / ``.give(`` may appear
    only in the owner methods of :data:`POOL_OWNERS` — the factor
    storage, an execution context's workspace and the solver's rhs
    buffer — so no kernel can allocate and every buffer has one owner
    that gives it back.
``REP107`` **simulated time only** — ``pgas/`` and ``resilience/`` must
    not read the wall clock (``time.time`` / ``time.monotonic`` /
    ``time.perf_counter``): every timestamp in the simulated runtime
    comes from the DES event queue, and a wall-clock read would make
    fault schedules, retry timers and checkpoint cuts unreplayable.

The checker works on source text (:func:`lint_source`), which is what
lets the mutation self-test lint a defect-injected copy of
``dispatch.py`` without touching the working tree.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterator

from .effects import HANDLER_WRITE_SPEC
from .report import Finding, format_findings

__all__ = ["lint_source", "lint_file", "lint_tree", "main"]

SRC_ROOT = Path(__file__).resolve().parents[1]  # src/repro

# Files (relative to src/repro, posix style) allowed to import thread
# primitives.  ``service/`` is a directory allowance.
THREADING_ALLOWED = ("core/tracing.py",)
THREADING_ALLOWED_DIRS = ("service/",)
THREAD_MODULES = ("threading", "concurrent.futures", "concurrent",
                  "multiprocessing")

# Legacy global-state samplers; any call through ``np.random.<name>`` is
# unreproducible across call sites.
LEGACY_RANDOM = frozenset({
    "rand", "randn", "random", "randint", "random_sample", "ranf",
    "sample", "normal", "uniform", "choice", "permutation", "shuffle",
    "standard_normal", "seed", "get_state", "set_state",
})

DICT_VIEW_METHODS = frozenset({"items", "keys", "values"})

# Mutating container methods: calling one on a ctx accessor mutates it.
MUTATING_METHODS = frozenset({
    "pop", "clear", "update", "setdefault", "append", "extend", "fill",
    "sort", "resize", "popitem",
})

# REP106: allocator calls that bypass the ledgered BufferPool.
POOL_BYPASS = frozenset({"np.zeros", "np.empty", "numpy.zeros",
                         "numpy.empty"})
# Hot-path modules (relative to src/repro) whose dense buffers must come
# from the pool API.
HOT_PATH_FILES = ("core/storage.py",)
HOT_PATH_DIRS = ("variants/", "kernels/")
# (rel path, qualified enclosing function) pairs allowed to allocate raw
# arrays: build-time symbolic work (index/owner maps), not numeric
# buffers.  Names are dotted qualified names ("Class.method",
# "outer.inner"); an entry covers the named scope *and* everything
# nested inside it, so allowlisting an outer function covers its local
# helpers.  Module-level allocations key on "<module>".
RAW_ALLOC_ALLOWLIST = frozenset({
    ("variants/multifrontal.py", "proportional_supernode_mapping"),
})
# REP106: the only (rel path, qualified method) pairs outside memory/
# that may call a pool's take() or give(): each buffer's one owner.
POOL_OWNERS = frozenset({
    ("core/storage.py", "FactorStorage.__init__"),
    ("core/storage.py", "FactorStorage.release"),
    ("kernels/dispatch.py", "ExecContext.fresh_run"),
    ("kernels/dispatch.py", "ExecContext.close"),
    ("core/base.py", "SolverBase._rhs_buffer"),
    ("core/base.py", "SolverBase.close"),
})

# REP107: wall-clock reads forbidden in the simulated-time packages.
WALLCLOCK_FUNCS = frozenset({"time", "monotonic", "perf_counter"})
WALLCLOCK_CALLS = frozenset({f"time.{f}" for f in WALLCLOCK_FUNCS})
WALLCLOCK_DIRS = ("pgas/", "resilience/")


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` as a string for Name/Attribute chains, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


# ------------------------------------------------------- file-level rules


def _check_random(tree: ast.AST, path: str) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name is None:
            continue
        if (name.startswith(("np.random.", "numpy.random."))
                and name.rsplit(".", 1)[1] in LEGACY_RANDOM):
            yield Finding(
                rule="REP101", where=f"{path}:{node.lineno}",
                message=f"legacy global-state RNG call {name}(); use a "
                        "seeded np.random.default_rng(seed)")
        elif name.endswith("default_rng") and not node.args:
            yield Finding(
                rule="REP101", where=f"{path}:{node.lineno}",
                message="unseeded default_rng(): pass an explicit seed so "
                        "runs are replayable")


def _threading_allowed(rel: str) -> bool:
    return (rel in THREADING_ALLOWED
            or any(rel.startswith(d) for d in THREADING_ALLOWED_DIRS))


def _check_threading(tree: ast.AST, path: str, rel: str) -> Iterator[Finding]:
    if _threading_allowed(rel):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name.split(".")[0] in {m.split(".")[0]
                                      for m in THREAD_MODULES}:
                yield Finding(
                    rule="REP102", where=f"{path}:{node.lineno}",
                    message=f"thread primitive import {name!r} outside the "
                            "allowlist (service/, core/tracing.py); use "
                            "repro.core.tracing.mutex()")


def _check_asserts(tree: ast.AST, path: str) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield Finding(
                rule="REP103", where=f"{path}:{node.lineno}",
                message="runtime assert in library code (stripped under "
                        "python -O); raise ValueError with a message")


def _check_dict_order(tree: ast.AST, path: str) -> Iterator[Finding]:
    def flag(it: ast.AST) -> Iterator[Finding]:
        if (isinstance(it, ast.Call)
                and isinstance(it.func, ast.Attribute)
                and it.func.attr in DICT_VIEW_METHODS):
            yield Finding(
                rule="REP104", where=f"{path}:{it.lineno}",
                message=f"iteration over .{it.func.attr}() depends on dict "
                        "insertion order in a scheduling path; wrap in "
                        "sorted(...)")

    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield from flag(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                yield from flag(gen.iter)


def _hot_path(rel: str) -> bool:
    return (rel in HOT_PATH_FILES
            or any(rel.startswith(d) for d in HOT_PATH_DIRS))


def _scoped_calls(tree: ast.AST) -> Iterator[tuple[ast.Call, list[str]]]:
    """Every call in ``tree`` with the qualified scope it evaluates in."""
    def visit(node: ast.AST, stack: list[str]
              ) -> Iterator[tuple[ast.Call, list[str]]]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            # Decorators and parameter defaults evaluate in the
            # *enclosing* scope, so an allowance for the decorated
            # function must not cover calls inside them.
            for dec in node.decorator_list:
                yield from visit(dec, stack)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for default in (*args.defaults, *args.kw_defaults):
                    if default is not None:
                        yield from visit(default, stack)
            inner = stack + [node.name]
            for child in node.body:
                yield from visit(child, inner)
            return
        if isinstance(node, ast.Call):
            yield node, stack
        for child in ast.iter_child_nodes(node):
            yield from visit(child, stack)

    yield from visit(tree, [])


def _check_pool_alloc(tree: ast.AST, path: str, rel: str
                      ) -> Iterator[Finding]:
    def allowed(stack: list[str]) -> bool:
        # An allowlist entry suppresses the named scope and everything
        # nested under it, so "outer" also covers "outer.inner".
        if not stack:
            return (rel, "<module>") in RAW_ALLOC_ALLOWLIST
        return any((rel, ".".join(stack[:i])) in RAW_ALLOC_ALLOWLIST
                   for i in range(1, len(stack) + 1))

    for node, stack in _scoped_calls(tree):
        name = _dotted(node.func)
        if name in POOL_BYPASS and not allowed(stack):
            qual = ".".join(stack) if stack else "<module>"
            yield Finding(
                rule="REP106", where=f"{path}:{node.lineno}",
                message=f"raw {name}() in hot-path module {rel} "
                        f"(scope {qual}); take the buffer from the "
                        "BufferPool in its owner (see POOL_OWNERS) so "
                        "the MemoryLedger sees it, or allowlist the "
                        "enclosing function's qualified name in "
                        "RAW_ALLOC_ALLOWLIST")


def _check_pool_owners(tree: ast.AST, path: str, rel: str
                       ) -> Iterator[Finding]:
    for node, stack in _scoped_calls(tree):
        func = node.func
        if (not isinstance(func, ast.Attribute)
                or func.attr not in ("take", "give")
                or _dotted(func.value) in ("np", "numpy")):
            continue
        qual = ".".join(stack) if stack else "<module>"
        if (rel, qual) not in POOL_OWNERS:
            yield Finding(
                rule="REP106", where=f"{path}:{node.lineno}",
                message=f"pool .{func.attr}() in {rel} (scope {qual}), "
                        "which owns no pooled buffer; reserve a slot in "
                        "the execution context's workspace instead, or "
                        "give a new owner method an entry in POOL_OWNERS")


def _check_wallclock(tree: ast.AST, path: str, rel: str
                     ) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name in WALLCLOCK_CALLS:
                yield Finding(
                    rule="REP107", where=f"{path}:{node.lineno}",
                    message=f"wall-clock read {name}() in simulated-time "
                            f"module {rel}; use the DES clock (event "
                            "timestamps / World.clocks) so runs replay "
                            "deterministically")
        elif (isinstance(node, ast.ImportFrom)
                and node.module == "time"):
            for alias in node.names:
                if alias.name in WALLCLOCK_FUNCS:
                    yield Finding(
                        rule="REP107", where=f"{path}:{node.lineno}",
                        message=f"import of wall-clock time.{alias.name} "
                                f"in simulated-time module {rel}; use the "
                                "DES clock instead")


# -------------------------------------------------- kernel-handler rule


def _check_handlers(tree: ast.AST, path: str) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if (isinstance(node, ast.FunctionDef)
                and node.name.startswith("_op_")):
            yield from _check_one_handler(node, path)


def _check_one_handler(fn: ast.FunctionDef, path: str) -> Iterator[Finding]:
    op = fn.name[len("_op_"):]
    spec = HANDLER_WRITE_SPEC.get(op)
    if spec is None:
        yield Finding(
            rule="REP105", where=f"{path}:{fn.lineno}",
            message=f"kernel handler {fn.name} has no entry in "
                    "HANDLER_WRITE_SPEC; declare its writable operands")
        return

    arg_names = [a.arg for a in fn.args.args]
    ctx_name = arg_names[0] if arg_names else "ctx"
    params = set(arg_names[1:])
    env: dict[str, tuple] = {ctx_name: ("ctx",)}

    def root_of(node: ast.AST) -> tuple:
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if node.id in params:
                return ("param", node.id)
            return ("unknown",)
        if isinstance(node, ast.Subscript):
            return root_of(node.value)
        if isinstance(node, ast.Attribute):
            base = root_of(node.value)
            if base == ("ctx",):
                if node.attr == "storage":
                    return ("storage",)
                if node.attr == "rhs":
                    return ("accessor", node.attr)
                return ("unknown",)
            if base == ("storage",) and node.attr == "panels":
                return ("accessor", "panels")
            return ("unknown",)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                fbase = root_of(func.value)
                if fbase == ("storage",) and func.attr in ("diag_block",
                                                           "off_block"):
                    return ("accessor", func.attr)
                if fbase == ("ctx",) and func.attr == "resolve":
                    arg = node.args[0] if node.args else None
                    return ("resolve",
                            arg.id if isinstance(arg, ast.Name) else "?")
            if (isinstance(func, ast.Name) and func.id == "_flat_view"
                    and node.args):
                return root_of(node.args[0])
            return ("fresh",)  # result of some other computation
        if isinstance(node, ast.IfExp):
            body = root_of(node.body)
            return body if body != ("unknown",) else root_of(node.orelse)
        return ("unknown",)

    def describe(root: tuple) -> str:
        kind = root[0]
        if kind == "accessor":
            return f"ctx accessor {root[1]!r}"
        if kind == "resolve":
            return f"ctx.resolve({root[1]})"
        if kind == "param":
            return f"parameter {root[1]!r}"
        return "ctx.storage"

    def violation(root: tuple) -> bool:
        kind = root[0]
        if kind == "accessor":
            return root[1] not in spec["accessors"]
        if kind == "resolve":
            return root[1] not in spec["resolve"]
        return kind in ("param", "storage")

    def check(root: tuple, lineno: int) -> Iterator[Finding]:
        if violation(root):
            yield Finding(
                rule="REP105", where=f"{path}:{lineno}",
                message=f"kernel handler {fn.name} mutates undeclared "
                        f"operand {describe(root)} (writable per spec: "
                        f"resolve={sorted(spec['resolve'])}, "
                        f"accessors={sorted(spec['accessors'])})",
                details={"op": op, "root": root})

    # Source-order statement stream (nested bodies inlined in order), so
    # local-variable roots are bound before their uses are checked.
    def statements(body: list[ast.stmt]) -> Iterator[ast.stmt]:
        for stmt in body:
            yield stmt
            for attr in ("body", "orelse", "finalbody"):
                yield from statements(getattr(stmt, attr, []) or [])

    def expr_parts(stmt: ast.stmt) -> list[ast.AST]:
        # Compound statements contribute only their header expressions;
        # their bodies are visited as statements of their own (walking
        # the whole subtree would double-report nested violations).
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return [stmt.iter]
        if isinstance(stmt, (ast.While, ast.If)):
            return [stmt.test]
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return [item.context_expr for item in stmt.items]
        if isinstance(stmt, ast.Try):
            return []
        return [stmt]

    for stmt in statements(fn.body):
        # Mutating method calls on accessors (rhs.fill() etc.) —
        # anywhere inside the statement, including assignment values.
        for part in expr_parts(stmt):
            for node in ast.walk(part):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in MUTATING_METHODS):
                    base = root_of(node.func.value)
                    if base[0] in ("accessor", "resolve", "param",
                                   "storage"):
                        yield from check(base, node.lineno)
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    yield from check(root_of(target.value), stmt.lineno)
                elif isinstance(target, ast.Name):
                    env[target.id] = root_of(stmt.value)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            env[elt.id] = ("fresh",)
                        elif isinstance(elt, (ast.Subscript, ast.Attribute)):
                            yield from check(root_of(elt.value), stmt.lineno)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, (ast.Subscript, ast.Attribute)):
                yield from check(root_of(stmt.target.value), stmt.lineno)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            for elt in ast.walk(stmt.target):
                if isinstance(elt, ast.Name):
                    env[elt.id] = ("fresh",)


# --------------------------------------------------------------- drivers


def lint_source(text: str, path: str, rel: str | None = None
                ) -> list[Finding]:
    """Lint one module's source text.

    ``path`` is the display location; ``rel`` is the path relative to
    ``src/repro`` (posix) used for file-scoped rules — derived from
    ``path`` when omitted.
    """
    if rel is None:
        norm = path.replace("\\", "/")
        marker = "repro/"
        rel = norm.split(marker, 1)[1] if marker in norm else norm
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        return [Finding(rule="REP100", where=f"{path}:{exc.lineno or 0}",
                        message=f"syntax error: {exc.msg}")]
    findings = list(_check_random(tree, path))
    findings.extend(_check_threading(tree, path, rel))
    findings.extend(_check_asserts(tree, path))
    if rel == "core/taskgraph.py":
        findings.extend(_check_dict_order(tree, path))
    if rel == "kernels/dispatch.py":
        findings.extend(_check_handlers(tree, path))
    if _hot_path(rel):
        findings.extend(_check_pool_alloc(tree, path, rel))
    if not rel.startswith("memory/"):
        findings.extend(_check_pool_owners(tree, path, rel))
    if rel.startswith(WALLCLOCK_DIRS):
        findings.extend(_check_wallclock(tree, path, rel))
    return findings


def lint_file(path: Path, root: Path = SRC_ROOT) -> list[Finding]:
    """Lint one file on disk (``root`` anchors the file-scoped rules)."""
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.name
    return lint_source(path.read_text(), str(path), rel=rel)


def lint_tree(root: Path = SRC_ROOT) -> list[Finding]:
    """Lint every Python module under ``root`` (default: src/repro)."""
    findings: list[Finding] = []
    for path in sorted(root.rglob("*.py")):
        findings.extend(lint_file(path, root=root))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Repo-invariant lint pass (rules REP101-REP107).")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files to lint (default: all of src/repro)")
    args = parser.parse_args(argv)
    if args.paths:
        findings = []
        for path in args.paths:
            findings.extend(lint_file(path))
    else:
        findings = lint_tree()
    print(format_findings(findings, header="repro.analysis.lint"))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
