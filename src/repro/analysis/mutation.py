"""Mutation self-tests: prove the analysis layers actually detect bugs.

A checker that always reports "clean" is indistinguishable from one that
works — until the day it matters.  Each layer is therefore self-tested by
*seeded defect injection* (the classic mutation-testing argument): run
the checker on the real tree (must be clean), inject a known defect into
a copy of the input, and require the checker to flag it with a precise
report.

The injections mirror the analysis layers:

* **waves** — a real factorization's flush stream is captured, verified
  clean, then mutated: a ``trsm_block`` call is duplicated *into its own
  wave* (two unordered in-place writes of one panel block — must raise
  ``WAVE001``) and re-submitted *into an earlier wave* (submission/wave
  order inversion — must raise ``WAVE002``); a live factorization that
  submits one past the last wave must raise ``WAVE002`` on its session.
* **plan-waves** — the same stream is run through the plan compile pass
  (``repro.plans``) and re-verified; a fused ``multi_update`` group
  inserted ahead of the stream against a ``trsm_block`` target must
  raise ``WAVE003``, and a duplicated in-place write must still raise
  ``WAVE001`` on the compiled representation.
* **races** — a checked factorization must be race-free; then a scripted
  world performs an ``rma_put`` into another rank's buffer with no
  ordering edge (must raise ``HB003``), sends a signal advertising a
  buffer that was never written (``HB002``), and drops a delivered RPC
  on the floor (``HB004``).
* **lint** — the real ``kernels/dispatch.py`` must carry zero ``REP105``
  findings; a copy with ``ctx.resolve(a_ref)[0, 0] = 0.0`` injected into
  ``_op_syrk_sub`` (a kernel mutating its declared-read-only operand)
  must be flagged.
* **pool lint** — the real ``core/storage.py`` must carry zero ``REP106``
  findings; a copy with a helper calling raw ``np.zeros`` appended (an
  allocation that bypasses the ledgered ``BufferPool``) must be flagged.
* **wall-clock lint** — the real ``pgas/runtime.py`` must carry zero
  ``REP107`` findings; a copy with a helper reading ``time.monotonic()``
  appended (a wall-clock read that would make the simulated runtime's
  fault schedules and retry timers unreplayable) must be flagged.
* **flow-ownership** — the pooled-memory and service layers must be
  clean under the flow-sensitive ownership analysis; four probe
  functions appended to a copy of ``memory/pool.py`` plant one defect
  each — a buffer leaked on an exception path (``REP200``), a double
  ``give`` (``REP201``), a use after ``give`` (``REP202``) and a
  conditional give that diverges at the join (``REP203``) — and each
  must be flagged *at the planted line*.
* **flow-locks** — the same layers must be clean under the lock
  discipline analysis; a method spliced into ``ExecutionTrace`` that
  bumps ``tasks_executed`` without the trace lock must raise ``REP210``,
  and a pair of methods spliced into ``FactorCache`` and
  ``ExecutionTrace`` that nest the two locks in opposite orders must
  raise ``REP211`` — again at the planted lines.

``python -m repro.analysis selftest`` (and the CI ``static-analysis``
job) fail unless every layer passes both halves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .report import Finding
from .waves import verify_flush

__all__ = ["MutationReport", "selftest_waves", "selftest_plan_waves",
           "selftest_races", "selftest_lint", "selftest_pool_lint",
           "selftest_wallclock_lint", "selftest_flow_ownership",
           "selftest_flow_locks", "run_selftest", "format_reports"]


@dataclass
class MutationReport:
    """Outcome of one layer's clean-tree + injected-defect check."""

    layer: str
    clean_findings: list[Finding]
    injected_findings: list[Finding]
    expect_rules: tuple[str, ...]
    notes: str = ""
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Clean tree clean, and every expected rule fired on the mutant."""
        return (not self.clean_findings
                and all(any(f.rule == rule for f in self.injected_findings)
                        for rule in self.expect_rules))


def _capture_factor_flush() -> tuple:
    """One real factorization's solver, executor and executed stream."""
    from ..core.solver import SolverOptions, SymPackSolver
    from ..sparse.generators import random_spd

    a = random_spd(60, density=0.15, seed=3)
    solver = SymPackSolver(a, SolverOptions(nranks=2))
    captured: list = []
    solver.session._flush_hook = (
        lambda executor, submitted, executed:
        captured.append((solver, executor, list(executed))))
    solver.factorize()
    return captured[0]


def _late_submit(solver, late_wave: int) -> list[Finding]:
    """Session findings of a plain re-run with a trsm_block submitted late.

    The flush sorts the late call after the updates that read its block,
    so only the *submitted* stream the session verifies shows it.
    """
    from ..core.engine import FanOutEngine
    from ..kernels.dispatch import KernelExecutor

    session, graph = solver.session, solver._factor_graph
    executor = KernelExecutor(graph.context, flush_hook=session._verify_flush)
    submit = executor.submit
    late = next(t.tid for t in graph.tasks if t.kernel.op == "trsm_block")

    def late_submit(task, rank, device, wave=None):
        submit(task, rank, device, late_wave if task.tid == late else wave)

    executor.submit = late_submit
    solver.storage.reset()
    graph.context.fresh_run()
    FanOutEngine(session._new_world(), graph, session.offload,
                 executor=executor).run()
    graph.context.end_run()
    return session.wave_findings


def selftest_waves() -> MutationReport:
    """Wave verifier: clean stream passes; injected conflicts are caught."""
    solver, executor, pending = _capture_factor_flush()
    ctx = executor.context
    clean = verify_flush(pending, ctx)

    idx = next(i for i, (call, _w) in enumerate(pending)
               if call.op == "trsm_block")
    call, wave = pending[idx]

    # Injection 1: the same in-place panel write twice in one wave.
    overlapping = verify_flush(pending + [(call, wave)], ctx)
    # Injection 2: re-submission into an earlier wave (order inversion).
    inverted = verify_flush(pending + [(call, max(0, wave - 1))], ctx)
    # Injection 3: a live run submits a trsm_block past the last wave.
    late = _late_submit(solver, max(w for _c, w in pending) + 1)

    report = MutationReport(
        layer="waves",
        clean_findings=clean,
        injected_findings=overlapping + inverted + late,
        expect_rules=("WAVE001", "WAVE002"),
        notes=(f"captured {len(pending)} calls; duplicated trsm_block "
               f"args={call.args} (wave {wave}); live run with a late "
               f"trsm_block raised {sorted({f.rule for f in late})}"),
        details={"stream_calls": len(pending), "mutant_site": call.args},
    )
    # Precision: the WAVE001 finding must name the duplicated call's
    # panel buffer and both task indices; the late submission must be
    # caught by the session's own hook.
    w1 = [f for f in overlapping if f.rule == "WAVE001"]
    if not any(f.details.get("buffer") == ("panel", call.args[0])
               and f.details.get("task_b") == len(pending) for f in w1):
        report.expect_rules = report.expect_rules + ("WAVE001-precise",)
    if not any(f.rule == "WAVE002" for f in late):
        report.expect_rules = report.expect_rules + ("WAVE002-late",)
    return report


def selftest_plan_waves() -> MutationReport:
    """Plan verifier: compiled stream clean; fused-group conflicts caught.

    Same argument as :func:`selftest_waves`, but through the compiled-plan
    path: the captured flush stream is run through the plan compile pass
    (fusion + interning) and re-verified with :func:`~repro.analysis.waves
    .verify_plan`.  The injections exercise the fused representation:

    * a ``multi_update`` group scattering into a ``trsm_block``'s target,
      *inserted ahead of the whole stream* at the trsm's own wave — the
      accumulating write then precedes the in-place write in submission
      order while their waves are equal, so the waves do not levelize
      the pair (``WAVE003``);
    * the trsm's in-place block write duplicated into its own wave
      (``WAVE001``), proving plain conflicts survive compilation too.
    """
    from ..kernels.dispatch import KernelCall
    from ..plans import compile_stream
    from .waves import verify_plan

    _solver, executor, pending = _capture_factor_flush()
    ctx = executor.context
    plan = compile_stream(pending)
    clean = verify_plan(plan, ctx)

    idx = next(i for i, (call, _w) in enumerate(pending)
               if call.op == "trsm_block")
    call, wave = pending[idx]
    s, bi = call.args
    group = KernelCall("multi_update", ((
        ("syrk", ("blk", s, bi), ("diag", s), None, np.arange(2), -1.0),
    ),))
    fused_mutant = compile_stream([(group, wave)] + list(pending))
    fused = verify_plan(fused_mutant, ctx)
    dup_mutant = compile_stream(list(pending) + [(call, wave)])
    duplicated = verify_plan(dup_mutant, ctx)

    report = MutationReport(
        layer="plan-waves",
        clean_findings=clean,
        injected_findings=fused + duplicated,
        expect_rules=("WAVE003", "WAVE001"),
        notes=(f"compiled {plan.calls} calls ({plan.fused_groups} fused "
               f"group(s)); injected multi_update into blk{(s, bi)} at "
               f"wave {wave}"),
        details={"plan_calls": plan.calls,
                 "fused_groups": plan.fused_groups},
    )
    # Precision: the WAVE003 finding must pin the injected group (task 0,
    # a multi_update) against the trsm'd panel buffer.
    w3 = [f for f in fused if f.rule == "WAVE003"]
    if not any(f.details.get("buffer") == ("panel", s)
               and f.details.get("task_a") == 0
               and f.details.get("op_a") == "multi_update" for f in w3):
        report.expect_rules = report.expect_rules + ("WAVE003-precise",)
    return report


def selftest_races() -> MutationReport:
    """HB checker: checked factorization race-free; scripted races caught."""
    from ..analysis.hb import PgasTracer
    from ..core.solver import SolverOptions, SymPackSolver
    from ..machine.perlmutter import perlmutter
    from ..pgas.global_ptr import GlobalPtr
    from ..pgas.network import MemorySpace
    from ..pgas.runtime import World
    from ..sparse.generators import random_spd

    a = random_spd(60, density=0.15, seed=3)
    solver = SymPackSolver(a, SolverOptions(nranks=2, check_races=True))
    solver.factorize()
    rhs = np.linspace(-1.0, 1.0, a.n).reshape(a.n, 1)
    solver.solve(rhs)
    clean = list(solver.session.race_findings)

    # Scripted injections against a fresh traced world.
    tracer = PgasTracer(2)
    world = World(nranks=2, machine=perlmutter(), tracer=tracer)
    # HB003: rank 1 puts into rank 0's buffer with no ordering edge to
    # rank 0's registration (no signal was ever exchanged).
    ptr = world.register(0, np.zeros(8))
    world.rma_put(1, np.ones(8), ptr, t=0.0)
    # HB002: a signal advertising a buffer that was never written.
    ghost = GlobalPtr(rank=0, space=MemorySpace.HOST, buffer_id=10_000,
                      nbytes=512)
    world.rpc(1, 0, lambda payload: None, (ghost, "meta"), t=0.0)
    # HB004: the rpc above is delivered but rank 0 never progresses.
    world.run()
    injected = tracer.finalize(world)

    return MutationReport(
        layer="races",
        clean_findings=clean,
        injected_findings=injected,
        expect_rules=("HB003", "HB002", "HB004"),
        notes="scripted world: blind rput, ghost-pointer signal, "
              "unpolled inbox",
    )


_SYRK_DEF = ("def _op_syrk_sub(ctx: ExecContext, tgt_ref: tuple, "
             "a_ref: tuple,\n"
             "                 flat: np.ndarray, sign: float) -> None:")
_SYRK_MUTANT = _SYRK_DEF + "\n    ctx.resolve(a_ref)[0, 0] = 0.0"


def selftest_lint() -> MutationReport:
    """Lint: real dispatch.py clean; read-only-operand mutant flagged."""
    from .lint import lint_source

    path = Path(__file__).resolve().parents[1] / "kernels" / "dispatch.py"
    source = path.read_text()
    clean = [f for f in lint_source(source, str(path),
                                    rel="kernels/dispatch.py")]
    if _SYRK_DEF not in source:
        return MutationReport(
            layer="lint", clean_findings=clean,
            injected_findings=[], expect_rules=("REP105",),
            notes="injection site _op_syrk_sub not found in dispatch.py")
    mutant = source.replace(_SYRK_DEF, _SYRK_MUTANT)
    injected = lint_source(mutant, str(path), rel="kernels/dispatch.py")
    return MutationReport(
        layer="lint",
        clean_findings=clean,
        injected_findings=injected,
        expect_rules=("REP105",),
        notes="mutant: _op_syrk_sub writes ctx.resolve(a_ref) "
              "(declared read-only)",
    )


_REP106_MUTANT = ("\n\ndef _rep106_probe(shape):\n"
                  "    return np.zeros(shape)\n")


def selftest_pool_lint() -> MutationReport:
    """Pool lint: real storage.py clean; raw-allocation mutant flagged."""
    from .lint import lint_source

    path = Path(__file__).resolve().parents[1] / "core" / "storage.py"
    source = path.read_text()
    clean = lint_source(source, str(path), rel="core/storage.py")
    mutant = source + _REP106_MUTANT
    injected = lint_source(mutant, str(path), rel="core/storage.py")
    return MutationReport(
        layer="pool-lint",
        clean_findings=clean,
        injected_findings=injected,
        expect_rules=("REP106",),
        notes="mutant: helper in core/storage.py allocates with raw "
              "np.zeros (bypasses the ledgered BufferPool)",
    )


_REP107_MUTANT = ("\n\ndef _rep107_probe():\n"
                  "    import time\n"
                  "    return time.monotonic()\n")


def selftest_wallclock_lint() -> MutationReport:
    """Wall-clock lint: real pgas/runtime.py clean; clock mutant flagged."""
    from .lint import lint_source

    path = Path(__file__).resolve().parents[1] / "pgas" / "runtime.py"
    source = path.read_text()
    clean = lint_source(source, str(path), rel="pgas/runtime.py")
    mutant = source + _REP107_MUTANT
    injected = lint_source(mutant, str(path), rel="pgas/runtime.py")
    return MutationReport(
        layer="wallclock-lint",
        clean_findings=clean,
        injected_findings=injected,
        expect_rules=("REP107",),
        notes="mutant: helper in pgas/runtime.py reads time.monotonic() "
              "(wall clock leaking into the simulated runtime)",
    )


# Each ownership probe is appended to a copy of memory/pool.py; the
# marker is the exact planted line the analysis must point at.
_FLOW_OWNERSHIP_PROBES = (
    ("REP200",
     "\n\ndef _flow_rep200_probe(pool, shape, check):\n"
     "    buf = pool.take(shape)\n"
     "    try:\n"
     "        check(buf)\n"
     "    except ValueError:\n"
     "        return None\n"
     "    pool.give(buf)\n",
     "        return None"),
    ("REP201",
     "\n\ndef _flow_rep201_probe(pool, shape):\n"
     "    buf = pool.take(shape)\n"
     "    pool.give(buf)\n"
     "    pool.give(buf)  # double\n",
     "    pool.give(buf)  # double"),
    ("REP202",
     "\n\ndef _flow_rep202_probe(pool, shape):\n"
     "    buf = pool.take(shape)\n"
     "    pool.give(buf)\n"
     "    return float(buf[0])\n",
     "    return float(buf[0])"),
    ("REP203",
     "\n\ndef _flow_rep203_probe(pool, shape, flag):\n"
     "    buf = pool.take(shape)\n"
     "    if flag:\n"
     "        pool.give(buf)\n"
     "    buf.fill(0)\n",
     "    buf.fill(0)"),
)


def _flow_sources() -> dict[str, str]:
    """rel path -> source text for the default flow-analysis module set."""
    from .locks import DEFAULT_LOCK_MODULES
    from .ownership import DEFAULT_OWNERSHIP_MODULES

    base = Path(__file__).resolve().parents[1]
    return {rel: (base / rel).read_text()
            for rel in set(DEFAULT_OWNERSHIP_MODULES + DEFAULT_LOCK_MODULES)}


def _marker_line(source: str, marker: str) -> int:
    """1-based line number of the (unique) exact line ``marker``."""
    return source.splitlines().index(marker) + 1


def selftest_flow_ownership() -> MutationReport:
    """Ownership flow: real layers clean; four planted leaks flagged.

    The clean half runs the full default module set; the injected half
    appends one probe function at a time to ``memory/pool.py`` and
    requires the matching rule *at the planted line* (precision failures
    surface as unmet ``<rule>-precise`` pseudo-rules).
    """
    from .ownership import (DEFAULT_OWNERSHIP_MODULES, ModuleSource,
                            analyze_ownership)

    sources = _flow_sources()
    clean = analyze_ownership([ModuleSource(rel, sources[rel])
                               for rel in DEFAULT_OWNERSHIP_MODULES])

    pool_src = sources["memory/pool.py"]
    injected: list[Finding] = []
    expect: list[str] = []
    for rule, probe, marker in _FLOW_OWNERSHIP_PROBES:
        mutant = pool_src + probe
        where = f"memory/pool.py:{_marker_line(mutant, marker)}"
        found = analyze_ownership([ModuleSource("memory/pool.py", mutant)])
        injected.extend(found)
        expect.append(rule)
        if not any(f.rule == rule and f.where == where for f in found):
            expect.append(rule + "-precise")
    return MutationReport(
        layer="flow-ownership",
        clean_findings=clean,
        injected_findings=injected,
        expect_rules=tuple(expect),
        notes="mutants: leak-on-exception, double give, use-after-give, "
              "conditional give (join divergence) planted in memory/pool.py",
    )


_REP210_ANCHOR = "    def record_fallback(self) -> None:"
_REP210_PROBE = ("    def rep210_probe(self) -> None:\n"
                 "        self.tasks_executed += 1\n\n")
_REP210_MARKER = "        self.tasks_executed += 1"

_REP211_CACHES_ANCHOR = "    def get(self, key: str) -> FactorEntry | None:"
_REP211_CACHES_PROBE = (
    "    def rep211_probe(self, trace: ExecutionTrace) -> None:\n"
    "        with self._lock:\n"
    "            with trace._lock:\n"
    "                pass\n\n")
_REP211_TRACE_PROBE = (
    "    def rep211_peer(self, cache: \"FactorCache\") -> None:\n"
    "        with self._lock:\n"
    "            with cache._lock:\n"
    "                pass\n\n")
_REP211_MARKER = "            with cache._lock:"


def selftest_flow_locks() -> MutationReport:
    """Lock flow: real layers clean; planted discipline bugs flagged.

    ``REP210``: a spliced ``ExecutionTrace`` method bumps the
    lock-guarded ``tasks_executed`` counter without the trace lock.
    ``REP211``: methods spliced into ``FactorCache`` and
    ``ExecutionTrace`` nest the two classes' locks in opposite orders.
    """
    from .locks import DEFAULT_LOCK_MODULES, analyze_locks
    from .ownership import ModuleSource

    sources = _flow_sources()
    clean = analyze_locks([ModuleSource(rel, sources[rel])
                           for rel in DEFAULT_LOCK_MODULES])

    trace_src = sources["core/tracing.py"]
    caches_src = sources["service/caches.py"]
    if (_REP210_ANCHOR not in trace_src
            or _REP211_CACHES_ANCHOR not in caches_src):
        return MutationReport(
            layer="flow-locks", clean_findings=clean,
            injected_findings=[], expect_rules=("REP210", "REP211"),
            notes="injection anchors not found in tracing.py / caches.py")

    expect: list[str] = []

    unguarded = trace_src.replace(_REP210_ANCHOR,
                                  _REP210_PROBE + _REP210_ANCHOR, 1)
    where210 = f"core/tracing.py:{_marker_line(unguarded, _REP210_MARKER)}"
    found210 = analyze_locks([ModuleSource("core/tracing.py", unguarded)])
    expect.append("REP210")
    if not any(f.rule == "REP210" and f.where == where210
               for f in found210):
        expect.append("REP210-precise")

    inverted_trace = trace_src.replace(_REP210_ANCHOR,
                                       _REP211_TRACE_PROBE + _REP210_ANCHOR, 1)
    inverted_caches = caches_src.replace(
        _REP211_CACHES_ANCHOR,
        _REP211_CACHES_PROBE + _REP211_CACHES_ANCHOR, 1)
    where211 = (f"core/tracing.py:"
                f"{_marker_line(inverted_trace, _REP211_MARKER)}")
    found211 = analyze_locks([
        ModuleSource("core/tracing.py", inverted_trace),
        ModuleSource("service/caches.py", inverted_caches)])
    expect.append("REP211")
    if not any(f.rule == "REP211" and f.where == where211
               for f in found211):
        expect.append("REP211-precise")

    return MutationReport(
        layer="flow-locks",
        clean_findings=clean,
        injected_findings=found210 + found211,
        expect_rules=tuple(expect),
        notes="mutants: unguarded tasks_executed write in ExecutionTrace; "
              "FactorCache/ExecutionTrace locks nested in opposite orders",
    )


def run_selftest() -> list[MutationReport]:
    """All layers' mutation self-tests."""
    return [selftest_waves(), selftest_plan_waves(), selftest_races(),
            selftest_lint(), selftest_pool_lint(),
            selftest_wallclock_lint(), selftest_flow_ownership(),
            selftest_flow_locks()]


def format_reports(reports: list[MutationReport]) -> str:
    lines = []
    for rep in reports:
        status = "PASS" if rep.ok else "FAIL"
        fired = sorted({f.rule for f in rep.injected_findings})
        lines.append(
            f"[{status}] {rep.layer}: clean={len(rep.clean_findings)} "
            f"finding(s); injected defects fired {fired} "
            f"(expected {list(rep.expect_rules)})")
        if rep.notes:
            lines.append(f"       {rep.notes}")
        for f in rep.clean_findings:
            lines.append(f"       unexpected clean-tree finding: {f}")
    return "\n".join(lines)
