"""Mutation self-tests: prove the analysis layers actually detect bugs.

A checker that always reports "clean" is indistinguishable from one that
works — until the day it matters.  Each layer is therefore self-tested by
*seeded defect injection* (the classic mutation-testing argument): run
the checker on the real tree (must be clean), inject a known defect into
a copy of the input, and require the checker to flag it with a precise
report.

The injections mirror the analysis layers:

* **waves** — a real factorization graph's canonical stream is
  verified clean, then mutated: a ``trsm_block`` call is duplicated
  *into its own wave* (two unordered in-place writes of one panel block
  — must raise ``WAVE001``) and re-submitted *into an earlier wave*
  (submission/wave order inversion — must raise ``WAVE002``); a live
  factorization with one ``trsm_block``'s cached level raised past the
  last level must raise ``WAVE002`` on its session's own hook.
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
* **pool lint** — the real ``core/storage.py`` and
  ``kernels/dispatch.py`` must carry zero ``REP106`` findings; a copy of
  the first with a helper calling raw ``np.zeros`` appended (an
  allocation that bypasses the ledgered ``BufferPool``) and a copy of
  the second with a kernel handler taking a buffer from the context's
  pool (an allocation outside every buffer owner) must each be flagged,
  the latter at the planted line.
* **wall-clock lint** — the real ``pgas/runtime.py`` must carry zero
  ``REP107`` findings; a copy with a helper reading ``time.monotonic()``
  appended (a wall-clock read that would make the simulated runtime's
  fault schedules and retry timers unreplayable) must be flagged.
* **flow-locks** — the threaded layers must be clean under the lock
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
           "selftest_wallclock_lint", "selftest_flow_locks",
           "run_selftest", "format_reports"]


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


def _factor_stream() -> tuple:
    """One real factorization's solver and its graph's canonical stream."""
    from ..core.solver import SolverOptions, SymPackSolver
    from ..sparse.generators import random_spd

    a = random_spd(60, density=0.15, seed=3)
    solver = SymPackSolver(a, SolverOptions(nranks=2))
    solver.factorize()
    return solver, list(solver._factor_graph.stream)


def _late_level(solver, late_level: int) -> list[Finding]:
    """Session findings of a DES re-run with one trsm_block's level raised.

    The engine executes the stream sorted before the level was raised,
    so only the DES start order the session's own hook verifies shows it.
    ``factorize()`` would replay the plan instead of simulating, so the
    graph goes through ``session.run`` directly.
    """
    session, graph = solver.session, solver._factor_graph
    levels = graph.levels
    late = next(t.tid for t in graph.tasks if t.kernel.op == "trsm_block")
    saved = int(levels[late])
    levels[late] = late_level
    session._flush_hook = session._verify_flush
    solver.storage.reset()
    graph.context.fresh_run()
    try:
        session.run(graph)
    finally:
        levels[late] = saved
    return session.wave_findings


def selftest_waves() -> MutationReport:
    """Wave verifier: clean stream passes; injected conflicts are caught."""
    solver, pending = _factor_stream()
    ctx = solver._factor_graph.context
    clean = verify_flush(pending, ctx)

    idx = next(i for i, (call, _w) in enumerate(pending)
               if call.op == "trsm_block")
    call, wave = pending[idx]

    # Injection 1: the same in-place panel write twice in one wave.
    overlapping = verify_flush(pending + [(call, wave)], ctx)
    # Injection 2: re-submission into an earlier wave (order inversion).
    inverted = verify_flush(pending + [(call, max(0, wave - 1))], ctx)
    # Injection 3: a live run with a trsm_block's level past the last.
    late = _late_level(solver, max(w for _c, w in pending) + 1)

    report = MutationReport(
        layer="waves",
        clean_findings=clean,
        injected_findings=overlapping + inverted + late,
        expect_rules=("WAVE001", "WAVE002"),
        notes=(f"stream of {len(pending)} calls; duplicated trsm_block "
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
    path: the factor graph's stream is run through the plan compile pass
    (fusion + interning) and its compiled stream re-verified.  The
    injections exercise the fused representation:

    * a ``multi_update`` group scattering into a ``trsm_block``'s target,
      *inserted ahead of the whole stream* at the trsm's own wave — the
      accumulating write then precedes the in-place write in submission
      order while their waves are equal, so the waves do not levelize
      the pair (``WAVE003``);
    * the trsm's in-place block write duplicated into its own wave
      (``WAVE001``), proving plain conflicts survive compilation too.
    """
    from ..kernels.dispatch import KernelCall
    from ..plans import compile_plan

    solver, pending = _factor_stream()
    ctx = solver._factor_graph.context
    plan = compile_plan(pending)
    clean = verify_flush(list(plan.stream), ctx)

    idx = next(i for i, (call, _w) in enumerate(pending)
               if call.op == "trsm_block")
    call, wave = pending[idx]
    s, bi = call.args
    group = KernelCall("multi_update", ((
        ("syrk", ("blk", s, bi), ("diag", s), None, np.arange(2), -1.0),
    ),))
    fused_mutant = compile_plan([(group, wave)] + pending)
    fused = verify_flush(list(fused_mutant.stream), ctx)
    dup_mutant = compile_plan(pending + [(call, wave)])
    duplicated = verify_flush(list(dup_mutant.stream), ctx)

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
_REP106_TAKE_MARKER = "    buf = ctx.pool.take((len(kids), len(kids)))"
_REP106_TAKE_MUTANT = ("\n\ndef _op_rep106_probe(ctx: ExecContext, "
                       "kids: Sequence[int]) -> None:\n"
                       + _REP106_TAKE_MARKER + "\n"
                       "    ctx.pool.give(buf)\n")


def selftest_pool_lint() -> MutationReport:
    """Pool lint: real storage.py and dispatch.py clean; a raw allocation
    and a kernel-side pool take are flagged."""
    from .lint import lint_source

    base = Path(__file__).resolve().parents[1]
    sources = {rel: (base / rel).read_text()
               for rel in ("core/storage.py", "kernels/dispatch.py")}
    clean = [f for rel, text in sources.items()
             for f in lint_source(text, str(base / rel), rel=rel)
             if f.rule == "REP106"]
    raw = lint_source(sources["core/storage.py"] + _REP106_MUTANT,
                      "core/storage.py", rel="core/storage.py")
    mutant = sources["kernels/dispatch.py"] + _REP106_TAKE_MUTANT
    where = f"kernels/dispatch.py:{_marker_line(mutant, _REP106_TAKE_MARKER)}"
    taken = [f for f in lint_source(mutant, "kernels/dispatch.py",
                                    rel="kernels/dispatch.py")
             if f.rule == "REP106"]
    expect = ["REP106"]
    if not any(f.where == where for f in taken) or len(raw) != 1:
        expect.append("REP106-precise")
    return MutationReport(
        layer="pool-lint",
        clean_findings=clean,
        injected_findings=raw + taken,
        expect_rules=tuple(expect),
        notes="mutants: helper in core/storage.py allocates with raw "
              "np.zeros; kernel handler in kernels/dispatch.py takes and "
              "gives a pool buffer (not a buffer owner)",
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


def _flow_sources() -> dict[str, str]:
    """rel path -> source text for the default lock-analysis module set."""
    from .locks import DEFAULT_LOCK_MODULES

    base = Path(__file__).resolve().parents[1]
    return {rel: (base / rel).read_text() for rel in DEFAULT_LOCK_MODULES}


def _marker_line(source: str, marker: str) -> int:
    """1-based line number of the (unique) exact line ``marker``."""
    return source.splitlines().index(marker) + 1


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
    from .locks import DEFAULT_LOCK_MODULES, ModuleSource, analyze_locks

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
            selftest_wallclock_lint(), selftest_flow_locks()]


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
