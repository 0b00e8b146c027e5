"""Concurrency-correctness analysis suite.

Three layers, one goal: turn the invariants the executor and the simulated
PGAS runtime *rely on* into properties that are mechanically checked on
every commit instead of merely sampled by property tests.

* :mod:`repro.analysis.waves` — the **wave conflict verifier**.  Consumes
  the submitted ``(KernelCall, wave)`` stream of every
  :class:`~repro.kernels.dispatch.KernelExecutor` flush and proves that
  the waves levelize that exact stream's byte-level effects: no two calls in one wave touch
  overlapping bytes with an in-place write, and every accumulating
  scatter-add is ordered consistently (submission order agrees with wave
  order) against every in-place access of the same bytes.

* :mod:`repro.analysis.hb` — the **PGAS happens-before checker**.  A
  vector-clock tracer attached to a :class:`~repro.pgas.runtime.World`
  that flags rget/rput/RPC pairs with no ordering edge (unfenced remote
  access), signals that reference payloads written later
  (signal-before-put) and ranks that end a run with undrained RPC inboxes
  (progress-loop starvation).  Enabled on any session via the
  ``check_races`` option (CLI ``--check-races``).

* :mod:`repro.analysis.lint` — a **custom AST lint pass** encoding repo
  invariants generic linters cannot express (kernel handlers mutating
  undeclared operands, unseeded randomness, stray ``threading`` use,
  ``assert``-based input validation, dict-iteration-order dependence in
  scheduling paths).

All three run from one entry point (``python -m repro.analysis``) and are
self-tested by mutation (:mod:`repro.analysis.mutation`): seeded defect
injections must be flagged and the clean tree must produce zero findings.
"""

from .hb import PgasTracer
from .report import Finding, format_findings
from .waves import verify_flush

__all__ = ["Finding", "format_findings", "PgasTracer", "verify_flush"]
