"""Numeric plans: DES-free warm refactorization and solves.

See :mod:`repro.plans.plan` for the design.  Public surface:

* :class:`NumericPlan` / :class:`PlanStats` — a graph's stream (compiled
  or not) with its simulated results, and per-solver plan telemetry;
* :func:`compile_plan` — the compile pass (fusion + interning) over a
  task graph's canonical stream (:attr:`~repro.core.tasks.TaskGraph
  .stream`, levelized once per graph); a plan is replayed by handing
  its frozen stream to
  :meth:`~repro.kernels.dispatch.KernelExecutor.execute_stream`.

A replay allocates nothing: its kernels work in the execution
context's resident workspace (:class:`~repro.kernels.dispatch.ExecContext`).
"""

from .plan import NumericPlan, PlanStats, compile_plan

__all__ = ["NumericPlan", "PlanStats", "compile_plan"]
