"""Compiled numeric plans: DES-free warm refactorization and solves.

See :mod:`repro.plans.plan` for the design.  Public surface:

* :class:`NumericPlan` / :class:`PlanStats` — the immutable compiled
  stream and per-solver plan telemetry;
* :func:`compile_plan` / :func:`compile_stream` — the compile pass
  (fusion + interning);
* :class:`StreamRecorder` — flush-stream capture during a DES run;
  a plan is replayed by handing its frozen stream to
  :meth:`~repro.kernels.dispatch.KernelExecutor.execute_stream`;
* :class:`PlanArena` — retained kernel-buffer cache making warm replays
  allocation-free.
"""

from .arena import PlanArena
from .plan import NumericPlan, PlanStats, compile_plan, compile_stream
from .recorder import StreamRecorder

__all__ = ["NumericPlan", "PlanStats", "PlanArena", "StreamRecorder",
           "compile_plan", "compile_stream"]
