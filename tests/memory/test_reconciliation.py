"""End-to-end memory reconciliation through the real solvers.

The tentpole acceptance criterion: after a solver closes, live bytes in
every (rank, space) ledger account return to zero while peak watermarks
survive — reported from the same :class:`MemoryLedger` everywhere
(``FactorizeInfo.mem``, the execution trace, ``--mem-report``).
"""

import numpy as np
import pytest

from repro.core.solver import SolverOptions, SymPackSolver
from repro.sparse.generators import random_spd
from repro.variants.fanboth import FanBothOptions, FanBothSolver
from repro.variants.fanin import FanInOptions, FanInSolver
from repro.variants.multifrontal import MultifrontalOptions, MultifrontalSolver


def spd(n=60, seed=3):
    return random_spd(n, density=0.15, seed=seed)


SOLVERS = [
    (SymPackSolver, SolverOptions),
    (FanInSolver, FanInOptions),
    (FanBothSolver, FanBothOptions),
    (MultifrontalSolver, MultifrontalOptions),
]


class TestLiveReturnsToZero:
    @pytest.mark.parametrize("solver_cls,options_cls", SOLVERS,
                             ids=[c.__name__ for c, _ in SOLVERS])
    def test_factorize_solve_close(self, solver_cls, options_cls):
        a = spd()
        solver = solver_cls(a, options_cls(nranks=2))
        solver.factorize()
        rhs = np.linspace(-1.0, 1.0, a.n).reshape(a.n, 1)
        x, _ = solver.solve(rhs)
        ledger = solver.session.ledger
        assert ledger.live() > 0          # factors + rhs are charged
        solver.close()
        assert ledger.live() == 0
        assert ledger.peak() > 0          # watermarks survive reclamation

    def test_close_is_idempotent_and_final(self):
        a = spd()
        solver = SymPackSolver(a, SolverOptions(nranks=2))
        solver.factorize()
        solver.close()
        solver.close()
        with pytest.raises(RuntimeError):
            solver.factorize()
        with pytest.raises(RuntimeError):
            solver.solve(np.ones(a.n))


class TestRefactorizeBaseline:
    @pytest.mark.parametrize("solver_cls,options_cls", SOLVERS,
                             ids=[c.__name__ for c, _ in SOLVERS])
    def test_live_bytes_stable_across_replays(self, solver_cls, options_cls):
        # Repeated factorizations reuse the one resident workspace, so
        # live bytes after replay k equal live bytes after the first
        # (simulated) run — no grow-only scratch.
        a = spd()
        solver = solver_cls(a, options_cls(nranks=2))
        solver.factorize()
        baseline = solver.session.ledger.live()
        for _ in range(3):
            solver.factorize()
            assert solver.session.ledger.live() == baseline
        solver.close()
        assert solver.session.ledger.live() == 0

    def test_replay_is_bit_identical(self):
        a = spd()
        rhs = np.linspace(-1.0, 1.0, a.n).reshape(a.n, 1)
        solver = SymPackSolver(a, SolverOptions(nranks=2))
        solver.factorize()
        x1, _ = solver.solve(rhs)
        solver.factorize()
        x2, _ = solver.solve(rhs)
        assert np.array_equal(x1, x2)


class TestSnapshotsFlow:
    def test_factorize_info_carries_in_run_snapshot(self):
        a = spd()
        solver = SymPackSolver(a, SolverOptions(nranks=2))
        fact = solver.factorize()
        assert fact.mem.accounts                   # non-empty snapshot
        assert fact.mem.live_label("factor") > 0   # factors live in-run
        assert fact.mem.peak("host") > 0

    def test_trace_watermarks_match_ledger(self):
        a = spd()
        solver = SymPackSolver(a, SolverOptions(nranks=2))
        solver.factorize()
        live, peak = solver.trace.memory_watermarks()
        snap = solver.session.ledger.snapshot()
        for acct in snap.accounts:
            key = (acct.rank, acct.space)
            assert peak.get(key, 0) == acct.peak
        solver.close()

    def test_shared_ledger_injection(self):
        # A caller-owned ledger observes everything the solver allocates.
        from repro.memory import MemoryLedger

        ledger = MemoryLedger()
        a = spd()
        solver = SymPackSolver(a, SolverOptions(nranks=2), ledger=ledger)
        solver.factorize()
        assert ledger.live_label("factor") > 0
        solver.close()
        assert ledger.live() == 0
