"""One workspace per execution context.

Every buffer a kernel touches is a view of its context's workspace, laid
out when the graph is built: the context takes it from the pool once,
zero-fills it on every run and gives it back on close.  So nothing a
kernel holds can outlive a run — a run that fails half-way strands no
buffer — and a multifrontal solver keeps one front region plus packed
update matrices resident instead of a cache of every buffer shape it
ever used.  The solver likewise keeps one rhs buffer for every width.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.baselines.pastix_like import PastixLikeSolver, PastixOptions
from repro.core.solver import SolverOptions, SymPackSolver
from repro.memory import check_slots, pack_slots
from repro.variants import multifrontal
from repro.sparse import (NotPositiveDefiniteError, SymmetricCSC,
                          grid_laplacian_2d)
from repro.variants import (
    FanBothOptions,
    FanBothSolver,
    FanInOptions,
    FanInSolver,
    MultifrontalOptions,
    MultifrontalSolver,
)

FAMILIES = [
    (SymPackSolver, SolverOptions),
    (FanInSolver, FanInOptions),
    (FanBothSolver, FanBothOptions),
    (MultifrontalSolver, MultifrontalOptions),
    (PastixLikeSolver, PastixOptions),
]
IDS = [cls.__name__ for cls, _ in FAMILIES]


def _full(a: SymmetricCSC) -> sp.csc_matrix:
    return a.lower + a.lower.T - sp.diags(a.lower.diagonal())


def _shifted(a: SymmetricCSC, shift: float) -> SymmetricCSC:
    return SymmetricCSC.from_any(
        _full(a) + shift * sp.identity(a.n, format="csc"))


def _indefinite(a: SymmetricCSC) -> SymmetricCSC:
    """Same pattern, positive diagonal, but not positive definite."""
    full = _full(a)
    diag = sp.diags(full.diagonal())
    return SymmetricCSC.from_any(diag + 3.0 * (full - diag))


def _workspace_bytes(solver) -> int:
    ctx = solver._factor_ctx
    return 0 if ctx.workspace is None else ctx.workspace.nbytes


class TestLayout:
    # A forest of tasks, children before parents:
    #   0, 1 -> 2;  2, 3 -> 4;  4 -> 5.
    PARENT = [2, 2, 4, 4, 5, -1]

    def test_overlap_of_lives_that_can_meet_raises(self):
        # Siblings 0 and 1 are both live while their parent 2 runs.
        with pytest.raises(ValueError, match="overlap"):
            check_slots([0, 8], [16, 16], [0, 1], [2, 2], self.PARENT)
        # Nested (not just shifted) ranges are caught too: 3's update and
        # 0's meet, as 3 may run before or after 0 and 2.
        with pytest.raises(ValueError, match="slots 0 .* and 1"):
            check_slots([0, 4, 100], [16, 2, 3], [0, 3, 2], [2, 4, 4],
                        self.PARENT)

    def test_overlap_of_lives_that_cannot_meet_allowed(self):
        # 0's update is read by 2 before 2 writes its own, and 2's is
        # read by 4 before 4 writes its own.
        check_slots([0, 8, 0], [16, 16, 4], [0, 2, 4], [2, 4, 5],
                    self.PARENT)
        check_slots([0, 16], [16, 16], [0, 1], [2, 2], self.PARENT)

    def test_packing_shares_bytes_only_between_lives_that_cannot_meet(self):
        sizes = [9, 16, 4, 25, 4]
        writers, readers = [0, 1, 2, 3, 4], [2, 2, 4, 4, 5]
        offsets, total = pack_slots(sizes, writers, readers, self.PARENT)
        check_slots(offsets, sizes, writers, readers, self.PARENT)
        assert total == int((offsets + np.asarray(sizes)).max())
        assert total < sum(sizes)
        # Largest first, at the lowest fitting offset: 3 and 1 can both be
        # live first; 4 reuses their bytes once 4 has read 2 and 3.
        assert offsets[3] == 0 and offsets[1] == 25 and offsets[4] == 0

    def test_empty_layout(self):
        offsets, total = pack_slots([], [], [], [])
        assert offsets.size == 0 and total == 0

    def test_multifrontal_updates_share_bytes(self):
        a = grid_laplacian_2d(16, 16)
        solver = MultifrontalSolver(a, MultifrontalOptions(nranks=2))
        solver.factorize()
        ctx = solver._factor_ctx
        front_size = ctx.slots["front"][1][0]
        updates = {k: v for k, v in ctx.slots.items() if k != "front"}
        update_sum = sum(m * m for _off, (m, _) in updates.values())
        assert ctx.size < front_size + update_sum
        assert all(off >= front_size for off, _ in updates.values())
        solver.close()


    def test_wave_verifier_checks_the_layout(self, monkeypatch):
        """Update slots are byte ranges of the workspace, so a layout
        that puts every update at one offset is a wave conflict."""
        a = grid_laplacian_2d(9, 9)

        def findings():
            solver = MultifrontalSolver(
                a, MultifrontalOptions(nranks=1, check_waves=True))
            solver.factorize()
            solver.close()
            return {f.rule for f in solver.session.wave_findings}

        assert findings() == set()
        monkeypatch.setattr(
            multifrontal, "pack_slots",
            lambda sizes, *_: (np.zeros(len(sizes), np.int64), max(sizes)))
        assert "WAVE001" in findings()


@pytest.mark.parametrize("plan_mode", ["off", "on"])
@pytest.mark.parametrize("solver_cls,options_cls", FAMILIES, ids=IDS)
def test_failed_refactorization_recovers(solver_cls, options_cls, plan_mode):
    """A refactorization that fails half-way strands nothing: the next
    one is bit-equal to a fresh solver's, and close() drains the ledger."""
    a = grid_laplacian_2d(8, 8)
    good = _shifted(a, 0.5)
    b = np.linspace(-1.0, 1.0, a.n)
    solver = solver_cls(a, options_cls(nranks=2, plan_mode=plan_mode))
    solver.factorize()
    solver.factorize()                      # a replay
    solver.update_values(_indefinite(a))
    with pytest.raises(NotPositiveDefiniteError):
        solver.factorize()
    with pytest.raises(RuntimeError, match="factorize"):
        solver.solve(b)
    solver.update_values(good)
    solver.factorize()
    x, _ = solver.solve(b)

    fresh = solver_cls(good, options_cls(nranks=2, plan_mode=plan_mode))
    fresh.factorize()
    x_ref, _ = fresh.solve(b)
    assert np.array_equal(solver.factor_sparse().data,
                          fresh.factor_sparse().data)
    assert np.array_equal(x, x_ref)
    fresh.close()
    solver.close()
    assert solver.session.ledger.live() == 0


def test_multifrontal_resident_bytes():
    """After a first run and three replays a multifrontal solver holds
    its factor and one workspace, nothing else."""
    a = grid_laplacian_2d(32, 32)
    solver = MultifrontalSolver(a, MultifrontalOptions(nranks=2))
    solver.factorize()
    for i in range(3):
        solver.update_values(_shifted(a, 0.1 * (i + 1)))
        solver.factorize()
    ledger = solver.session.ledger
    assert ledger.live() <= (ledger.live_label("factor")
                             + _workspace_bytes(solver))
    assert ledger.live() <= 300_000
    assert ledger.peak() <= 300_000
    solver.close()
    assert ledger.live() == 0


@pytest.mark.parametrize("plan_mode", ["off", "on"])
@pytest.mark.parametrize("solver_cls,options_cls", FAMILIES, ids=IDS)
def test_one_rhs_buffer_for_every_width(solver_cls, options_cls, plan_mode):
    """Widths 1, 3, 8, 2 leave one (8, n) rhs buffer resident, and every
    column solves to its solo solve's bits."""
    a = grid_laplacian_2d(8, 8)
    solver = solver_cls(a, options_cls(nranks=2, plan_mode=plan_mode))
    solver.factorize()
    rng = np.random.default_rng(0)
    blocks = {w: rng.standard_normal((a.n, w)) for w in (1, 3, 8, 2)}
    xs = {w: solver.solve(b)[0] for w, b in blocks.items()}
    ledger = solver.session.ledger
    assert ledger.live_label("rhs") == 8 * a.n * 8
    assert ledger.live() == (ledger.live_label("factor")
                             + _workspace_bytes(solver) + 8 * a.n * 8)
    assert len(solver._solve_plans) == 4
    for w, b in blocks.items():
        for c in range(w):
            solo, _ = solver.solve(b[:, c])
            assert np.array_equal(xs[w][:, c], solo)
    assert ledger.live_label("rhs") == 8 * a.n * 8
    solver.close()
    assert ledger.live() == 0
