"""A failed refactorization must not poison its factor-cache entry.

good -> bad (a typed failure) -> good: the third request refactorizes
(tier ``refactor``) instead of solving with no factor, answers with a
fresh solver's bits, and closing the service drains the ledger.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import ServiceConfig, SolveService, SolverOptions, SymPackSolver
from repro.sparse import NotPositiveDefiniteError, SymmetricCSC, grid_laplacian_2d
from repro.variants import MultifrontalOptions, MultifrontalSolver


def _indefinite(a: SymmetricCSC) -> SymmetricCSC:
    """Same pattern, positive diagonal, but not positive definite."""
    full = a.lower + a.lower.T - sp.diags(a.lower.diagonal())
    diag = sp.diags(full.diagonal())
    return SymmetricCSC.from_any(diag + 3.0 * (full - diag))


@pytest.mark.parametrize("plan_mode", ["off", "on"])
@pytest.mark.parametrize("solver_cls,options_cls", [
    (SymPackSolver, SolverOptions),
    (MultifrontalSolver, MultifrontalOptions)],
    ids=["SymPackSolver", "MultifrontalSolver"])
def test_good_bad_good_refactorizes(solver_cls, options_cls, plan_mode):
    a = grid_laplacian_2d(8, 8)
    b = np.linspace(-1.0, 1.0, a.n)
    options = options_cls(nranks=2, plan_mode=plan_mode)
    with SolveService(options, ServiceConfig(workers=1),
                      solver_cls=solver_cls) as svc:
        _, s1 = svc.solve(a, b)
        with pytest.raises(NotPositiveDefiniteError):
            svc.solve(_indefinite(a), b)
        x, s3 = svc.solve(a, b)
        _, s4 = svc.solve(a, b)
    assert (s1.tier, s3.tier, s4.tier) == ("cold", "refactor", "factor")
    assert svc.counters().tiers.get("failed") == 1
    svc.close()
    assert svc.ledger.live() == 0

    fresh = solver_cls(a, options)
    fresh.factorize()
    x_ref, _ = fresh.solve(b)
    fresh.close()
    assert np.array_equal(x, x_ref)
