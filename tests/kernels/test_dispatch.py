"""Unit tests for declarative kernel dispatch and the batching executor."""

import numpy as np
import pytest

from repro.core import CPU_ONLY, FactorStorage, build_factor_graph, make_map
from repro.kernels import dense as kd
from repro.kernels.dispatch import (
    KERNEL_OPS,
    ExecContext,
    KernelCall,
    KernelExecutor,
    flat_index,
)
from repro.sparse import random_spd
from repro.symbolic import analyze


class TestKernelCall:
    def test_frozen(self):
        call = KernelCall("potrf_diag", (3,))
        with pytest.raises(AttributeError):
            call.op = "other"

    def test_default_args_empty(self):
        assert KernelCall("noop").args == ()

    def test_all_ops_have_handlers(self):
        graph_ops = {"noop", "potrf_diag", "trsm_block", "panel_factor",
                     "syrk_sub", "gemm_sub", "multi_update", "apply_panel",
                     "axpy_sub", "frontal", "trsv", "gemv_fwd", "gemv_bwd"}
        assert graph_ops == set(KERNEL_OPS)


class TestExecContext:
    def test_reserved_slot_is_a_workspace_view(self):
        ctx = ExecContext()
        ctx.reserve(("agg", 0, 1), (2, 3))
        ctx.reserve(("agg", 0, 1), (2, 3))  # same shape: a no-op
        ctx.reserve(("agg", 1, 1), (4,))
        assert ctx.slots == {("agg", 0, 1): (0, (2, 3)),
                             ("agg", 1, 1): (6, (4,))}
        ctx.fresh_run()
        a = ctx.resolve(("scratch", ("agg", 0, 1)))
        assert a.shape == (2, 3) and not a.any()
        assert a.base is ctx.workspace and ctx.workspace.shape == (10,)
        assert ctx.resolve(("scratch", ("agg", 1, 1))).base is ctx.workspace

    def test_fresh_run_zeroes_scratch_in_place(self):
        ctx = ExecContext()
        ctx.reserve("k", (2, 2))
        ctx.fresh_run()
        a = ctx.resolve(("scratch", "k"))
        workspace = ctx.workspace
        a[:] = 7.0
        takes = ctx.pool.takes
        ctx.fresh_run()
        assert not a.any()
        assert ctx.workspace is workspace  # taken once, zeroed in place
        assert ctx.resolve(("scratch", "k")) is a
        assert ctx.pool.takes == takes

    def test_close_gives_the_workspace_back(self):
        ctx = ExecContext()
        ctx.reserve("k", (3, 3))
        ctx.fresh_run()
        assert ctx.pool.ledger.live_label("workspace") == 72
        ctx.close()
        ctx.close()  # idempotent
        assert ctx.workspace is None
        assert ctx.pool.ledger.live() == 0
        with pytest.raises(KeyError):
            ctx.resolve(("scratch", "k"))

    def test_reserve_after_first_run_raises(self):
        ctx = ExecContext()
        ctx.reserve("k", (2,))
        ctx.fresh_run()
        with pytest.raises(RuntimeError, match="before the graph"):
            ctx.reserve("late", (2,))

    def test_empty_workspace_takes_nothing(self):
        ctx = ExecContext()
        ctx.fresh_run()
        assert ctx.workspace is None and ctx.pool is None

    def test_resolve_rhs_and_scratch(self):
        rhs = np.zeros((4, 1))
        ctx = ExecContext(rhs=rhs)
        assert ctx.resolve(("rhs",)) is rhs
        ctx.reserve("k", (1, 1))
        ctx.fresh_run()
        arr = ctx.resolve(("scratch", "k"))
        assert arr.shape == (1, 1) and arr.base is ctx.workspace

    def test_resolve_unknown_ref_raises(self):
        with pytest.raises(KeyError):
            ExecContext().resolve(("nope", 0))


def _sub_calls(seed=0, n_targets=3, calls_per=4, shape=(4, 4)):
    """A pile of gemm_sub calls scattering into workspace slot targets."""
    rng = np.random.default_rng(seed)
    ctx = ExecContext()
    calls = []
    flat = flat_index(np.arange(shape[0]), np.arange(shape[1]), shape[1])
    for t in range(n_targets):
        ctx.reserve(("tgt", t), shape)
        for c in range(calls_per):
            ctx.reserve(("a", t, c), shape)
            ctx.reserve(("b", t, c), shape)
            calls.append(KernelCall("gemm_sub", (
                ("scratch", ("tgt", t)), ("scratch", ("a", t, c)),
                ("scratch", ("b", t, c)), flat, -1.0)))
    ctx.fresh_run()
    for t in range(n_targets):
        for c in range(calls_per):
            for name in ("a", "b"):
                ctx.resolve(("scratch", (name, t, c)))[:] = \
                    rng.standard_normal(shape)
    return ctx, calls


class TestKernelExecutor:
    def test_flush_matches_eager_execution(self):
        ctx_b, calls = _sub_calls(seed=9)
        ex = KernelExecutor(ctx_b)
        ex.execute_stream([(c, 0) for c in calls])
        ctx_e, _ = _sub_calls(seed=9)  # identical inputs, eager path
        for c in calls:
            KERNEL_OPS[c.op](ctx_e, *c.args)
        for t in range(3):
            assert np.array_equal(ctx_b.resolve(("scratch", ("tgt", t))),
                                  ctx_e.resolve(("scratch", ("tgt", t))))

    def test_consecutive_same_op_calls_stacked(self):
        ctx, calls = _sub_calls(seed=1)
        ex = KernelExecutor(ctx)
        ex.execute_stream([(c, 0) for c in calls])
        assert ex.stats.calls == len(calls)
        assert ex.stats.batches == 1  # one maximal run of gemm_sub
        assert ex.stats.stacked == len(calls)

    def test_mixed_ops_split_batches(self):
        ctx, calls = _sub_calls(seed=2, n_targets=1, calls_per=2)
        ex = KernelExecutor(ctx)
        ex.execute_stream([(calls[0], 0), (KernelCall("noop"), 0),
                           (calls[1], 0)])
        assert ex.stats.batches == 3
        assert ex.stats.stacked == 0  # no run longer than one call

    def test_hook_sees_submitted_next_to_executed(self):
        seen = []
        ex = KernelExecutor(ExecContext(), flush_hook=lambda _ex, sub, run:
                            seen.append((sub, run)))
        calls = [KernelCall("noop") for _ in range(2)]
        stream = [(calls[0], 0), (calls[1], 1)]
        ex.execute_stream(stream, submitted=stream[::-1])
        ex.execute_stream(stream)  # a plan replay: one stream for both
        assert seen[0] == (stream[::-1], stream)
        assert seen[1] == (stream, stream)
        assert ex.stats.calls == 4

    def test_empty_stream_runs_nothing(self):
        seen = []
        ex = KernelExecutor(ExecContext(), flush_hook=lambda *args:
                            seen.append(args))
        ex.execute_stream([])
        assert ex.stats.calls == 0 and ex.stats.batches == 0
        assert not seen

    def test_graph_carries_no_closures(self):
        """Every task of a built factor graph is a declarative KernelCall."""
        a = random_spd(25, density=0.2, seed=5)
        an = analyze(a)
        st = FactorStorage(an)
        g = build_factor_graph(an, st, make_map(2), CPU_ONLY)
        for t in g.tasks:
            assert isinstance(t.kernel, KernelCall)
            assert t.kernel.op in KERNEL_OPS
            assert not callable(getattr(t, "run", None))

    def test_batched_factorization_matches_scipy(self, rng):
        """Deferred batched execution is numerically exact, not approximate."""
        a = random_spd(30, density=0.2, seed=8)
        an = analyze(a)
        st = FactorStorage(an)
        g = build_factor_graph(an, st, make_map(1), CPU_ONLY)
        KernelExecutor(g.context).execute_stream(g.stream)
        l = np.tril(st.to_sparse_factor().toarray())
        expected = np.linalg.cholesky(an.a_perm.to_dense())
        assert np.allclose(l, expected, atol=1e-10)


class TestHandlers:
    def test_potrf_and_trsm_handlers(self):
        an = analyze(random_spd(20, density=0.3, seed=2))
        st = FactorStorage(an)
        ctx = ExecContext(storage=st)
        diag0 = st.diag_block(0).copy()
        KERNEL_OPS["potrf_diag"](ctx, 0)
        assert np.allclose(st.diag_block(0), np.tril(kd.potrf(diag0)))

    def test_trsv_forward_backward_roundtrip(self, rng):
        an = analyze(random_spd(20, density=0.3, seed=2))
        st = FactorStorage(an)
        ctx = ExecContext(storage=st)
        KERNEL_OPS["potrf_diag"](ctx, 0)
        part = an.supernodes
        fc, lc = part.first_col(0), part.last_col(0)
        w = lc - fc + 1
        rhs = rng.standard_normal((an.n, 1))
        orig = rhs[fc:lc + 1].copy()
        ctx2 = ExecContext(storage=st, rhs=rhs)
        KERNEL_OPS["trsv"](ctx2, 0, fc, lc, True)
        l = st.diag_block(0)
        assert np.allclose(np.tril(l) @ rhs[fc:lc + 1], orig, atol=1e-12)
        assert w >= 1
