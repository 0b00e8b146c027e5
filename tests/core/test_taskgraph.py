"""Unit tests for the fan-out factorization task graph (paper Fig. 2)."""

import numpy as np
import pytest

from repro.core import (
    CPU_ONLY,
    FactorStorage,
    TaskKind,
    build_factor_graph,
    make_map,
)
from repro.kernels.dispatch import KERNEL_OPS
from repro.sparse import random_spd
from repro.symbolic import analyze


def graph_for(a, nranks=4):
    an = analyze(a)
    st = FactorStorage(an)
    g = build_factor_graph(an, st, make_map(nranks), CPU_ONLY)
    return an, st, g


class TestStructure:
    def test_task_counts(self, lap2d):
        an, _, g = graph_for(lap2d)
        kinds = [t.kind for t in g.tasks]
        assert kinds.count(TaskKind.DIAG) == an.nsup
        n_blocks = sum(len(b) for b in an.blocks.blocks)
        assert kinds.count(TaskKind.FACTOR) == n_blocks
        # One U per ordered pair (bi >= bj) per supernode.
        expected_u = sum(len(b) * (len(b) + 1) // 2
                         for b in an.blocks.blocks)
        assert kinds.count(TaskKind.UPDATE) == expected_u

    def test_validates(self, corner_case):
        _, _, g = graph_for(corner_case)
        g.levelize()

    def test_update_tasks_local_to_target(self, lap2d):
        """U -> F/D edges never cross ranks (fan-out defining property)."""
        an, _, g = graph_for(lap2d, nranks=6)
        for t in g.tasks:
            if t.kind == TaskKind.UPDATE:
                for c in t.local_consumers:
                    assert g.tasks[c].rank == t.rank
                # An update task never *sends* messages.
                assert not t.messages

    def test_ownership_follows_map(self, lap2d):
        an, _, g = graph_for(lap2d, nranks=4)
        pmap = make_map(4)
        for t in g.tasks:
            if t.kind == TaskKind.DIAG:
                s = int(t.label[2:-1])
                assert t.rank == pmap(s, s)

    def test_message_coalescing_one_per_rank(self, corner_case):
        """A factorized block is sent at most once per destination rank."""
        _, _, g = graph_for(corner_case, nranks=3)
        for t in g.tasks:
            dsts = [m.dst_rank for m in t.messages]
            assert len(dsts) == len(set(dsts))
            for m in t.messages:
                assert m.dst_rank != t.rank

    def test_single_rank_no_messages(self, lap2d):
        _, _, g = graph_for(lap2d, nranks=1)
        assert all(not t.messages for t in g.tasks)

    def test_acyclic(self, lap2d):
        """Kahn's algorithm consumes every task (no cycles)."""
        _, _, g = graph_for(lap2d, nranks=4)
        indeg = [t.deps for t in g.tasks]
        consumers = {t.tid: list(t.local_consumers) for t in g.tasks}
        for t in g.tasks:
            for m in t.messages:
                consumers[t.tid].extend(m.consumers)
        ready = [t.tid for t in g.tasks if indeg[t.tid] == 0]
        seen = 0
        while ready:
            tid = ready.pop()
            seen += 1
            for c in consumers[tid]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        assert seen == len(g.tasks)


class TestSequentialExecution:
    """Executing the graph in any topological order yields the true L."""

    @pytest.mark.parametrize("seed", range(3))
    def test_topological_run_matches_scipy(self, seed):
        a = random_spd(30, density=0.15, seed=seed)
        an, st, g = graph_for(a, nranks=2)
        indeg = [t.deps for t in g.tasks]
        consumers = {t.tid: list(t.local_consumers) for t in g.tasks}
        for t in g.tasks:
            for m in t.messages:
                consumers[t.tid].extend(m.consumers)
        ready = [t.tid for t in g.tasks if indeg[t.tid] == 0]
        while ready:
            tid = ready.pop(0)
            call = g.tasks[tid].kernel
            KERNEL_OPS[call.op](g.context, *call.args)
            for c in consumers[tid]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        l = st.to_sparse_factor().toarray()
        expected = np.linalg.cholesky(an.a_perm.to_dense())
        assert np.allclose(np.tril(l), expected, atol=1e-10)

    def test_flops_totals_match_symbolic_estimate(self, lap2d):
        an, _, g = graph_for(lap2d)
        total = sum(t.flops for t in g.tasks)
        est = an.factor_flops()
        # Supernodal flops are within a small factor of the column-count
        # estimate (amalgamation adds some, blocking changes constants).
        assert 0.2 * est < total < 5 * est
