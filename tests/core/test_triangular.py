"""Unit tests for the distributed triangular-solve task graphs."""

import numpy as np
import pytest

from repro.core import (
    CPU_ONLY,
    FactorStorage,
    FanOutEngine,
    TaskKind,
    build_backward_graph,
    build_factor_graph,
    build_forward_graph,
    make_map,
)
from repro.machine import perlmutter
from repro.pgas import World
from repro.sparse import random_spd
from repro.symbolic import analyze


@pytest.fixture
def factored(lap2d):
    an = analyze(lap2d)
    st = FactorStorage(an)
    pmap = make_map(4)
    world = World(4, perlmutter(), ranks_per_node=4)
    engine = FanOutEngine(world, build_factor_graph(an, st, pmap, CPU_ONLY),
                          CPU_ONLY)
    engine.run()
    return an, st, pmap


def run_graph(graph, nranks=4):
    world = World(nranks, perlmutter(), ranks_per_node=min(4, nranks))
    engine = FanOutEngine(world, graph, CPU_ONLY)
    return engine.run()


class TestForward:
    def test_forward_solves_l(self, factored, rng):
        an, st, pmap = factored
        l = np.tril(st.to_sparse_factor().toarray())
        b = rng.standard_normal((an.n, 1))
        rhs = b.copy()
        run_graph(build_forward_graph(an, st, pmap, rhs))
        assert np.allclose(l @ rhs, b, atol=1e-10)

    def test_forward_task_kinds(self, factored, rng):
        an, st, pmap = factored
        g = build_forward_graph(an, st, pmap, rng.standard_normal((an.n, 1)))
        kinds = {t.kind for t in g.tasks}
        assert kinds <= {TaskKind.FWD, TaskKind.FUP}
        assert sum(1 for t in g.tasks if t.kind == TaskKind.FWD) == an.nsup


class TestBackward:
    def test_backward_solves_lt(self, factored, rng):
        an, st, pmap = factored
        l = np.tril(st.to_sparse_factor().toarray())
        y = rng.standard_normal((an.n, 1))
        rhs = y.copy()
        run_graph(build_backward_graph(an, st, pmap, rhs))
        assert np.allclose(l.T @ rhs, y, atol=1e-10)


class TestCombined:
    @pytest.mark.parametrize("nranks", [1, 2, 5, 8])
    def test_full_solve_any_ranks(self, nranks, rng):
        a = random_spd(40, density=0.12, seed=3)
        an = analyze(a)
        st = FactorStorage(an)
        pmap = make_map(nranks)
        run_graph(build_factor_graph(an, st, pmap, CPU_ONLY), nranks)
        b = rng.standard_normal((a.n, 2))
        rhs = b[an.perm.perm].copy()
        run_graph(build_forward_graph(an, st, pmap, rhs), nranks)
        run_graph(build_backward_graph(an, st, pmap, rhs), nranks)
        x = rhs[an.perm.iperm]
        assert np.linalg.norm(a.full() @ x - b) < 1e-8

    def test_graphs_validate(self, factored, rng):
        an, st, pmap = factored
        rhs = rng.standard_normal((an.n, 1))
        build_forward_graph(an, st, pmap, rhs).levelize()
        build_backward_graph(an, st, pmap, rhs).levelize()

    def test_message_coalescing_forward(self, factored, rng):
        """FWD_s's solution piece is sent at most once per rank."""
        an, st, pmap = factored
        g = build_forward_graph(an, st, pmap, rng.standard_normal((an.n, 1)))
        for t in g.tasks:
            if t.kind == TaskKind.FWD:
                seen = {}
                for m in t.messages:
                    key = (m.dst_rank, m.nbytes)
                    assert key not in seen
                    seen[key] = True
