"""Unit tests for task graph structures."""

import pytest

from repro.core import OutMessage, TaskGraph, TaskKind


def add_task(g, rank=0, **kw):
    defaults = dict(kind=TaskKind.DIAG, rank=rank, op="POTRF", flops=1.0,
                    buffer_elems=1, operand_bytes=8)
    defaults.update(kw)
    return g.new_task(**defaults)


class TestTaskGraph:
    def test_ids_dense(self):
        g = TaskGraph()
        tasks = [add_task(g) for _ in range(5)]
        assert [t.tid for t in tasks] == [0, 1, 2, 3, 4]

    def test_local_dependency_counts(self):
        g = TaskGraph()
        a, b = add_task(g), add_task(g)
        g.add_dependency(a, b)
        assert b.deps == 1
        assert b.tid in a.local_consumers

    def test_cross_rank_local_edge_rejected(self):
        g = TaskGraph()
        a, b = add_task(g, rank=0), add_task(g, rank=1)
        with pytest.raises(ValueError, match="local"):
            g.add_dependency(a, b)

    def test_roots(self):
        g = TaskGraph()
        a, b, c = (add_task(g) for _ in range(3))
        g.add_dependency(a, b)
        assert {t.tid for t in g.roots()} == {a.tid, c.tid}

    def test_validate_accepts_consistent(self):
        g = TaskGraph()
        a = add_task(g, rank=0)
        b = add_task(g, rank=1)
        a.messages.append(OutMessage(dst_rank=1, nbytes=8,
                                     consumers=[b.tid]))
        b.deps += 1
        g.levelize()

    def test_validate_rejects_wrong_count(self):
        g = TaskGraph()
        a, b = add_task(g), add_task(g)
        a.local_consumers.append(b.tid)  # edge without counting deps
        with pytest.raises(ValueError, match="incoming"):
            g.levelize()

    def test_validate_rejects_misrouted_message(self):
        g = TaskGraph()
        a = add_task(g, rank=0)
        b = add_task(g, rank=1)
        a.messages.append(OutMessage(dst_rank=0, nbytes=8,
                                     consumers=[b.tid]))
        b.deps += 1
        with pytest.raises(ValueError, match="not on rank"):
            g.levelize()


class TestLevelization:
    def test_stream_in_level_tid_order(self):
        """The stream sorts by (level, tid), not by build index alone."""
        g = TaskGraph()
        t0, t1, t2 = (add_task(g) for _ in range(3))
        g.add_dependency(t1, t2)
        g.add_dependency(t1, t0)  # an edge to a lower tid
        assert g.levels.tolist() == [1, 0, 1]
        assert [(c, w) for c, w in g.stream] == [
            (t1.kernel, 0), (t0.kernel, 1), (t2.kernel, 1)]
        assert all(c is t.kernel
                   for (c, _w), t in zip(g.stream, (t1, t0, t2)))

    def test_level_is_longest_path_from_a_root(self):
        g = TaskGraph()
        a, b, c, d = (add_task(g) for _ in range(4))
        g.add_dependency(a, d)  # short path a -> d
        g.add_dependency(a, b)
        g.add_dependency(b, c)
        g.add_dependency(c, d)  # long path a -> b -> c -> d
        assert g.levels.tolist() == [0, 1, 2, 3]
        lev = g.levelize()
        assert lev.prefix(-1) == 0 and lev.prefix(1) == 2
        assert lev.prefix(3) == 4

    def test_remote_edges_count(self):
        g = TaskGraph()
        a, b = add_task(g, rank=0), add_task(g, rank=1)
        a.messages.append(OutMessage(dst_rank=1, nbytes=8,
                                     consumers=[b.tid]))
        b.deps += 1
        assert g.levels.tolist() == [0, 1]

    def test_cached_until_the_graph_grows(self):
        g = TaskGraph()
        a, b = add_task(g), add_task(g)
        first = g.levelize()
        assert g.levelize() is first
        g.add_dependency(a, b)
        second = g.levelize()
        assert second is not first and second.levels.tolist() == [0, 1]
        add_task(g)
        assert g.levels.tolist() == [0, 1, 0]

    def test_validate_rejects_cycle(self):
        g = TaskGraph()
        a, b = add_task(g), add_task(g)
        g.add_dependency(a, b)
        g.add_dependency(b, a)
        with pytest.raises(ValueError, match="cycle"):
            g.levelize()

    def test_validate_rejects_unknown_consumer(self):
        g = TaskGraph()
        a = add_task(g)
        a.local_consumers.append(5)
        with pytest.raises(ValueError, match="consumer id"):
            g.levelize()

    def test_empty_graph(self):
        g = TaskGraph()
        assert g.stream == [] and g.levels.size == 0
