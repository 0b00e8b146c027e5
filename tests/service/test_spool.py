"""Round-trip tests of the file-spool front-end behind serve/submit."""

import json
import time

import numpy as np
import pytest

from repro import ServiceConfig, SolveService, SolverOptions
from repro.service import SpoolServer, submit_request, wait_result
from repro.sparse import grid_laplacian_2d, write_matrix_market


@pytest.fixture
def matrix_file(tmp_path):
    a = grid_laplacian_2d(6, 6)
    path = tmp_path / "grid.mtx"
    write_matrix_market(path, a)
    return a, path


def _server(tmp_path):
    svc = SolveService(SolverOptions(nranks=1),
                       ServiceConfig(workers=1, queue_depth=8))
    svc.start()
    return svc, SpoolServer(svc, tmp_path / "spool")


def test_round_trip_seeded_rhs(tmp_path, matrix_file):
    a, path = matrix_file
    svc, server = _server(tmp_path)
    try:
        rid = submit_request(server.spool, path, nrhs=1, seed=7)
        assert server.run(once=True) == 1
        result = wait_result(server.spool, rid, timeout=5.0)
    finally:
        svc.stop()
    assert result["ok"] is True
    assert result["tier"] == "cold"
    assert result["residual"] < 1e-10
    x = np.load(result["x_file"])
    rng = np.random.default_rng(7)
    b = rng.standard_normal((a.n, 1))
    assert np.linalg.norm(a.full() @ x - b) / np.linalg.norm(b) < 1e-10


def test_repeat_requests_hit_the_factor_cache(tmp_path, matrix_file):
    _, path = matrix_file
    svc, server = _server(tmp_path)
    try:
        rids = [submit_request(server.spool, path, seed=s) for s in range(3)]
        server.run(max_requests=3)
        tiers = [wait_result(server.spool, rid, timeout=5.0)["tier"]
                 for rid in rids]
    finally:
        svc.stop()
    assert sorted(tiers) == ["cold", "factor", "factor"]
    assert svc.counters().symbolic_builds == 1


def test_one_drain_queues_and_coalesces(tmp_path, matrix_file):
    """Requests present in one drain are all queued before any result is
    awaited, so same-factor solves ride one stacked run."""
    _, path = matrix_file
    svc, server = _server(tmp_path)
    orig = svc._materialize
    calls = []

    def gated(req):
        calls.append(req.request_id)
        deadline = time.monotonic() + 10.0
        while len(svc._queue) < 2 and time.monotonic() < deadline:
            time.sleep(0.005)       # hold the leader until both followers queue
        return orig(req)

    svc._materialize = gated
    try:
        rids = [submit_request(server.spool, path, seed=s) for s in range(3)]
        assert server.run(once=True) == 3
        results = [wait_result(server.spool, rid, timeout=5.0) for rid in rids]
    finally:
        svc.stop()
    assert len(calls) == 1 and svc.counters().solve_runs == 1
    assert [r["coalesced_width"] for r in results] == [3, 3, 3]
    assert sorted(r["tier"] for r in results) == ["cold", "factor", "factor"]


def test_explicit_rhs_file(tmp_path, matrix_file):
    a, path = matrix_file
    rhs = np.arange(a.n, dtype=np.float64)
    rhs_file = tmp_path / "b.npy"
    np.save(rhs_file, rhs)
    svc, server = _server(tmp_path)
    try:
        rid = submit_request(server.spool, path, rhs_file=rhs_file)
        server.run(once=True)
        result = wait_result(server.spool, rid, timeout=5.0)
    finally:
        svc.stop()
    x = np.load(result["x_file"]).ravel()
    assert np.linalg.norm(a.full() @ x - rhs) / np.linalg.norm(rhs) < 1e-10


def test_bad_request_reports_error(tmp_path):
    svc, server = _server(tmp_path)
    try:
        rid = submit_request(server.spool, tmp_path / "missing.mtx")
        server.run(once=True)
        result = wait_result(server.spool, rid, timeout=5.0)
    finally:
        svc.stop()
    assert result["ok"] is False
    assert "error" in result


def test_rhs_of_wrong_height_is_answered_as_request_error(tmp_path,
                                                          matrix_file):
    a, path = matrix_file
    np.save(tmp_path / "short.npy", np.ones(a.n - 1))
    svc, server = _server(tmp_path)
    try:
        bad = submit_request(server.spool, path,
                             rhs_file=tmp_path / "short.npy")
        good = submit_request(server.spool, path)
        assert server.run(once=True) == 2
        bad, good = (wait_result(server.spool, rid, timeout=5.0)
                     for rid in (bad, good))
    finally:
        svc.stop()
    assert (bad["ok"], bad["failure_class"]) == (False, "request-error")
    assert good["ok"] is True


def test_request_files_are_consumed(tmp_path, matrix_file):
    _, path = matrix_file
    svc, server = _server(tmp_path)
    try:
        submit_request(server.spool, path)
        server.run(once=True)
    finally:
        svc.stop()
    assert list(server.inbox.glob("*.json")) == []
    assert len(list(server.done.glob("*.json"))) == 1
    payload = json.loads(next(server.done.glob("*.json")).read_text())
    assert payload["ok"] is True
