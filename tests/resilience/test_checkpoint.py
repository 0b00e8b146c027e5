"""Checkpoint save/load round-trips and crash-restart bit-identity."""

import hashlib
import json

import numpy as np
import pytest

from repro import SolverOptions, SymPackSolver
from repro.core.serialization import (checkpoint_path, load_checkpoint,
                                      save_checkpoint)
from repro.resilience import (CheckpointIOError, CheckpointState, FaultPlan,
                              ResilienceOptions)
from repro.sparse import grid_laplacian_2d, random_spd
from repro.variants import (FanInOptions, FanInSolver, MultifrontalOptions,
                            MultifrontalSolver)


def factor_digest(solver):
    h = hashlib.sha256()
    for d in solver.storage.diag:
        h.update(d.tobytes())
    for p in solver.storage.panels:
        h.update(p.tobytes())
    return h.hexdigest()


def make_state():
    rng = np.random.default_rng(0)
    return CheckpointState(
        frontier=3,
        executed=(0, 1, 4),
        diag=[rng.standard_normal((2, 2)), rng.standard_normal((3, 3))],
        panels=[rng.standard_normal((4, 2)), np.zeros((0, 3))],
        workspace=rng.standard_normal(13),
    )


class TestSerializationRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        state = make_state()
        save_checkpoint(state, tmp_path, label="factor")
        loaded = load_checkpoint(checkpoint_path(tmp_path, "factor"))
        assert loaded.frontier == state.frontier
        assert loaded.executed == state.executed
        for a, b in zip(loaded.diag, state.diag):
            assert np.array_equal(a, b)
        for a, b in zip(loaded.panels, state.panels):
            assert np.array_equal(a, b)
        assert np.array_equal(loaded.workspace, state.workspace)

    def test_round_trip_without_workspace(self, tmp_path):
        state = make_state()
        state.workspace = None  # a fan-out graph's context has none
        save_checkpoint(state, tmp_path, label="factor")
        loaded = load_checkpoint(checkpoint_path(tmp_path, "factor"))
        assert loaded.workspace is None
        assert loaded.executed == state.executed

    def test_unwritable_directory_raises_typed_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(CheckpointIOError, match="cannot write"):
            save_checkpoint(make_state(), blocker / "sub")

    def test_missing_file_raises_typed_error(self, tmp_path):
        with pytest.raises(CheckpointIOError):
            load_checkpoint(tmp_path / "nope.npz")

    def test_version_1_file_refused(self, tmp_path):
        """Files from before the graph-levelized frontier carry waves."""
        path = save_checkpoint(make_state(), tmp_path)
        with np.load(path) as archive:
            contents = {k: archive[k] for k in archive.files}
        manifest = json.loads(bytes(contents["manifest"]).decode())
        manifest["version"] = 1
        contents["manifest"] = np.bytes_(json.dumps(manifest).encode())
        contents["waves"] = np.zeros(6, dtype=np.int64)
        np.savez(path, **contents)
        with pytest.raises(CheckpointIOError, match="version 1"):
            load_checkpoint(path)

    def test_version_2_file_refused(self, tmp_path):
        """Files from before the one-workspace context carry per-key
        scratch arrays and transient payloads."""
        path = save_checkpoint(make_state(), tmp_path)
        with np.load(path) as archive:
            contents = {k: archive[k] for k in archive.files}
        manifest = json.loads(bytes(contents["manifest"]).decode())
        manifest.update(version=2, scratch_keys=[["agg", 0, 1]],
                        transient=[])
        contents["manifest"] = np.bytes_(json.dumps(manifest).encode())
        contents["scratch_0"] = contents.pop("workspace")
        np.savez(path, **contents)
        with pytest.raises(CheckpointIOError, match="version 2"):
            load_checkpoint(path)

    def test_corrupt_file_raises_typed_error(self, tmp_path):
        bad = tmp_path / "factor_checkpoint.npz"
        bad.write_bytes(b"definitely not an npz archive")
        with pytest.raises(CheckpointIOError):
            load_checkpoint(bad)


class TestCrashRestartBitIdentity:
    @pytest.fixture(scope="class")
    def problem(self):
        a = random_spd(60, density=0.15, seed=3)
        rhs = np.linspace(-1.0, 1.0, a.n).reshape(a.n, 1)
        return a, rhs

    def run(self, a, rhs, res):
        solver = SymPackSolver(a, SolverOptions(nranks=2, resilience=res))
        info = solver.factorize()
        x, _ = solver.solve(rhs)
        out = (factor_digest(solver), x.tobytes(),
               solver.session.recoveries,
               solver.session.trace.resilience_counts(),
               info.simulated_seconds, solver._factor_graph.levels.copy())
        solver.close()
        return out

    def test_restart_from_checkpoint_is_bit_identical(self, problem,
                                                      tmp_path):
        a, rhs = problem
        base_digest, base_x, _, _, makespan, _ = self.run(
            a, rhs, ResilienceOptions(hardened=True, checkpoint_every=2))
        plan = FaultPlan(seed=0, crashes=((1, 0.4 * makespan),))
        digest, x, recoveries, counts, _, levels = self.run(
            a, rhs, ResilienceOptions(
                hardened=True, faults=plan, checkpoint_every=2,
                checkpoint_dir=str(tmp_path)))
        assert recoveries >= 1
        assert counts["recoveries"] >= 1
        assert counts["checkpoints"] >= 1
        assert counts["faults_injected"] >= 1
        assert digest == base_digest
        assert x == base_x
        # The persisted checkpoint is loadable, and its executed set is
        # exactly the tasks at or below its frontier level.
        persisted = load_checkpoint(checkpoint_path(tmp_path, "factor"))
        assert persisted.executed == tuple(
            np.flatnonzero(levels <= persisted.frontier).tolist())

    def test_recovered_makespan_counts_the_lost_attempts(self, problem):
        """A restarted world's clocks start at 0; the aborted attempt's
        simulated time still belongs to the factorization."""
        a, _ = problem
        base = SymPackSolver(a, SolverOptions(nranks=2, resilience=(
            ResilienceOptions(hardened=True, checkpoint_every=2))))
        crash_at = 0.4 * base.factorize().simulated_seconds
        base.close()
        solver = SymPackSolver(a, SolverOptions(nranks=2, resilience=(
            ResilienceOptions(hardened=True, checkpoint_every=2,
                              faults=FaultPlan(seed=0,
                                               crashes=((1, crash_at),))))))
        session, worlds = solver.session, []
        new_world = session._new_world

        def recording_world(tracer=None):
            worlds.append(new_world(tracer=tracer))
            return worlds[-1]

        session._new_world = recording_world
        info = solver.factorize()
        assert session.recoveries >= 1 and len(worlds) >= 2
        assert info.simulated_seconds == (
            worlds[-1].makespan() + sum(w.makespan() for w in worlds[:-1]))
        assert worlds[0].makespan() > crash_at
        assert info.simulated_seconds > crash_at
        solver.close()


@pytest.mark.parametrize("solver_cls,options_cls", [
    (FanInSolver, FanInOptions), (MultifrontalSolver, MultifrontalOptions)],
    ids=["FanInSolver", "MultifrontalSolver"])
def test_workspace_restored_across_a_crash(solver_cls, options_cls, tmp_path):
    """A restart copies the checkpoint's workspace back: fan-in aggregates
    and in-flight multifrontal update matrices, slots that share bytes
    included, survive the crash bit for bit."""
    a = grid_laplacian_2d(12, 12)

    def run(res):
        solver = solver_cls(a, options_cls(nranks=2, resilience=res))
        info = solver.factorize()
        out = (factor_digest(solver), solver.session.recoveries,
               info.simulated_seconds)
        solver.close()
        assert solver.session.ledger.live() == 0
        return out

    base, _, makespan = run(ResilienceOptions(hardened=True,
                                              checkpoint_every=1))
    digest, recoveries, _ = run(ResilienceOptions(
        hardened=True, checkpoint_every=1, checkpoint_dir=str(tmp_path),
        faults=FaultPlan(seed=0, crashes=((1, 0.5 * makespan),))))
    assert recoveries >= 1
    assert digest == base
    persisted = load_checkpoint(checkpoint_path(tmp_path, "factor"))
    assert persisted.workspace is not None and persisted.frontier >= 0
