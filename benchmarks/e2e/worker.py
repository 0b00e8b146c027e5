"""One measured run of one workload, in a fresh process.

Started by ``run.py`` with the BLAS/OpenMP thread pins already in the
environment.  Everything up to the end of the warm-up is ``setup_s``;
``--setup-only`` stops there so the runner can sample set-up several
times per run.  The solver is driven only through the public surface of
``docs/api.md``; every call into a layer goes through ``tracer.span``.
The last line of standard output is one JSON record for the runner.

End-to-end times are read from the process's CPU clock (``cpu``): the
host is shared, and the hypervisor takes the CPU away for 10-90 % of
whole minutes, which a wall clock counts and this clock does not.  On an
idle host the two agree for everything timed here (one busy thread, no
waiting); ``host.wall_over_cpu`` says by how much they differed.  Spans
and the other per-layer times stay on the wall clock (``now``).
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import dataclasses
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from run import PINS                 # noqa: E402  (stdlib-only module)

_ENV_SEEN = {k: os.environ.get(k) for k in PINS}   # before NumPy loads

import numpy as np                   # noqa: E402
import scipy                         # noqa: E402

from repro import (ServiceConfig, SolverOptions, SolveService,  # noqa: E402
                   SymPackSolver, analyze)
from repro.baselines import reference_solve       # noqa: E402
from repro.ordering import compute_ordering       # noqa: E402
from repro.service import matrix_keys             # noqa: E402
from repro.sparse import tridiagonal_spd          # noqa: E402
from repro.symbolic import AnalysisCache          # noqa: E402

from checks import Gate                           # noqa: E402
from spans import Tracer, write_chrome_trace      # noqa: E402
from workloads import SERVICE_CONFIG, SPECS, build_inputs   # noqa: E402

now = time.perf_counter
cpu = time.process_time      # user + system time of every thread
OUT = HERE / "out"


# ----------------------------------------------------------------- helpers

def build_options(cls, wanted: dict):
    """``cls(**wanted)`` minus the keys ``cls`` no longer has.

    Returns the instance and the options actually applied, so a knob a
    later PR retires drops out of the run and shows in the record.
    """
    known = {f.name for f in dataclasses.fields(cls)}
    applied = {k: v for k, v in wanted.items() if k in known}
    return cls(**applied), applied


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, capped at
    p95; the maximum when there are too few samples for any.  Returns
    ``(value, percentile)``."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    if n < 20:
        return float(ordered[-1]), 100.0
    index = min(n - 11, int(0.95 * (n - 1)))
    return float(ordered[index]), 100.0 * index / (n - 1)


def blas_threads() -> int | None:
    """Thread count OpenBLAS actually runs with, if it can be asked."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    counts = set()
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                counts.add(int(fn()))
                break
    return max(counts) if counts else None


def host_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):      # older NumPy: no structured config
        blas = {}
    return {
        "cores_usable": len(os.sched_getaffinity(0)),
        "cores_total": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": _ENV_SEEN,
        "blas_threads": blas_threads(),
    }


def warm_up() -> None:
    """Tiny solve through solver and service: lazy imports, BLAS init."""
    a = tridiagonal_spd(8)
    b = np.ones(8)
    opts, _ = build_options(SolverOptions, {"plan_mode": "on"})
    solver = SymPackSolver(a, opts)
    solver.factorize()
    solver.solve(b)
    solver.update_values(a)
    solver.factorize()
    solver.solve(b)
    solver.close()
    cfg, _ = build_options(ServiceConfig, {"workers": 1})
    svc = SolveService(opts, cfg).start()
    try:
        svc.solve(a, b)
    finally:
        svc.close()


@dataclasses.dataclass
class Request:
    """One service request as its client saw it."""

    pattern: int
    version: int
    rhs: int
    burst: bool
    round: int
    t_submit: float = 0.0
    t_done: float = 0.0
    x: np.ndarray | None = None
    stats: object = None
    error: BaseException | None = None

    @property
    def latency(self) -> float:
        """CPU seconds the process spent between submit and reply."""
        return self.t_done - self.t_submit


class Clock:
    """CPU and wall seconds spent inside a ``with`` block."""

    def __enter__(self) -> "Clock":
        self.wall, self.cpu = -now(), -cpu()
        return self

    def __exit__(self, *exc) -> None:
        self.cpu += cpu()
        self.wall += now()


TRACED_WARM = 12      # warm cycles per round of a traced run, at least
SOLVER_RANK = 0.0     # solver operations: the best round
SERVICE_RANK = 0.25   # service loop: the lower-quartile round


def round_value(rounds: list[list[float]], rank: float,
                higher_is_better: bool = False) -> float:
    """One number for an operation repeated over a run's rounds.

    Each round is summarised by its median (of an even number of
    samples, the better of the middle two); the reported value is the
    round at ``rank`` of the rounds sorted best first.  A disturbance from
    the shared host lasts seconds and only ever adds time.  A solver
    operation is one thread busy for milliseconds, the host leaves some
    rounds alone, and the best round is one of those.  A service segment
    keeps both cores busy for a second and its latencies scatter widely
    even on an idle host (and a run's first segments are its fastest), so
    its best round is an extreme of a noisy quantity: the lower quartile
    repeats better.
    """
    middle = (statistics.median_high if higher_is_better
              else statistics.median_low)
    medians = sorted((float(middle(r)) for r in rounds if r),
                     reverse=higher_is_better)
    return medians[int(rank * (len(medians) - 1))] if medians else 0.0


def pooled(rounds: list[list[float]]) -> list[float]:
    return [v for r in rounds for v in r]


class ServiceLoop:
    """A started ``SolveService`` and the closed loop played against it.

    ``segment(r, scripts)`` plays one round's scripts, one client thread
    per script, each client sending its next step only when every reply
    of the previous one is in.  Solutions are judged after the segment,
    outside every timed region, and dropped.
    """

    def __init__(self, run: "Run", workers: int, label: str) -> None:
        self.run = run
        self.label = label
        cfg, applied = build_options(ServiceConfig,
                                     {**SERVICE_CONFIG, "workers": workers})
        run.applied[label] = applied
        self.svc = SolveService(run.solver_options(), cfg).start()
        self.requests: list[Request] = []
        self.bursts: list[float] = []
        self.rps: list[list[float]] = []       # per CPU second, per round
        self.rps_wall: list[list[float]] = []
        self.changes = 0                     # scripted value-version changes
        self._held: dict[int, int] = {}
        self._lock = threading.Lock()
        patterns = run.inputs.patterns
        t0 = now()
        with run.tracer.span(f"{label}_pretouch", region=True):
            for p in range(len(patterns)):
                with run.tracer.span("service.request", pattern=p, version=0):
                    self.ask(-1, p, 0, (0,))
        self.pretouch = now() - t0
        self._judge(self.requests)

    def ask(self, r: int, p: int, v: int, ids: tuple) -> None:
        """Submit one step's requests together, then wait for each reply."""
        pattern = self.run.inputs.patterns[p]
        sent = []
        t_first = now()
        for k in ids:
            req = Request(p, v, k, burst=len(ids) > 1, round=r,
                          t_submit=cpu())
            try:
                future = self.svc.submit(pattern.versions[v], pattern.rhs[k])
            except Exception as exc:         # ServiceOverloaded, bad input
                req.error = exc
            else:
                future.add_done_callback(
                    lambda _f, req=req: setattr(req, "t_done", cpu()))
                sent.append((req, future))
            with self._lock:
                self.requests.append(req)
        for req, future in sent:
            try:
                req.x, req.stats = future.result(timeout=120.0)
            except Exception as exc:
                req.error = exc
        if len(ids) > 1:
            with self._lock:
                self.bursts.append(now() - t_first)

    def _client(self, r: int, index: int, script: list) -> None:
        tr = self.run.tracer
        with tr.span(f"{self.label}_client", region=True, client=index):
            for p, v, ids in script:
                name = "service.burst" if len(ids) > 1 else "service.request"
                with tr.span(name, pattern=p, version=v):
                    self.ask(r, p, v, ids)

    def segment(self, r: int, scripts: list) -> None:
        for script in scripts:
            for p, v, _ in script:
                self.changes += self._held.get(p, 0) != v
                self._held[p] = v
        before = len(self.requests)
        threads = [threading.Thread(target=self._client, args=(r, i, s))
                   for i, s in enumerate(scripts)]
        with Clock() as took:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        done = sum(1 for q in self.requests[before:] if q.error is None)
        self.rps.append([done / took.cpu])
        self.rps_wall.append([done / took.wall])
        self._judge(self.requests[before:])

    def _judge(self, requests: list) -> None:
        gate, patterns = self.run.gate, self.run.inputs.patterns
        for req in requests:
            if req.error is not None:
                gate.error(f"request {req.pattern}/{req.version}", req.error)
                continue
            pat = patterns[req.pattern]
            # A column of a coalesced (stacked) solve is not bit-identical
            # to its solo solve, and what gets stacked depends on thread
            # timing: only solo solves are compared.
            gate.solution((req.pattern, req.version, req.rhs),
                          pat.full[req.version], req.x, pat.rhs[req.rhs],
                          bitwise=req.stats.coalesced_width == 1)
            req.x = None         # keeps peak RSS independent of the rounds

    def finish(self) -> dict:
        run, patterns = self.run, self.run.inputs.patterns
        try:
            counters = self.svc.counters()
        finally:
            self.svc.close()
        run.leaked += self.svc.counters().bytes_live
        # Each client owns its patterns, so tiers are scripted: one
        # refactor per value-version change, nothing colder once touched.
        tiers = counters.tiers
        run.gate.require(
            tiers.get("refactor", 0) == self.changes
            and tiers.get("cold", 0) == len(patterns),
            f"tiers {tiers} differ from the script ({self.changes} refactors)")
        nrounds = len(self.rps)
        loop = [q for q in self.requests if q.round >= 0 and q.error is None]

        def latencies(tier: str, pattern: int | None = None):
            out = [[] for _ in range(nrounds)]
            for q in loop:
                if (not q.burst and q.stats.tier == tier
                        and pattern in (None, q.pattern)):
                    out[q.round].append(q.latency)
            return out

        return {"rps": self.rps, "rps_wall": self.rps_wall,
                "refactor": latencies("refactor"),
                "factor": latencies("factor"),
                "refactor_p0": latencies("refactor", 0),
                "burst": self.bursts,
                "queue_wait": [q.stats.queue_wait for q in loop],
                "pretouch": self.pretouch, "counters": counters}


# -------------------------------------------------------------------- run

class Run:
    def __init__(self, workload: str, seed: int, inputs,
                 traced: bool) -> None:
        self.spec = SPECS[workload]
        self.counts = dataclasses.asdict(self.spec.counts)
        if traced:     # enough cycles to tell spans-on from spans-off
            self.counts["warm"] = max(self.counts["warm"], TRACED_WARM)
        self.rounds = 0                      # rounds played
        self.inputs = inputs
        self.traced = traced
        self.tracer = Tracer(traced, workload=workload, seed=seed)
        self.gate = Gate()
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.tails: dict[str, float] = {}
        base, applied = build_options(SolverOptions, self.spec.solver)
        self.applied: dict[str, dict] = {"solver": applied}
        self.ordering = getattr(base, "ordering", "scotch_like")
        self.leaked = 0
        # Timed samples: name -> one list per round.
        self.secs: dict[str, list[list[float]]] = collections.defaultdict(list)
        self.wall_over_cpu: list[float] = []  # per timed solver operation
        self.flush: list[float] = []         # warm kernel-flush seconds
        self.spans_on: list[float] = []      # warm cycles, traced run only
        self.spans_off: list[float] = []
        self.first = None          # infos of the first cold start
        self.plan_stats = None     # of the last round's solver
        self.allocs_warm_delta = 0
        self.tmp = OUT / f"tmp-{os.getpid()}"
        self._dirs = 0

    # -- plumbing

    def solver_options(self, **extra):
        return build_options(SolverOptions, {**self.spec.solver, **extra})[0]

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.tmp / f"cache-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def close_solver(self, solver) -> None:
        solver.close()
        self.leaked += solver.session.ledger.snapshot().live()

    def took(self, clock: Clock) -> float:
        """CPU seconds of one timed solver operation."""
        self.wall_over_cpu.append(clock.wall / clock.cpu)
        return clock.cpu

    def timing(self, name: str, rounds: list[list[float]], unit_scale: float,
               tail_name: str | None = None, rank: float = SOLVER_RANK,
               higher_is_better: bool = False) -> None:
        self.metrics[name] = (
            round_value(rounds, rank, higher_is_better) * unit_scale)
        self.samples[name] = len(pooled(rounds))
        if tail_name is not None:
            value, pct = tail(pooled(rounds))
            self.metrics[tail_name] = value * unit_scale
            self.tails[tail_name] = pct

    def layer(self, name: str, span: str, unit_scale: float,
              within: str | None = None) -> None:
        """Per-layer timing metric: median of the spans called ``span``."""
        self.metrics[name] = (
            median(self.tracer.seconds(span, within)) * unit_scale)

    # -- the run

    def play(self, seconds: float, least: int) -> None:
        """Play ``least`` rounds, then more while the longest one so far
        would still end within ``seconds`` seconds of the start (the
        service pre-touch included)."""
        deadline = now() + seconds
        longest = 0.0
        loop = None
        try:
            loop = ServiceLoop(self, SERVICE_CONFIG["workers"], "svc")
            while (self.rounds < len(self.inputs.scripts)
                   and (self.rounds < least or now() + longest <= deadline)):
                t0 = now()
                for name in ("analyze", "cold", "restart", "warm", "wide"):
                    self.secs[name].append([])
                self.solver_round(self.rounds)
                loop.segment(self.rounds, self.inputs.scripts[self.rounds])
                self.rounds += 1
                longest = max(longest, now() - t0)
            svc, loop = loop.finish(), None
            self.timing("analyze_s", self.secs["analyze"], 1.0)
            self.timing("cold_s", self.secs["cold"], 1.0)
            self.timing("restart_s", self.secs["restart"], 1.0)
            self.timing("warm_cycle_ms", self.secs["warm"], 1e3,
                        "core.warm_cycle_tail_ms")
            self.timing("solve_wide_ms", self.secs["wide"], 1e3,
                        "core.solve_wide_tail_ms")
            self.timing("svc_rps", svc["rps"], 1.0, rank=SERVICE_RANK,
                        higher_is_better=True)
            self.timing("svc_refactor_ms", svc["refactor"], 1e3,
                        "service.refactor_tail_ms", rank=SERVICE_RANK)
            self.timing("svc_factor_ms", svc["factor"], 1e3,
                        "service.factor_tail_ms", rank=SERVICE_RANK)
            if self.traced:
                self.layers_from_solver()
                self.layers_from_service(svc)
                self.layers_extra()
        finally:
            if loop is not None:
                loop.svc.close()
            shutil.rmtree(self.tmp, ignore_errors=True)
        self.gate.require(self.leaked == 0,
                          f"{self.leaked} ledger bytes live after close")
        self.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if self.traced:
            self.metrics["memory.live_after_close"] = float(self.leaked)
            self.metrics["core.residual_max"] = self.gate.residual_max
            self.metrics["gate.failed_frac"] = (
                self.gate.failed / max(1, self.gate.attempted))
            self.metrics["trace.coverage_min"] = min(
                (1.0 - part["self"]
                 for part in self.tracer.region_shares().values()),
                default=0.0)

    def solver_round(self, r: int) -> None:
        """One round of the solver lifecycle on ``patterns[0]``.

        Rounds are seconds apart, so a disturbed stretch of the shared
        host lands on some rounds of every metric, not on all samples of
        one.  No other solver is alive while a cold start runs (only the
        service's cached factors): the previous one is closed and
        collected first, as in the fresh process a user would start.
        """
        secs = {name: rounds[-1] for name, rounds in self.secs.items()}
        for _ in range(self.counts["analyze"]):
            secs["analyze"].append(self.analyze_once())
        solver = None
        for i in range(self.counts["cold"]):
            directory = self.fresh_dir()       # unseen pattern: empty cache
            if solver is not None:
                self.close_solver(solver)
            solver = None
            gc.collect()
            solver, seconds, first = self.first_solution("cold", directory)
            secs["cold"].append(seconds)
            self.first = self.first or first
            self.close_solver(solver)
            solver = None
            gc.collect()
            # Restart: a new cache object on the same directory (disk hit).
            solver, seconds, _ = self.first_solution("restart", directory)
            secs["restart"].append(seconds)
        version = self.warm_cycles(solver, r, secs["warm"])
        self.wide_solves(solver, version, secs["wide"])
        self.plan_stats = getattr(solver, "plan_stats", None)
        self.close_solver(solver)

    def analyze_once(self) -> float:
        with Clock() as took, self.tracer.span("analyze", region=True):
            with self.tracer.span("repro.analyze"):
                analyze(self.inputs.analyze_matrix, ordering=self.ordering)
        return self.took(took)

    def first_solution(self, region: str, cache_dir: Path):
        """Time to a first verified solution on ``patterns[0]``."""
        p = self.inputs.patterns[0]
        a, b = p.versions[0], p.rhs[0]
        tr = self.tracer
        with Clock() as took, tr.span(region, region=True):
            with tr.span("core.ctor"):
                solver = SymPackSolver(a, self.solver_options(
                    analysis_cache=AnalysisCache(cache_dir)))
            with tr.span("core.first_factorize"):
                finfo = solver.factorize()
            plans = getattr(solver, "plan_stats", None)
            compile_factor = getattr(plans, "compile_seconds", 0.0)
            with tr.span("core.first_solve"):
                x, sinfo = solver.solve(b)
            with tr.span("core.residual"):
                solver.residual_norm(x, b)
        self.gate.solution((0, 0, 0), p.full[0], x, b)
        return solver, self.took(took), (finfo, sinfo, compile_factor)

    def warm_cycles(self, solver, r: int, out: list[float]) -> int:
        """``update_values`` + ``factorize`` + ``solve`` + ``residual_norm``
        over the value variants; returns the version left in the solver."""
        p = self.inputs.patterns[0]
        tr = self.tracer
        per_round = self.counts["warm"]
        allocs = []
        v = 0
        for i in range(r * per_round, (r + 1) * per_round):
            v, k = (i + 1) % len(p.versions), i % len(p.rhs)
            a, b = p.versions[v], p.rhs[k]
            # Traced runs alternate spans on/off: the two medians give the
            # tracing overhead on the same solver in the same process.
            spans_on = self.traced and i % 2 == 0
            tr.enabled = spans_on
            try:
                with Clock() as took, tr.span("warm_cycle", region=True, op=i):
                    with tr.span("core.update_values"):
                        solver.update_values(a)
                    with tr.span("core.refactorize"):
                        finfo = solver.factorize()
                    with tr.span("core.solve"):
                        x, _ = solver.solve(b)
                    with tr.span("core.residual"):
                        solver.residual_norm(x, b)
            except Exception as exc:      # counted, the run goes on
                self.gate.error(f"warm cycle {i}", exc)
                continue
            finally:
                tr.enabled = self.traced
            seconds = self.took(took)
            out.append(seconds)
            if self.traced and i > r * per_round:   # not the arena fault-in
                (self.spans_on if spans_on else self.spans_off).append(seconds)
            if finfo.exec_stats is not None:
                self.flush.append(finfo.exec_stats.flush_seconds)
            allocs.append(finfo.mem.allocs())
            self.gate.solution((0, v, k), p.full[v], x, b)
        # The first replay faults the plan arena in; growth after it is 0
        # when warm cycles allocate nothing.
        if len(allocs) > 1:
            self.allocs_warm_delta = max(self.allocs_warm_delta,
                                         allocs[-1] - allocs[1])
        return v

    def wide_solves(self, solver, version: int, out: list[float]) -> None:
        p = self.inputs.patterns[0]
        for i in range(self.counts["wide"] + 1):
            try:
                with Clock() as took, self.tracer.span(
                        "wide_solve", region=True, op=i):
                    with self.tracer.span("core.solve_wide"):
                        x, _ = solver.solve(p.wide)
            except Exception as exc:
                self.gate.error(f"wide solve {i}", exc)
                continue
            if i > 0:          # a solver's first wide solve records the plan
                out.append(self.took(took))
            self.gate.solution((0, version, "wide"), p.full[version], x,
                               p.wide)

    # -- per-layer metrics (traced rounds only)

    def layers_from_solver(self) -> None:
        m = self.metrics
        finfo, sinfo, compile_factor = self.first
        stats = finfo.exec_stats
        first_flush = stats.flush_seconds if stats is not None else 0.0
        self.layer("core.ctor_s", "core.ctor", 1.0, within="cold")
        self.layer("core.first_factorize_s", "core.first_factorize", 1.0,
                   within="cold")
        self.layer("core.first_solve_s", "core.first_solve", 1.0,
                   within="cold")
        first_factorize = self.tracer.seconds("core.first_factorize",
                                              within="cold")[0]
        m["kernels.first_flush_s"] = first_flush
        m["core.first_des_s"] = first_factorize - first_flush - compile_factor
        self.layer("core.update_values_ms", "core.update_values", 1e3)
        self.layer("core.refactorize_ms", "core.refactorize", 1e3)
        self.layer("core.solve_ms", "core.solve", 1e3)
        self.layer("core.residual_ms", "core.residual", 1e3,
                   within="warm_cycle")
        m["core.tasks"] = float(finfo.tasks)
        m["kernels.flush_ms"] = median(self.flush) * 1e3
        m["kernels.calls"] = float(stats.calls if stats else 0)
        m["kernels.batches"] = float(stats.batches if stats else 0)
        m["kernels.stacked"] = float(stats.stacked if stats else 0)
        # Plan counters of one round's solver: 1 cold start, its warm
        # cycles and wide solves.
        for field in ("compiles", "hits", "recorded_calls", "fused_groups"):
            m[f"plans.{field}"] = float(getattr(self.plan_stats, field, 0))
        m["plans.compile_s"] = float(
            getattr(self.plan_stats, "compile_seconds", 0.0))
        m["pgas.rpcs_sent"] = float(finfo.comm.rpcs_sent)
        m["pgas.gets_issued"] = float(finfo.comm.gets_issued)
        m["pgas.bytes_get"] = float(finfo.comm.bytes_get)
        m["pgas.sim_factor_ms"] = finfo.simulated_seconds * 1e3
        m["pgas.sim_solve_ms"] = sinfo.simulated_seconds * 1e3
        m["memory.bytes_peak"] = float(finfo.mem.peak())
        m["memory.allocs_first"] = float(finfo.mem.allocs())
        m["memory.allocs_warm_delta"] = float(self.allocs_warm_delta)
        on, off = self.spans_on, self.spans_off
        m["trace.overhead_frac"] = (median(on) / median(off) - 1.0
                                    if on and off else 0.0)
        m["host.wall_over_cpu"] = median(self.wall_over_cpu)

    def layers_from_service(self, svc: dict) -> None:
        m = self.metrics
        counters = svc["counters"]
        m["service.rps_wall"] = round_value(svc["rps_wall"], SERVICE_RANK,
                                            higher_is_better=True)
        m["service.queue_wait_ms"] = median(svc["queue_wait"]) * 1e3
        m["service.pretouch_s"] = svc["pretouch"]
        m["service.burst_ms"] = median(svc["burst"]) * 1e3
        for tier in ("cold", "symbolic", "refactor", "factor"):
            m[f"service.tier_{tier}"] = float(counters.tiers.get(tier, 0))
        m["service.solve_runs"] = float(counters.solve_runs)
        m["service.coalesced_requests"] = float(counters.coalesced_requests)
        m["service.plan_hits"] = float(getattr(counters, "plan_hits", 0))
        # What the service adds to a refactor on pattern 0: its latency
        # minus the same update+factorize+solve+residual on a bare solver.
        m["service.overhead_ms"] = (
            median(pooled(svc["refactor_p0"])) - median(pooled(
                self.secs["warm"]))) * 1e3

    def layers_extra(self) -> None:
        """Layer calls no end-to-end region makes on its own."""
        m = self.metrics
        tr = self.tracer
        p = self.inputs.patterns[0]
        a, b = p.versions[0], p.rhs[0]
        big = self.inputs.analyze_matrix

        with tr.span("ordering.scotch_like"):
            perm = compute_ordering(big, "scotch_like")
        with tr.span("symbolic.analyze"):
            an = analyze(big, ordering=perm)
        with tr.span("ordering.amd"):
            perm_amd = compute_ordering(big, "amd")
        an_amd = analyze(big, ordering=perm_amd)
        m["ordering.factor_nnz"] = float(an.factor_nnz())
        m["ordering.factor_flops"] = float(an.factor_flops())
        m["ordering.factor_nnz_amd"] = float(an_amd.factor_nnz())
        m["ordering.factor_flops_amd"] = float(an_amd.factor_flops())

        # The analysis the solver phases ran on (patterns[0]).
        an0 = analyze(a, ordering=self.ordering)
        m["symbolic.supernodes"] = float(an0.nsup)
        m["symbolic.blocks"] = float(an0.stats().get("n_blocks", 0))
        flush = m["kernels.flush_ms"] * 1e-3
        m["kernels.gflops"] = (an0.factor_flops() / flush / 1e9
                               if flush > 0 else 0.0)

        directory = self.fresh_dir()
        cache = AnalysisCache(directory)
        with tr.span("symbolic.cache_put"):
            cache.put(a, an0)
        reopened = AnalysisCache(directory)
        with tr.span("symbolic.cache_disk_get"):
            reopened.get(a)
        with tr.span("symbolic.cache_mem_get"):
            reopened.get(a)

        for _ in range(5):
            with tr.span("sparse.permute"):
                a.permuted(an0.perm.perm)
            with tr.span("service.keys"):
                matrix_keys(a)
            with tr.span("baselines.scipy_ref"):
                reference_solve(a, b)

        # The other warm path: DES replay of the cached task graph.
        des = SymPackSolver(a, self.solver_options(
            plan_mode="off", analysis_cache=reopened))
        des.factorize()
        for _ in range(3):
            with tr.span("core.refactorize_des"):
                des.factorize()
        self.close_solver(des)

        # Plain single-thread baseline: same scripts, 1 client, 1 worker.
        serial = ServiceLoop(self, 1, "svc_serial")
        try:
            for r, scripts in enumerate(self.inputs.scripts[:self.rounds]):
                serial.segment(r, [[step for s in scripts for step in s]])
        finally:
            rps = serial.finish()["rps_wall"]
        m["service.rps_serial"] = round_value(rps, SERVICE_RANK,
                                              higher_is_better=True)

        x = np.random.default_rng(0).standard_normal((512, 512))
        best = min(_timed(lambda: x @ x) for _ in range(5))
        m["host.dgemm_gflops"] = 2 * 512 ** 3 / best / 1e9

        self.layer("ordering.scotch_like_s", "ordering.scotch_like", 1.0)
        self.layer("ordering.amd_s", "ordering.amd", 1.0)
        self.layer("symbolic.analyze_s", "symbolic.analyze", 1.0)
        self.layer("symbolic.cache_put_ms", "symbolic.cache_put", 1e3)
        self.layer("symbolic.cache_disk_get_ms", "symbolic.cache_disk_get", 1e3)
        self.layer("symbolic.cache_mem_get_ms", "symbolic.cache_mem_get", 1e3)
        self.layer("sparse.permute_ms", "sparse.permute", 1e3)
        self.layer("service.keys_ms", "service.keys", 1e3)
        self.layer("baselines.scipy_ref_ms", "baselines.scipy_ref", 1e3)
        self.layer("core.refactorize_des_ms", "core.refactorize_des", 1e3)


def _timed(fn) -> float:
    t0 = now()
    fn()
    return now() - t0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = now()
    inputs = build_inputs(args.workload, args.seed)
    generate_s = now() - t0
    warm_up()
    setup_s = cpu()              # of the whole process, interpreter start included
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "setup_s": setup_s, "host": host_info()}
    if not args.setup_only:
        run = Run(args.workload, args.seed, inputs, bool(args.trace))
        # A traced run spends half its time on rounds, the rest on the
        # layer calls no round makes (``layers_extra``).
        if args.trace:
            run.play(args.seconds / 2, least=1)
        else:
            run.play(args.seconds, least=run.counts["rounds"])
        if args.trace:
            run.metrics["sparse.generate_s"] = generate_s
            pid = sorted(SPECS).index(args.workload) + 1
            write_chrome_trace(
                OUT / f"trace-{args.workload}.json",
                [{"name": "process_name", "ph": "M", "pid": pid,
                  "args": {"name": args.workload}}]
                + run.tracer.chrome_events(pid))
        record.update(
            counts={**run.counts, "rounds": run.rounds},
            metrics=run.metrics, samples=run.samples,
            tail_percentiles=run.tails, options=run.applied,
            attempted=run.gate.attempted, failed=run.gate.failed,
            reasons=run.gate.reasons, digests=run.gate.digests(),
            shares=run.tracer.region_shares(),
            coverage_gaps=run.tracer.coverage_gaps())
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
