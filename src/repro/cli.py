"""Command-line interface.

Mirrors the paper's benchmarking drivers (``run_sympack2D`` and PaStiX's
``example/simple``) as subcommands of ``python -m repro``:

* ``solve``    — read a matrix (Matrix Market or Rutherford-Boeing, like
  the paper's drivers), factor and solve it, print timings and residual;
  ``--save-factor`` persists the factor for later ``resolve`` runs;
  ``--faults`` / ``--checkpoint-every`` run the factorization under the
  resilience subsystem (deterministic fault injection + checkpoint
  restart, see ``docs/resilience.md``);
* ``resolve``  — solve against a previously saved factor (no matrix,
  no factorization: the factor-reuse workflow across process restarts);
* ``serve``    — run a :class:`~repro.service.SolveService` over a file
  spool directory (the concurrent multi-tenant solve daemon);
* ``submit``   — drop a request into a spool directory and optionally
  wait for the server's result;
* ``generate`` — write one of the synthetic stand-in matrices to disk;
* ``info``     — symbolic statistics of a matrix under a chosen ordering;
* ``bench``    — regenerate a paper experiment (fig5 / fig6 / scaling);
* ``tune``     — analytical + brute-force offload threshold tuning.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def _load_matrix(path: str):
    from .sparse import read_matrix_auto

    try:
        return read_matrix_auto(path)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _machine(name: str):
    from .machine import perlmutter
    from .machine.aurora import aurora
    from .machine.frontier import frontier

    return {"perlmutter": perlmutter, "frontier": frontier,
            "aurora": aurora}[name]()


def _resilience_options(args: argparse.Namespace):
    """Build :class:`ResilienceOptions` from solve flags (None if unused).

    Exit code contract (see docs/resilience.md): a malformed fault plan
    exits 2, an unrecovered injected fault (``RankUnresponsive``) exits 3
    and a checkpoint I/O failure exits 4 — each with a one-line typed
    error instead of a traceback, so chaos drivers can branch on the
    failure class.
    """
    from .resilience import FaultPlan, FaultPlanError, ResilienceOptions

    if not (args.faults or args.checkpoint_every or args.checkpoint_dir):
        return None
    plan = None
    if args.faults:
        try:
            plan = FaultPlan.from_json(Path(args.faults).read_text())
        except OSError as exc:
            raise FaultPlanError(
                f"cannot read fault plan {args.faults!r}: {exc}") from exc
    return ResilienceOptions(
        hardened=not args.no_harden, faults=plan,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        max_restarts=args.max_restarts)


def _cmd_solve(args: argparse.Namespace) -> int:
    from .core.offload import CPU_ONLY, OffloadPolicy
    from .core.solver import SolverOptions, SymPackSolver
    from .resilience import (CheckpointIOError, FaultPlanError,
                             RankUnresponsive)

    try:
        resilience = _resilience_options(args)
    except FaultPlanError as exc:
        print(f"fault-plan error : {exc}", file=sys.stderr)
        return 2
    a = _load_matrix(args.matrix)
    offload = CPU_ONLY if args.no_gpu else OffloadPolicy()
    analysis_cache = None
    if args.analysis_cache:
        from .symbolic.cache import AnalysisCache
        analysis_cache = AnalysisCache(args.analysis_cache)
    solver = SymPackSolver(a, SolverOptions(
        nranks=args.nranks, ranks_per_node=args.ranks_per_node,
        ordering=args.ordering, machine=_machine(args.machine),
        offload=offload,
        check_waves=args.check_waves, check_races=args.check_races,
        plan_mode="on" if args.plan else "off",
        analysis_cache=analysis_cache,
        resilience=resilience))
    try:
        info = solver.factorize()
    except RankUnresponsive as exc:
        print(f"injected fault   : {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    except CheckpointIOError as exc:
        print(f"checkpoint error : {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 4
    rng = np.random.default_rng(args.seed)
    b = rng.standard_normal((a.n, args.nrhs))
    x, sinfo = solver.solve(b)
    res = solver.residual_norm(x, b)
    print(f"matrix           : n={a.n} nnz={a.nnz_full}")
    print(f"ranks            : {args.nranks} ({args.ranks_per_node}/node)")
    print(f"factorization    : {info.simulated_seconds:.6f} s simulated, "
          f"{info.tasks} tasks")
    print(f"solve ({args.nrhs} rhs)    : {sinfo.simulated_seconds:.6f} s simulated")
    print(f"relative residual: {res:.3e}")
    print(f"communication    : {info.comm.rpcs_sent} RPCs, "
          f"{info.comm.bytes_get} bytes pulled")
    if args.timings:
        print(f"cold-path timing : ordering {info.ordering_ms:.1f} ms, "
              f"symbolic {info.symbolic_ms:.1f} ms, "
              f"blocks {info.blocks_ms:.1f} ms, "
              f"first DES {info.first_des_ms:.1f} ms")
        if analysis_cache is not None:
            stats = analysis_cache.stats()
            load_ms = solver.analysis.phase_seconds.get("cache_load", 0.0) * 1e3
            tier = ("hit" if stats["mem_hits"] or stats["disk_hits"]
                    else "miss")
            print(f"analysis cache   : {tier} "
                  f"(load {load_ms:.1f} ms, dir {args.analysis_cache})")
    if args.plan:
        # Warm refactorization through the compiled plan (no DES run);
        # bit-identity with the recorded run is covered by tests/plans.
        solver.factorize()
        ps = solver.plan_stats
        print(f"compiled plans   : {ps.compiles} compiled "
              f"({ps.recorded_calls} kernel calls, {ps.fused_groups} fused "
              f"groups / {ps.fused_calls} calls, "
              f"{ps.compile_seconds * 1e3:.2f} ms), {ps.hits} replays")
    if resilience is not None:
        counts = solver.session.trace.resilience_counts()
        print(f"resilience       : {counts['faults_injected']} faults, "
              f"{counts['retries']} retries, "
              f"{counts['recoveries']} recoveries, "
              f"{counts['checkpoints']} checkpoints")
    findings = (list(solver.session.wave_findings)
                + list(solver.session.race_findings))
    if args.check_waves or args.check_races:
        checks = [name for name, on in (("waves", args.check_waves),
                                        ("races", args.check_races)) if on]
        print(f"checks ({'+'.join(checks)})   : "
              f"{len(findings)} finding(s)")
        for f in findings:
            print(f"  {f}")
    if args.save_factor:
        from .core.serialization import save_factor
        save_factor(solver, args.save_factor)
        print(f"factor saved     : {args.save_factor}")
    if args.mem_report:
        print(solver.session.ledger.snapshot().format_report())
        solver.close()
        live_after = solver.session.ledger.live()
        print(f"live after close : {live_after:,d} bytes"
              + ("" if live_after == 0 else "  (LEAK)"))
        if live_after != 0:
            return 1
    return 0 if res < 1e-8 and not findings else 1


def _cmd_resolve(args: argparse.Namespace) -> int:
    from .core.serialization import load_factor

    factor = load_factor(args.factor)
    rng = np.random.default_rng(args.seed)
    b = rng.standard_normal((factor.n, args.nrhs))
    x = factor.solve(b)
    if args.matrix:
        a = _load_matrix(args.matrix)
        r = a.full() @ x - b
        denom = float(np.linalg.norm(b))
        res = float(np.linalg.norm(r)) / (denom if denom > 0 else 1.0)
        res_kind = "relative residual"
    else:
        res = factor.factor_residual(x, b)
        res_kind = "factor residual  "
    print(f"factor           : {args.factor} "
          f"(matrix {factor.matrix_name!r}, n={factor.n})")
    print(f"logdet(A)        : {factor.logdet():.6f}")
    print(f"{res_kind}: {res:.3e}")
    return 0 if res < 1e-8 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .core.offload import CPU_ONLY, OffloadPolicy
    from .core.solver import SolverOptions
    from .service import ServiceConfig, SolveService, SpoolServer

    offload = CPU_ONLY if args.no_gpu else OffloadPolicy()
    options = SolverOptions(
        nranks=args.nranks, ranks_per_node=args.ranks_per_node,
        machine=_machine(args.machine), offload=offload, plan_mode="on")
    config = ServiceConfig(
        workers=args.workers, queue_depth=args.queue_depth,
        factor_budget_bytes=args.budget_mb * 1024 * 1024,
        max_coalesce=args.max_coalesce)
    with SolveService(options, config) as service:
        server = SpoolServer(service, args.spool, poll=args.poll)
        print(f"serving spool {args.spool} "
              f"({args.workers} workers, budget {args.budget_mb} MiB)")
        n = server.run(max_requests=args.max_requests,
                       idle_timeout=args.idle_timeout, once=args.once)
        counters = service.counters()
    print(f"processed        : {n} requests")
    print(f"cache tiers      : {counters.tiers}")
    print(f"hit rate         : {counters.hit_rate():.2%}")
    print(f"factor cache     : {counters.factor_entries} entries, "
          f"{counters.factor_bytes} bytes, {counters.evictions} evictions")
    print(f"memory ledger    : {counters.bytes_live:,d} live / "
          f"{counters.bytes_peak:,d} peak bytes "
          f"(cache-vs-ledger delta {counters.factor_bytes_delta:+,d})")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import submit_request, wait_result

    rid = submit_request(args.spool, args.matrix, nrhs=args.nrhs,
                         seed=args.seed)
    print(f"submitted        : {rid}")
    if not args.wait:
        return 0
    result = wait_result(args.spool, rid, timeout=args.timeout)
    if not result.get("ok"):
        print(f"request failed   : {result.get('error')}")
        return 1
    print(f"tier             : {result['tier']}")
    print(f"queue wait       : {result['queue_wait']:.4f} s")
    print(f"simulated time   : {result['simulated_seconds']:.6f} s")
    print(f"coalesced width  : {result['coalesced_width']}")
    if result.get("residual") is not None:
        print(f"relative residual: {result['residual']:.3e}")
    print(f"solution         : {result['x_file']}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .sparse import (bone_like, flan_like, thermal_like,
                         write_matrix_market, write_rutherford_boeing)

    factories = {
        "flan": lambda: flan_like(scale=args.scale),
        "bone": lambda: bone_like(scale=args.scale),
        "thermal": lambda: thermal_like(n=args.scale**3),
    }
    a = factories[args.family]()
    suffix = Path(args.output).suffix.lower()
    if suffix in (".mtx", ".mm"):
        write_matrix_market(args.output, a)
    elif suffix in (".rb", ".rsa"):
        write_rutherford_boeing(args.output, a)
    else:
        raise SystemExit(f"unsupported output format {suffix!r}")
    print(f"wrote {a.name}: n={a.n} nnz={a.nnz_full} -> {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from .symbolic import analyze

    a = _load_matrix(args.matrix)
    an = analyze(a, ordering=args.ordering)
    for key, value in an.stats().items():
        print(f"{key:24s}: {value:,.0f}" if value >= 1 or value == 0
              else f"{key:24s}: {value}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (format_memory_kinds, format_scaling, format_table1,
                        format_workload_split, get_workload, paper_table1,
                        run_memory_kinds_bench, run_strong_scaling)

    if args.experiment == "table1":
        print(format_table1(paper_table1()))
    elif args.experiment == "fig5":
        result = run_memory_kinds_bench()
        print(format_memory_kinds(result))
        if args.export:
            from .bench.export import export_memory_kinds
            paths = export_memory_kinds(result, args.export)
            print(f"exported: {paths[0]}, {paths[1]}")
    elif args.experiment == "fig6":
        from .core.solver import SolverOptions, SymPackSolver

        a = get_workload("flan").build()
        solver = SymPackSolver(a, SolverOptions(nranks=4, ranks_per_node=4))
        solver.factorize()
        solver.solve(np.ones(a.n))
        print(format_workload_split(solver.trace.ops.calls_by_op(rank=0)))
    elif args.experiment == "scaling":
        a = get_workload(args.workload).build()
        nodes = tuple(int(x) for x in args.nodes.split(","))
        result = run_strong_scaling(a, node_counts=nodes, ppn_sweep=(4,))
        print(format_scaling(result, phase="factor"))
        print()
        print(format_scaling(result, phase="solve"))
        if args.export:
            from .bench.export import export_scaling
            paths = export_scaling(result, args.export)
            print(f"exported: {paths[0]}, {paths[1]}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from .core.autotune import analytical_thresholds, autotune_thresholds
    from .core.offload import DEFAULT_THRESHOLDS
    from .core.solver import SolverOptions

    machine = _machine(args.machine)
    analytical = analytical_thresholds(machine)
    print("analytical thresholds (elements):")
    for op in sorted(analytical):
        print(f"  {op:6s}: {analytical[op]:>10,d}  "
              f"(default {DEFAULT_THRESHOLDS[op]:,d})")

    if args.matrix:
        a = _load_matrix(args.matrix)
        result = autotune_thresholds(
            a, lambda policy: SolverOptions(
                nranks=args.nranks, ranks_per_node=args.ranks_per_node,
                machine=machine, offload=policy))
        print("\nbrute-force sweep:")
        for scale, t in result.sweep:
            print(f"  {scale:8.3f}x defaults -> {t * 1e3:10.4f} ms")
        print(result.summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="symPACK reproduction: fan-out sparse Cholesky on a "
                    "simulated PGAS+GPU machine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_args(p):
        p.add_argument("--nranks", type=int, default=4)
        p.add_argument("--ranks-per-node", type=int, default=4)
        p.add_argument("--machine", default="perlmutter",
                       choices=["perlmutter", "frontier", "aurora"])

    p = sub.add_parser("solve", help="factor and solve a matrix file")
    p.add_argument("matrix", help="path to .mtx/.mm or .rb/.rsa file")
    p.add_argument("--ordering", default="scotch_like")
    p.add_argument("--nrhs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0,
                   help="rng seed of the random right-hand side")
    p.add_argument("--no-gpu", action="store_true")
    p.add_argument("--save-factor", default=None, metavar="PATH",
                   help="persist the factor (.npz) for later `resolve` runs")
    p.add_argument("--plan", dest="plan", action="store_true", default=False,
                   help="compile a numeric plan during factorization and "
                        "replay it for a warm refactorization (bit-identical "
                        "to the DES run; see docs/performance.md). "
                        "Incompatible with --faults/--checkpoint-every")
    p.add_argument("--no-plan", dest="plan", action="store_false",
                   help="disable compiled-plan recording (the default)")
    p.add_argument("--check-waves", action="store_true",
                   help="verify every kernel flush for same-wave write "
                        "conflicts and wave-order inversions (exit 1 on "
                        "findings; see docs/correctness.md)")
    p.add_argument("--check-races", action="store_true",
                   help="attach the vector-clock happens-before checker to "
                        "the PGAS runtime (flags unfenced rget/rput, "
                        "signal-before-put, unpolled inboxes)")
    p.add_argument("--mem-report", action="store_true",
                   help="print the memory-ledger report (per-rank/space "
                        "live and peak bytes, allocation counts) and "
                        "verify live bytes return to zero after the "
                        "solver closes (see docs/memory.md)")
    p.add_argument("--faults", default=None, metavar="PLAN",
                   help="fault-plan JSON (python -m repro.resilience plan) "
                        "injected into the factorization; implies the "
                        "hardened transport (see docs/resilience.md). "
                        "Exit codes: 2 bad plan, 3 unrecovered fault, "
                        "4 checkpoint I/O failure")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="checkpoint the factorization every N completed "
                        "wave frontiers (0 disables; restart after an "
                        "injected crash resumes from the last checkpoint "
                        "bit-identically)")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="also persist checkpoints to DIR as .npz "
                        "(in-memory only when omitted)")
    p.add_argument("--max-restarts", type=int, default=2,
                   help="checkpoint-restart attempts before giving up "
                        "(exit 3)")
    p.add_argument("--no-harden", action="store_true",
                   help="disable the acknowledged retry transport (fault "
                        "injection then loses messages for good)")
    p.add_argument("--analysis-cache", default=None, metavar="DIR",
                   help="persistent symbolic-analysis cache directory: the "
                        "cold path (ordering + symbolic + blocks) is "
                        "skipped when DIR holds this pattern's analysis, "
                        "and published there otherwise (see "
                        "docs/performance.md)")
    p.add_argument("--timings", action="store_true",
                   help="print the cold-path wall-clock breakdown "
                        "(ordering / symbolic / blocks / first DES run)")
    add_run_args(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("resolve",
                       help="solve against a factor saved by `solve "
                            "--save-factor` (no refactorization)")
    p.add_argument("--factor", required=True, metavar="PATH",
                   help="factor file written by `solve --save-factor`")
    p.add_argument("--matrix", default=None,
                   help="original matrix file (enables the true residual)")
    p.add_argument("--nrhs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0,
                   help="rng seed of the random right-hand side")
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("serve",
                       help="run a concurrent solve service over a spool "
                            "directory")
    p.add_argument("spool", help="spool directory (created if missing)")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--queue-depth", type=int, default=64)
    p.add_argument("--budget-mb", type=int, default=256,
                   help="factor-cache memory budget in MiB")
    p.add_argument("--max-coalesce", type=int, default=8)
    p.add_argument("--poll", type=float, default=0.1,
                   help="spool poll interval in seconds")
    p.add_argument("--max-requests", type=int, default=None,
                   help="exit after this many requests")
    p.add_argument("--idle-timeout", type=float, default=None,
                   help="exit after this many idle seconds")
    p.add_argument("--once", action="store_true",
                   help="drain the inbox once and exit")
    p.add_argument("--no-gpu", action="store_true")
    add_run_args(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("submit",
                       help="submit a request to a `serve` spool directory")
    p.add_argument("spool", help="spool directory of the running server")
    p.add_argument("matrix", help="path to .mtx/.mm or .rb/.rsa file")
    p.add_argument("--nrhs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--wait", action="store_true",
                   help="block until the result arrives and print it")
    p.add_argument("--timeout", type=float, default=None,
                   help="max seconds to wait with --wait")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("generate", help="write a synthetic matrix to disk")
    p.add_argument("family", choices=["flan", "bone", "thermal"])
    p.add_argument("output", help="output path (.mtx or .rb)")
    p.add_argument("--scale", type=int, default=10)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("info", help="symbolic statistics of a matrix")
    p.add_argument("matrix")
    p.add_argument("--ordering", default="scotch_like")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("bench", help="regenerate a paper experiment")
    p.add_argument("experiment",
                   choices=["table1", "fig5", "fig6", "scaling"])
    p.add_argument("--workload", default="flan",
                   choices=["flan", "bone", "thermal"])
    p.add_argument("--nodes", default="1,2,4")
    p.add_argument("--export", default=None, metavar="DIR",
                   help="also write the results as CSV + JSON under DIR")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("tune", help="offload-threshold tuning")
    p.add_argument("--matrix", default=None,
                   help="optional matrix file for the brute-force sweep")
    add_run_args(p)
    p.set_defaults(func=_cmd_tune)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
