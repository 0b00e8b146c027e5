"""Single entry point for the concurrency-correctness analysis suite.

``python -m repro.analysis <command>``:

* ``lint`` — the AST lint pass over ``src/repro`` (REP1xx rules).
* ``flow`` — the flow-sensitive CFG/dataflow pass: buffer ownership
  (REP200-REP203) and lock discipline (REP210-REP211) over the
  pooled-memory and service layers.
* ``waves`` — the wave conflict verifier over the full determinism
  scenario grid (5 solver families × 3 matrices).
* ``races`` — the scenario grid with the PGAS happens-before checker
  attached as well (vector clocks on every world).
* ``selftest`` — mutation self-tests: each layer must be clean on the
  real tree and must flag its seeded defect injection.
* ``all`` — everything above; the CI ``static-analysis`` job runs this.

Exit codes: 0 iff no findings (and, for ``selftest``, all injections
were caught); 1 on findings; 2 on usage errors (unreadable paths).
Analyzer crashes on a single module are contained as ``REP290``
findings naming the failing file and stage, never a silent pass.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

__all__ = ["main"]

USAGE_ERROR = 2


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import main as lint_main

    return lint_main(list(args.paths))


def _run_grid(check_races: bool) -> int:
    from .report import format_findings
    from .scenarios import run_scenarios

    results = run_scenarios(check_races=check_races)
    bad = 0
    for res in results:
        status = "clean" if res.clean else f"{len(res.findings)} finding(s)"
        print(f"{res.family:>20s} × {res.matrix:<10s} "
              f"flushes={res.flushes_checked:<4d} "
              f"plan={res.plan_stream_calls:<5d} {status}")
        if not res.clean:
            bad += 1
            print(format_findings(res.findings))
    mode = "waves+races" if check_races else "waves"
    print(f"{len(results)} scenario(s) checked ({mode}); "
          f"{bad} with findings")
    return 1 if bad else 0


def _cmd_waves(_args: argparse.Namespace) -> int:
    return _run_grid(check_races=False)


def _cmd_races(_args: argparse.Namespace) -> int:
    return _run_grid(check_races=True)


def _cmd_flow(args: argparse.Namespace) -> int:
    from .locks import DEFAULT_LOCK_MODULES, analyze_locks
    from .ownership import (DEFAULT_OWNERSHIP_MODULES, ModuleSource,
                            analyze_ownership)
    from .report import format_findings

    src_root = Path(__file__).resolve().parents[1]

    def load(rels: tuple[str, ...], base: Path) -> list[ModuleSource] | None:
        mods = []
        for rel in rels:
            path = base / rel
            try:
                text = path.read_text()
            except OSError as exc:
                print(f"flow: cannot read {path}: {exc}", file=sys.stderr)
                return None
            mods.append(ModuleSource(rel, text))
        return mods

    if args.paths:
        given: list[ModuleSource] = []
        for p in args.paths:
            path = Path(p)
            try:
                text = path.read_text()
            except OSError as exc:
                print(f"flow: cannot read {path}: {exc}", file=sys.stderr)
                return USAGE_ERROR
            try:
                rel = str(path.resolve().relative_to(src_root))
            except ValueError:
                rel = str(path)
            given.append(ModuleSource(rel, text))
        own_mods = lock_mods = given
    else:
        maybe_own = load(DEFAULT_OWNERSHIP_MODULES, src_root)
        maybe_lock = load(DEFAULT_LOCK_MODULES, src_root)
        if maybe_own is None or maybe_lock is None:
            return USAGE_ERROR
        own_mods, lock_mods = maybe_own, maybe_lock

    t0 = time.perf_counter()
    own = analyze_ownership(own_mods)
    t1 = time.perf_counter()
    locks = analyze_locks(lock_mods)
    t2 = time.perf_counter()
    print(f"ownership (REP200-203): {len(own_mods)} module(s), "
          f"{len(own)} finding(s) [{t1 - t0:.2f}s]")
    print(f"locks     (REP210-211): {len(lock_mods)} module(s), "
          f"{len(locks)} finding(s) [{t2 - t1:.2f}s]")
    findings = own + locks
    if findings:
        print(format_findings(findings))
    return 1 if findings else 0


def _cmd_selftest(_args: argparse.Namespace) -> int:
    from .mutation import format_reports, run_selftest

    reports = run_selftest()
    print(format_reports(reports))
    return 0 if all(r.ok for r in reports) else 1


def _cmd_all(args: argparse.Namespace) -> int:
    rc = 0
    print("== lint ==")
    rc |= _cmd_lint(argparse.Namespace(paths=[]))
    print("== flow (ownership + locks) ==")
    rc |= _cmd_flow(argparse.Namespace(paths=[]))
    print("== scenarios (waves + races) ==")
    rc |= _run_grid(check_races=True)
    print("== mutation selftest ==")
    rc |= _cmd_selftest(args)
    return rc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Concurrency-correctness analysis suite "
                    "(wave verifier, PGAS happens-before checker, lint).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lint = sub.add_parser("lint", help="AST lint pass (REP1xx rules)")
    p_lint.add_argument("paths", nargs="*",
                        help="files to lint (default: all of src/repro)")
    p_lint.set_defaults(fn=_cmd_lint)

    p_flow = sub.add_parser(
        "flow", help="flow-sensitive ownership (REP200-203) and lock "
                     "discipline (REP210-211) analysis")
    p_flow.add_argument("paths", nargs="*",
                        help="files to analyse (default: the pooled-memory "
                             "and service layers)")
    p_flow.set_defaults(fn=_cmd_flow)

    for name, fn, doc in (
        ("waves", _cmd_waves,
         "wave conflict verifier over the scenario grid"),
        ("races", _cmd_races,
         "scenario grid with the happens-before checker attached"),
        ("all", _cmd_all, "lint + scenarios + mutation selftest"),
    ):
        sub.add_parser(name, help=doc).set_defaults(fn=fn)

    p_self = sub.add_parser(
        "selftest", help="mutation self-tests (seeded defect injection)")
    p_self.set_defaults(fn=_cmd_selftest)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
