#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one command, three uses.

``run.py --workload W --seed S --seconds N --trace 0|1``
    One measured run of one workload (the form ``BENCHMARK.json``'s
    ``command`` is called in).  Prints every metric by name with its unit;
    the last line is one JSON object ``{correct, attempted, failed,
    metrics}`` holding the end-to-end metrics (``--trace 0``) or the
    per-layer metrics (``--trace 1``).

``run.py --seed S``
    The whole suite: ``ROUNDS`` untraced rounds of every workload,
    interleaved round-robin, then one traced round each; best round per
    metric, spread over rounds, host fingerprint.  Writes
    ``out/results.json`` and ``out/trace.json``.

``run.py --compare A.json B.json``
    Judge two suite results against the bounds in ``BENCHMARK.json``.

Every measured run happens in a fresh child process (``worker.py``)
started with the BLAS/OpenMP thread pins in its environment; this file
never imports NumPy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

ROUNDS = 3            # untraced rounds per workload in suite mode
SETUP_SAMPLES = 3     # set-ups per run (2 set-up-only children + the run)
THREADS = "1"
PINS = {"OPENBLAS_NUM_THREADS": THREADS, "OMP_NUM_THREADS": THREADS,
        "MKL_NUM_THREADS": THREADS}
RUN_TIMEOUT = 150.0   # the driver allows a run 180 s, set-ups included
SETUP_TIMEOUT = 60.0  # the first child in a checkout also compiles the .pyc files


class BenchError(RuntimeError):
    """The run cannot be reported (child died, host not as requested...)."""


def load_definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------ one run

def run_worker(workload: str, seed: int, seconds: float, trace: int,
               setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, env={**os.environ, **PINS}, cwd=ROOT, text=True,
            stdout=subprocess.PIPE,
            timeout=SETUP_TIMEOUT if setup_only else RUN_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {workload}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {workload}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    host = record["host"]
    # Refuse to report numbers from a child that did not run as pinned.
    if (any(v != THREADS for v in host["thread_env"].values())
            or host["blas_threads"] not in (None, int(THREADS))):
        raise BenchError(f"child saw thread settings {host['thread_env']}, "
                         f"BLAS threads {host['blas_threads']}; "
                         f"wanted {THREADS}")
    return record


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: ``SETUP_SAMPLES`` set-ups, one of them followed by the
    measurement; ``setup_s`` is their median."""
    setups = [run_worker(workload, seed, seconds, trace, setup_only=True)
              ["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    record = run_worker(workload, seed, seconds, trace)
    setups.append(record["setup_s"])
    record["setup_samples"] = setups
    record["metrics"]["setup_s"] = statistics.median(setups)
    return record


def contract_result(record: dict, definition: dict) -> dict:
    """The four-key result object the driver reads."""
    wanted = definition["per_layer" if record["trace"] else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in record["metrics"]]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {}
    for m in wanted:
        value = record["metrics"][m["name"]]
        if not math.isfinite(value):
            raise BenchError(f"metric {m['name']} is {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def print_record(record: dict, definition: dict) -> None:
    units = {m["name"]: m["unit"]
             for m in definition["end_to_end"] + definition["per_layer"]}
    print(f"# {record['workload']}  seed={record['seed']}  "
          f"trace={record['trace']}  counts={record['counts']}")
    host = record["host"]
    print(f"# host: {host['cores_usable']} usable cores, {host['blas']}, "
          f"BLAS threads {host['blas_threads']}, python {host['python']}, "
          f"numpy {host['numpy']}, scipy {host['scipy']}")
    print(f"# options applied: {record['options']}")
    for name, value in record["metrics"].items():
        note = ""
        if name in record["samples"]:
            note = f"  ({record['samples'][name]} samples)"
        elif name in record["tail_percentiles"]:
            note = f"  (p{record['tail_percentiles'][name]:.0f})"
        print(f"{name:32s} {value:14.6g} {units.get(name, '?'):8s}{note}")
    print(f"attempted {record['attempted']}  failed {record['failed']}")
    for reason in record["reasons"]:
        print(f"  failed: {reason}")
    for region, part in record["shares"].items():
        shares = "  ".join(f"{k} {v:.1%}" for k, v in part.items())
        print(f"share of {region}: {shares}")
    for region, covered in record["coverage_gaps"].items():
        print(f"GAP: spans cover only {covered:.1%} of {region}")


# -------------------------------------------------------------- suite

def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_suite(seed: int, definition: dict) -> int:
    seconds = definition["run_seconds"]
    names = [w["name"] for w in definition["workloads"]]
    rounds: dict[str, list[dict]] = {name: [] for name in names}
    for r in range(ROUNDS):            # interleaved: a noisy stretch of the
        for name in names:             # host hits some rounds of every workload
            t0 = time.perf_counter()
            rounds[name].append(run_once(name, seed, seconds, 0))
            print(f"round {r + 1}/{ROUNDS} {name}: "
                  f"{time.perf_counter() - t0:.1f} s", flush=True)
    result = {"seed": seed, "rounds": ROUNDS, "run_seconds": seconds,
              "git_sha": git_sha(), "threads_requested": THREADS,
              "workloads": {}}
    events = []
    failed = 0
    for name in names:
        traced = run_once(name, seed, seconds, 1)
        print_record(traced, definition)
        events += json.loads(
            (OUT / f"trace-{name}.json").read_text())["traceEvents"]
        runs = rounds[name]
        end_to_end = {}
        for m in definition["end_to_end"]:
            values = [run["metrics"][m["name"]] for run in runs]
            best = max(values) if m["better"] == "higher" else min(values)
            end_to_end[m["name"]] = {
                "value": best, "unit": m["unit"], "rounds": values,
                "spread": (max(values) - min(values)) / abs(best)}
        per_layer = {m["name"]: {"value": traced["metrics"][m["name"]],
                                 "unit": m["unit"]}
                     for m in definition["per_layer"]}
        attempted = sum(run["attempted"] for run in runs + [traced])
        bad = sum(run["failed"] for run in runs + [traced])
        # Bit-identity across processes: one seed, one (pattern, values,
        # rhs) key, one solution.  (Which service solves ran solo, and so
        # were hashed, depends on thread timing: compare the common keys.)
        for run in runs[1:] + [traced]:
            differ = [key for key, sha in run["digests"].items()
                      if runs[0]["digests"].get(key, sha) != sha]
            if differ:
                bad += 1
                print(f"FAILED: {name}: solution bits differ between "
                      f"rounds for {differ[:3]}")
        failed += bad
        result["workloads"][name] = {
            "end_to_end": end_to_end, "per_layer": per_layer,
            "attempted": attempted, "failed": bad,
            "failed_frac": bad / attempted, "counts": traced["counts"],
            "options": traced["options"], "shares": traced["shares"],
            "coverage_gaps": traced["coverage_gaps"]}
        result["host"] = traced["host"]
        print(f"== {name}: best of {ROUNDS} rounds (spread over rounds)")
        for metric, entry in end_to_end.items():
            print(f"{metric:20s} {entry['value']:12.6g} {entry['unit']:6s} "
                  f"±{entry['spread']:.1%}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "trace.json").write_text(json.dumps({"traceEvents": events}))
    (OUT / "results.json").write_text(json.dumps(result, indent=1))
    print(f"wrote {OUT / 'results.json'} and {OUT / 'trace.json'}")
    return 1 if failed else 0


# ------------------------------------------------------------ compare

# Per-layer metrics that must repeat exactly for a given seed and commit
# (the refactor and factor tier counts grow with the rounds a run fits in).
EXACT = {
    "service.tier_cold", "service.tier_symbolic", "ordering.factor_nnz",
    "ordering.factor_flops", "ordering.factor_nnz_amd",
    "ordering.factor_flops_amd", "symbolic.supernodes", "symbolic.blocks",
    "core.tasks", "kernels.calls", "kernels.batches", "kernels.stacked",
    "plans.compiles", "plans.hits", "plans.recorded_calls",
    "plans.fused_groups", "pgas.rpcs_sent", "pgas.gets_issued",
    "pgas.bytes_get", "pgas.sim_factor_ms", "pgas.sim_solve_ms",
    "memory.bytes_peak", "memory.allocs_first", "memory.allocs_warm_delta",
    "memory.live_after_close", "gate.failed_frac",
}


def compare(path_a: str, path_b: str, definition: dict) -> int:
    """A is the baseline, B the candidate; non-zero when B regressed."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    regressed = 0
    print(f"{'workload':18s} {'metric':16s} {'A':>12s} {'B':>12s} "
          f"{'B vs A':>8s} {'bound':>6s}  verdict")
    for w in definition["workloads"]:
        wa, wb = a["workloads"][w["name"]], b["workloads"][w["name"]]
        for m in definition["end_to_end"]:
            ea, eb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            worse = (eb["value"] - ea["value"]) / abs(ea["value"])
            if m["better"] == "higher":
                worse = -worse
            if max(ea["spread"], eb["spread"]) > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "ok"
            print(f"{w['name']:18s} {m['name']:16s} {ea['value']:12.5g} "
                  f"{eb['value']:12.5g} {worse:+8.1%} {m['bound']:6.0%}  "
                  f"{verdict}")
        if wb["failed"] > wa["failed"]:
            print(f"{w['name']:18s} failed operations {wa['failed']} -> "
                  f"{wb['failed']}  regressed")
            regressed += 1
        # Counts and simulated times repeat exactly for one seed and
        # commit; a difference is reported, the reader decides.
        for m in definition["per_layer"]:
            va = wa["per_layer"][m["name"]]["value"]
            vb = wb["per_layer"][m["name"]]["value"]
            if m["name"] in EXACT and va != vb and a["seed"] == b["seed"]:
                print(f"{w['name']:18s} {m['name']:28s} {va:g} -> {vb:g}  "
                      f"changed")
    return 1 if regressed else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)
    definition = load_definition()
    if args.compare:
        return compare(*args.compare, definition)
    if args.workload is None:
        return run_suite(args.seed, definition)
    if args.workload not in {w["name"] for w in definition["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    seconds = (args.seconds if args.seconds is not None
               else definition["run_seconds"])
    record = run_once(args.workload, args.seed, seconds, args.trace)
    result = contract_result(record, definition)
    print_record(record, definition)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
