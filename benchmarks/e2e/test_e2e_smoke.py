"""Smoke test of the end-to-end benchmark; run it explicitly:

    python -m pytest benchmarks/e2e/test_e2e_smoke.py

(tier-1 collects ``tests/`` only).  One run per workload and trace mode at
``--seconds 1`` (the workload's minimum rounds untraced, one round
traced): about four minutes in all.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from checks import Gate  # noqa: E402

DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DEFINITION["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, text=True, capture_output=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def test_definition_names_are_wellformed_and_unique():
    names = (WORKLOADS
             + [m["name"] for m in DEFINITION["end_to_end"]]
             + [m["name"] for m in DEFINITION["per_layer"]])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert DEFINITION["paths"] == ["benchmarks/e2e"]


def test_worker_knows_exactly_the_defined_workloads():
    from workloads import SPECS

    assert sorted(SPECS) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_emits_the_defined_metrics(workload, trace):
    result, stdout = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = DEFINITION["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    if trace:
        # Span sum-check: every timed region is covered by its layer spans.
        assert result["metrics"]["trace.coverage_min"]["value"] >= 0.9
        assert "GAP:" not in stdout
        events = json.loads(
            (HERE / "out" / f"trace-{workload}.json").read_text())
        assert any(e.get("cat") == "region" for e in events["traceEvents"])
    else:
        assert all(v["value"] != 0 for v in result["metrics"].values())


def test_corrupted_solution_raises_failed_frac():
    full = sp.identity(4, format="csr") * 2.0
    b = np.arange(1.0, 5.0)
    x = b / 2.0
    gate = Gate()
    assert gate.solution((0, 0, 0), full, x, b)
    assert gate.failed == 0
    corrupted = x.copy()
    corrupted[2] += 1e-6
    assert not gate.solution((0, 0, 1), full, corrupted, b)
    assert not gate.solution((0, 0, 0), full, x + 1e-16, b)   # bits changed
    nan = x.copy()
    nan[0] = np.nan
    assert not gate.solution((0, 0, 2), full, nan, b)
    assert gate.failed / gate.attempted > 0
