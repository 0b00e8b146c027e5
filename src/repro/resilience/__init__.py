"""Resilience subsystem: fault injection, hardened delivery, restart.

Three pillars (see ``docs/resilience.md``):

* :mod:`repro.resilience.faults` — seeded, deterministic fault injection
  into the simulated PGAS runtime (drop / duplicate / reorder / delay
  spike / inbox stall / rank pause / rank crash);
* :mod:`repro.resilience.delivery` — sequence-numbered, acknowledged
  signal-RPCs with idempotent dedup and DES-clocked retry + watchdog;
* :mod:`repro.resilience.checkpoint` — supernode-granular checkpoints
  cut at level frontiers (stream prefixes) and bit-identical restart.

The eager surface is import-light (safe for ``core/base.py``); the
engine-coupled pieces (checkpoint, runner, chaos) load lazily.
"""

from __future__ import annotations

from typing import Any

from .errors import (CheckpointIOError, FaultPlanError, RankUnresponsive,
                     ResilienceError)
from .faults import FAULT_KINDS, FaultInjector, FaultPlan, FaultRecord
from .options import ResilienceOptions

__all__ = [
    "ResilienceError", "RankUnresponsive", "CheckpointIOError",
    "FaultPlanError", "FAULT_KINDS", "FaultPlan", "FaultRecord",
    "FaultInjector", "ResilienceOptions", "ReliableTransport",
    "CheckpointManager", "CheckpointState",
    "run_resilient", "run_chaos",
]

_LAZY = {
    "ReliableTransport": ("delivery", "ReliableTransport"),
    "CheckpointManager": ("checkpoint", "CheckpointManager"),
    "CheckpointState": ("checkpoint", "CheckpointState"),
    "run_resilient": ("runner", "run_resilient"),
    "run_chaos": ("chaos", "run_chaos"),
}


def __getattr__(name: str) -> Any:
    entry = _LAZY.get(name)
    if entry is None:
        raise AttributeError(
            f"module 'repro.resilience' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{entry[0]}", __name__)
    value = getattr(module, entry[1])
    globals()[name] = value
    return value
