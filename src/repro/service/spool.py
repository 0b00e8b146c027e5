"""File-spool front-end: the transport behind ``repro serve`` / ``repro submit``.

A spool directory is the simplest cross-process request channel that
needs no sockets: submitters drop ``<id>.json`` request files into
``SPOOL/inbox/`` (written atomically via rename), the server picks them
up, pushes them through an in-process :class:`SolveService`, and writes
``<id>.json`` + ``<id>.npy`` results into ``SPOOL/done/``.

Request file schema::

    {"id": "...", "matrix": "/path/to/m.mtx",   # .mtx/.mm or .rb/.rsa
     "nrhs": 1, "seed": 0}                       # rhs = seeded gaussian
    # or "rhs_file": "/path/to/b.npy"            # explicit rhs instead

Result file schema::

    {"id": "...", "ok": true, "tier": "factor", "queue_wait": ...,
     "simulated_seconds": ..., "coalesced_width": ..., "residual": ...,
     "x_file": "SPOOL/done/<id>.npy"}
    # or {"id": "...", "ok": false, "error": "..."} on failure
"""

from __future__ import annotations

import json
import os
import time
import uuid
from concurrent.futures import Future
from pathlib import Path

import numpy as np

from ..sparse import read_matrix_auto
from .requests import ServiceStats
from .service import (REQUEST_ERRORS, SolveService, classify_failure,
                      error_summary)

# Everything a malformed spool request can raise on top of the solver's
# own REQUEST_ERRORS: unreadable/missing files (OSError covers
# FileNotFoundError and PermissionError) and bad JSON (JSONDecodeError
# is a ValueError subclass, listed for explicitness).
SPOOL_ERRORS = REQUEST_ERRORS + (OSError, json.JSONDecodeError)

__all__ = ["submit_request", "wait_result", "SpoolServer"]

_INBOX = "inbox"
_DONE = "done"


def _failure(rid: str, exc: BaseException, failure_class: str) -> dict:
    return {"id": rid, "ok": False, "error": str(exc),
            "error_type": type(exc).__name__, "failure_class": failure_class}


def _ensure_layout(spool: Path) -> tuple[Path, Path]:
    inbox, done = spool / _INBOX, spool / _DONE
    inbox.mkdir(parents=True, exist_ok=True)
    done.mkdir(parents=True, exist_ok=True)
    return inbox, done


def submit_request(spool: str | Path, matrix: str | Path, *,
                   nrhs: int = 1, seed: int = 0,
                   rhs_file: str | Path | None = None) -> str:
    """Write one request file into the spool; returns its request id."""
    spool = Path(spool)
    inbox, _ = _ensure_layout(spool)
    rid = uuid.uuid4().hex[:12]
    payload: dict = {"id": rid, "matrix": str(Path(matrix).resolve()),
                     "nrhs": int(nrhs), "seed": int(seed)}
    if rhs_file is not None:
        payload["rhs_file"] = str(Path(rhs_file).resolve())
    tmp = inbox / f".{rid}.json.tmp"
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, inbox / f"{rid}.json")   # atomic: no partial reads
    return rid


def wait_result(spool: str | Path, request_id: str,
                timeout: float | None = None, poll: float = 0.05) -> dict:
    """Block until the result file for ``request_id`` appears; parse it."""
    path = Path(spool) / _DONE / f"{request_id}.json"
    deadline = None if timeout is None else time.monotonic() + timeout
    while not path.exists():
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError(
                f"no result for request {request_id} within {timeout}s")
        time.sleep(poll)
    return json.loads(path.read_text())


class SpoolServer:
    """Polls a spool directory and feeds requests to a :class:`SolveService`.

    The server keeps one matrix-file cache keyed by path + mtime so a
    burst of requests against the same file parses it once; the solve
    service behind it then dedupes the symbolic/numeric work.
    """

    def __init__(self, service: SolveService, spool: str | Path,
                 poll: float = 0.1):
        self.service = service
        self.spool = Path(spool)
        self.poll = poll
        self.inbox, self.done = _ensure_layout(self.spool)
        self.processed = 0
        self._matrix_cache: dict[tuple[str, float], object] = {}

    # ------------------------------------------------------------- requests

    def _load_matrix(self, path: str):
        key = (path, os.path.getmtime(path))
        a = self._matrix_cache.get(key)
        if a is None:
            a = self._matrix_cache[key] = read_matrix_auto(path)
        return a

    def _reply(self, req_path: Path, result: dict) -> None:
        rid = result["id"]
        tmp = self.done / f".{rid}.json.tmp"
        tmp.write_text(json.dumps(result))
        os.replace(tmp, self.done / f"{rid}.json")
        req_path.unlink(missing_ok=True)
        self.processed += 1

    def _submit(self, req_path: Path) -> tuple[str, Future] | None:
        """Parse and queue one request; ``None`` if it was answered here."""
        rid = req_path.stem
        try:
            req = json.loads(req_path.read_text())
            rid = req.get("id", rid)
            a = self._load_matrix(req["matrix"])
            if "rhs_file" in req:
                b = np.load(req["rhs_file"])
            else:
                rng = np.random.default_rng(int(req.get("seed", 0)))
                b = rng.standard_normal((a.n, int(req.get("nrhs", 1))))
        except SPOOL_ERRORS as exc:
            # Spool-local failure (bad JSON, missing/unreadable file):
            # the service never saw this request, so give telemetry a
            # synthetic record (request_id -1 = no service id assigned).
            self.service.trace.record_request(ServiceStats(
                request_id=-1, tier="failed", queue_wait=0.0,
                error=type(exc).__name__, error_summary=error_summary(exc),
                failure_class="spool-error"))
            self._reply(req_path, _failure(rid, exc, "spool-error"))
            return None
        try:
            future = self.service.submit(a, b)
        except REQUEST_ERRORS as exc:       # refused at the door (bad rhs)
            future = Future()
            future.set_exception(exc)
        return rid, future

    def _finish(self, req_path: Path, rid: str, future: Future) -> None:
        try:
            x, stats = future.result()
            x_file = self.done / f"{rid}.npy"
            np.save(x_file, x)
            result = {
                "id": rid, "ok": True, "tier": stats.tier,
                "queue_wait": stats.queue_wait,
                "simulated_seconds": stats.makespan,
                "coalesced_width": stats.coalesced_width,
                "residual": stats.residual,
                "x_file": str(x_file),
            }
        except REQUEST_ERRORS as exc:
            # Solver-side failure: already traced (with its failure
            # class) by the service; echo the class to the client.
            result = _failure(rid, exc, classify_failure(exc))
        self._reply(req_path, result)

    def step(self) -> int:
        """Process every request currently in the inbox; returns the count.

        Two phases, so the service queue actually fills: every request is
        parsed and submitted first (backpressure, coalescing and all the
        workers apply), then results are written as the futures complete.
        """
        paths = sorted(self.inbox.glob("*.json"))
        pending = [(path, sent) for path in paths
                   if (sent := self._submit(path)) is not None]
        for path, (rid, future) in pending:
            self._finish(path, rid, future)
        return len(paths)

    def run(self, max_requests: int | None = None,
            idle_timeout: float | None = None, once: bool = False) -> int:
        """Serve until a stop condition; returns requests processed.

        Stops when ``max_requests`` have been handled, when the inbox has
        been idle for ``idle_timeout`` seconds, after one drain pass with
        ``once``, or when a ``SPOOL/stop`` marker file appears.
        """
        stop_marker = self.spool / "stop"
        last_work = time.monotonic()
        while True:
            handled = self.step()
            if handled:
                last_work = time.monotonic()
            if once:
                return self.processed
            if max_requests is not None and self.processed >= max_requests:
                return self.processed
            if stop_marker.exists():
                stop_marker.unlink(missing_ok=True)
                return self.processed
            if (idle_timeout is not None
                    and time.monotonic() - last_work > idle_timeout):
                return self.processed
            if not handled:
                time.sleep(self.poll)
