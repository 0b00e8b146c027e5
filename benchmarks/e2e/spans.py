"""Spans recorded from outside the solver, around calls into its layers.

The benchmark wraps every call it makes into a layer's public function
in ``tracer.span(name)``.  A span whose ``region`` flag is set is a timed
end-to-end region (a cold start, a warm cycle, one client's closed loop);
its direct children are the layer calls made inside it, so the region's
self time — region minus children — is the benchmark's own overhead and
the sum-check is ``children / region >= 0.9``.

Spans live in memory and are written once, at exit, as Chrome
trace-event JSON (open in https://ui.perfetto.dev).  A disabled tracer
hands out one shared no-op context manager, so untraced rounds pay a
dictionary-free function call per layer call and nothing else.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

COVERAGE_FLOOR = 0.9

_NULL = nullcontext()


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index into Tracer.spans, -1 = root
    tid: int = 0
    region: bool = False
    args: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; thread-safe, nestable per thread."""

    def __init__(self, enabled: bool, **common_args) -> None:
        self.enabled = enabled
        self.common_args = common_args   # workload / seed stamped on every span
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def span(self, name: str, *, region: bool = False, **args):
        """Context manager timing one call (no-op when disabled)."""
        if not self.enabled:
            return _NULL
        return self._record(name, region, args)

    @contextmanager
    def _record(self, name: str, region: bool, args: dict):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(name=name, start=0.0, parent=stack[-1] if stack else -1,
                    tid=threading.get_ident(), region=region, args=args)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    # ------------------------------------------------------------ queries

    def seconds(self, name: str, within: str | None = None) -> list[float]:
        """Durations of the spans called ``name``, in recording order;
        with ``within``, only those whose parent span has that name."""
        return [s.seconds for s in self.spans if s.name == name and (
            within is None
            or (s.parent >= 0 and self.spans[s.parent].name == within))]

    def region_shares(self) -> dict[str, dict[str, float]]:
        """Per region name: each child layer's share of the region's time.

        ``"self"`` is what the children leave uncovered — time spent in
        the benchmark's own code inside the timed region.
        """
        totals: dict[str, float] = {}
        children: dict[str, dict[str, float]] = {}
        for span in self.spans:
            if span.region:
                totals[span.name] = totals.get(span.name, 0.0) + span.seconds
                children.setdefault(span.name, {})
            if span.parent >= 0 and self.spans[span.parent].region:
                bucket = children.setdefault(self.spans[span.parent].name, {})
                bucket[span.name] = bucket.get(span.name, 0.0) + span.seconds
        shares: dict[str, dict[str, float]] = {}
        for name, total in totals.items():
            if total <= 0.0:
                continue
            part = {child: secs / total
                    for child, secs in sorted(children[name].items())}
            part["self"] = 1.0 - sum(part.values())
            shares[name] = part
        return shares

    def coverage_gaps(self) -> dict[str, float]:
        """Regions whose child spans cover less than the floor, by name."""
        return {name: 1.0 - part["self"]
                for name, part in self.region_shares().items()
                if 1.0 - part["self"] < COVERAGE_FLOOR}

    # ------------------------------------------------------------- export

    def chrome_events(self, pid: int = 1) -> list[dict]:
        """Complete ('X') trace events, microseconds from the first span."""
        if not self.spans:
            return []
        origin = min(s.start for s in self.spans)
        tids = {tid: i for i, tid in
                enumerate(sorted({s.tid for s in self.spans}))}
        events = []
        for index, span in enumerate(self.spans):
            args = dict(self.common_args, id=index, parent=span.parent,
                        **span.args)
            events.append({
                "name": span.name, "ph": "X", "pid": pid,
                "tid": tids[span.tid],
                "cat": "region" if span.region else "layer",
                "ts": (span.start - origin) * 1e6,
                "dur": span.seconds * 1e6, "args": args})
        return events


def write_chrome_trace(path: Path, events: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))
