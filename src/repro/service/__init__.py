"""Multi-tenant solve service: caching, batching, backpressure.

The production-traffic layer of the reproduction.  One-shot solves redo
ordering, symbolic analysis and factorization per request; this package
amortises all three across a stream of requests — the PEXSI-style
repeated-factorization workload of paper Section 5, generalised to many
tenants:

* :mod:`~repro.service.keys` — content hashes separating sparsity
  *pattern* (symbolic reuse) from numeric *values* (factor reuse);
* :mod:`~repro.service.caches` — the LRU byte-budgeted factor cache
  (the symbolic tier is :class:`repro.symbolic.AnalysisCache`);
* :mod:`~repro.service.requests` — per-request stats, the bounded
  request queue with coalescing steals;
* :mod:`~repro.service.service` — :class:`SolveService`, the worker
  pool tying it together;
* :mod:`~repro.service.spool` — a file-spool front-end for the
  ``repro serve`` / ``repro submit`` CLI pair.

See ``docs/service.md`` for cache-tier semantics and the knobs.
"""

from .caches import FactorCache, FactorEntry
from .keys import matrix_keys, pattern_key, values_key
from .requests import RequestQueue, ServiceOverloaded, ServiceStats, SolveRequest
from .service import ServiceConfig, ServiceCounters, SolveService
from .spool import SpoolServer, submit_request, wait_result

__all__ = [
    "FactorCache",
    "FactorEntry",
    "matrix_keys",
    "pattern_key",
    "values_key",
    "RequestQueue",
    "ServiceOverloaded",
    "ServiceStats",
    "SolveRequest",
    "ServiceConfig",
    "ServiceCounters",
    "SolveService",
    "SpoolServer",
    "submit_request",
    "wait_result",
]
