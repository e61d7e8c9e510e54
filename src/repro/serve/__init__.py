"""Sweep-as-a-service: a concurrent cost-query front end.

The sweep engine prices any model x hardware x scenario x batch x
precision cell at interactive latency once warm (``BENCH_sweep.json``);
this package serves that capability to many concurrent clients:

* :class:`CostService` — the asyncio core: request coalescing (per-key
  in-flight futures; overlapping grids share one compute), synchronous
  warm hits, bounded backpressure on cold misses
  (:class:`ServiceOverloaded` -> shed with retry-after), per-request
  deadlines (:class:`DeadlineExceeded`) and a consecutive-failure
  :class:`CircuitBreaker` that degrades ``/healthz`` and sheds cold
  misses while the pricer is broken (see ``docs/robustness.md``);
* :class:`HttpServer` / :func:`serve` — a dependency-free JSON-over-HTTP
  front end (``POST /price``, ``GET /stats``, ``GET /healthz``);
* :class:`ServingClient` — the matching synchronous client
  (:class:`RetryLater` implements the client half of the shed contract);
* :mod:`repro.serve.wire` — the one JSON <-> sweep-object translation
  all of the above share.

Start one from the CLI: ``python -m repro.experiments serve --workers 4``.
The underlying cache directory is multi-process safe (sharded, one
``flock`` per shard — see ``docs/serving.md`` for the cache-sharing
contract).
"""

from repro.serve.client import RetryLater, ServingClient, ServingError
from repro.serve.http import MAX_BODY_BYTES, HttpServer, serve
from repro.serve.service import (
    CircuitBreaker,
    CostService,
    DeadlineExceeded,
    ServiceOverloaded,
    ServiceStats,
)
from repro.serve.wire import (
    cell_from_json,
    cell_to_json,
    cells_from_json,
    grid_from_json,
    result_to_json,
)

__all__ = [
    "CircuitBreaker",
    "CostService",
    "DeadlineExceeded",
    "HttpServer",
    "MAX_BODY_BYTES",
    "RetryLater",
    "ServiceOverloaded",
    "ServiceStats",
    "ServingClient",
    "ServingError",
    "cell_from_json",
    "cell_to_json",
    "cells_from_json",
    "grid_from_json",
    "result_to_json",
    "serve",
]
