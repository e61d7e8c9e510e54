"""The concurrent cost-query service: coalescing, backpressure, stats.

:class:`CostService` wraps one :class:`~repro.sweep.SweepSession` and
answers "price this cell" queries from many concurrent asyncio clients:

* **Warm hits are synchronous.** A cell already in the session's memory
  tier resolves on the event loop without touching the executor — the
  warm path is a dict probe, so sustained warm QPS is bounded by the
  event loop, not by pricing.
* **In-flight cells coalesce.** Every cold cell gets exactly one
  per-key future for as long as its pricing is in flight; requests
  arriving meanwhile — including overlapping grids from other clients —
  await that future instead of re-pricing. M identical in-flight
  queries trigger exactly one compute (pinned by
  ``tests/serve/test_service.py``).
* **Cold misses are backpressured.** At most ``max_pending`` cells may
  be in flight; a request whose *new* cold cells would exceed the cap
  is shed atomically (none of its cells enqueue) with
  :class:`ServiceOverloaded`, carrying a ``retry_after_s`` estimated
  from the observed per-cell pricing time and the queue depth — the
  HTTP layer maps it to ``429`` + ``Retry-After``. Warm and coalesced
  requests are never shed.
* **Cold cells price heaviest-first** on a small thread-pool executor,
  ordered by the session's scheduling estimate
  (:meth:`~repro.sweep.SweepSession.estimator_for` — observed node
  counts when the cache has seen the graph), so one request's tail
  latency is the LPT packing of its own cells.

* **Failures are bounded in time and blast radius.** A per-request
  **deadline** (``deadline_s``, per-call or service-wide) turns a stuck
  pricing into :class:`DeadlineExceeded` for *that caller* without
  cancelling the shared in-flight future other requests coalesced onto.
  A **circuit breaker** (:class:`CircuitBreaker`) watches consecutive
  pricing failures: after ``breaker_threshold`` of them it opens —
  cold misses are shed with :class:`ServiceOverloaded` (``reason=
  "breaker"`` → HTTP 429 + Retry-After) and ``/healthz`` reports
  degraded — until a reset window passes and a single half-open probe
  succeeds. Warm hits keep being served the whole time: a broken
  pricer never takes down the cache tier.

The service is confined to the event loop that first uses it: all
coalescing/backpressure state is mutated on the loop thread only, so no
locks are needed above the (thread-safe) cache. Pricing runs on
``pricing_threads`` executor threads — the default of 1 serializes
pricing (graph builds are CPU-bound Python; parallelism across requests
comes from coalescing and the cache, not from concurrent builds), and
the underlying :class:`~repro.sweep.GraphCache`/
:class:`~repro.sweep.PersistentCache` are safe if raised.

Both halves of that discipline are lint-checked (docs/analysis.md): the
``REPRO-C003`` rule rejects blocking calls in the ``async def`` bodies
here, and ``REPRO-C001`` rejects any lock taken while another is held
in the modules the executor threads run (within one module: calls into
another module are not followed), so the cache locks they contend on
cannot be nested into a lock-order deadlock.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Union

from repro.perf.report import IterationCost
from repro.sweep.runner import SweepSession, enumerate_cells, price_cell
from repro.sweep.schedule import order_by_weight
from repro.sweep.spec import SweepCell, SweepSpec
from repro.sweep.store import SweepResult


class ServiceOverloaded(RuntimeError):
    """Shed signal: retry after a delay.

    ``reason`` says why: ``"capacity"`` (the cold-miss queue is full) or
    ``"breaker"`` (the circuit breaker is open after repeated pricing
    failures). Both map to HTTP 429 + ``Retry-After``.
    """

    def __init__(self, retry_after_s: float, pending: int, capacity: int,
                 reason: str = "capacity"):
        if reason == "breaker":
            message = (
                f"circuit breaker open after repeated pricing failures; "
                f"retry in {retry_after_s:.2f}s"
            )
        else:
            message = (
                f"cold-miss queue full ({pending} in flight, capacity "
                f"{capacity}); retry in {retry_after_s:.2f}s"
            )
        super().__init__(message)
        self.retry_after_s = retry_after_s
        self.pending = pending
        self.capacity = capacity
        self.reason = reason


class DeadlineExceeded(RuntimeError):
    """A request's deadline expired with cells still pricing.

    Raised to the *caller* only — the shared in-flight futures keep
    running (other coalesced requests, with laxer deadlines, still get
    their answers, and the eventual results still land in the cache).
    """

    def __init__(self, deadline_s: float, unresolved: int):
        super().__init__(
            f"request deadline of {deadline_s:.3f}s expired with "
            f"{unresolved} cell(s) still pricing"
        )
        self.deadline_s = deadline_s
        self.unresolved = unresolved


class CircuitBreaker:
    """Consecutive-failure breaker guarding the cold pricing path.

    Three states:

    * ``closed`` — healthy; every cold miss is admitted. ``threshold``
      *consecutive* pricing failures open it (one success resets the
      count).
    * ``open`` — cold misses are shed without touching the executor.
      After ``reset_s`` seconds the next :meth:`allow` transitions to:
    * ``half_open`` — exactly one probe request is admitted; its success
      closes the breaker, its failure re-opens it (and restarts the
      reset clock). Further calls while the probe is in flight are shed.

    The breaker sees *pricing outcomes only* — warm hits and coalesced
    waits never touch it, so a broken pricer degrades the service to
    warm-only instead of letting every request pile onto a failing
    executor. ``opens`` counts closed/half-open -> open transitions.
    """

    def __init__(self, threshold: int = 5, reset_s: float = 1.0,
                 clock: Callable[[], float] = time.monotonic):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if reset_s <= 0:
            raise ValueError(f"reset_s must be positive, got {reset_s}")
        self.threshold = threshold
        self.reset_s = reset_s
        self.opens = 0
        self._clock = clock
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        """``closed`` / ``open`` / ``half_open`` (as last acted upon)."""
        return self._state

    @property
    def failures(self) -> int:
        """Current consecutive-failure count."""
        return self._failures

    def remaining_s(self) -> float:
        """Seconds until an open breaker will admit its half-open probe."""
        if self._state != "open":
            return 0.0
        return max(0.0, self.reset_s - (self._clock() - self._opened_at))

    def allow(self) -> bool:
        """May a cold pricing proceed right now? (May consume the probe.)"""
        if self._state == "closed":
            return True
        if self._state == "open":
            if self._clock() - self._opened_at < self.reset_s:
                return False
            self._state = "half_open"
            self._probing = True
            return True
        if self._probing:
            return False
        self._probing = True
        return True

    def record_success(self) -> None:
        self._failures = 0
        self._probing = False
        self._state = "closed"

    def record_failure(self) -> None:
        self._failures += 1
        self._probing = False
        if self._state == "half_open" or self._failures >= self.threshold:
            if self._state != "open":
                self.opens += 1
            self._state = "open"
            self._opened_at = self._clock()


@dataclass
class ServiceStats:
    """Request-level counters (the cache keeps the tier-level ones).

    ``warm_hits`` are cells served synchronously from the memory tier;
    ``coalesced`` are cells that awaited another request's in-flight
    future; ``priced`` are executor dispatches (splitting disk hits
    from true cold computes is the cache stats' job); ``shed`` counts
    whole requests rejected by backpressure — of which ``breaker_shed``
    were rejected by an open circuit breaker rather than the queue cap.
    ``errors`` counts pricing dispatches that raised;
    ``deadline_exceeded`` counts requests whose deadline expired.
    """

    requests: int = 0
    cells: int = 0
    warm_hits: int = 0
    coalesced: int = 0
    priced: int = 0
    shed: int = 0
    breaker_shed: int = 0
    errors: int = 0
    deadline_exceeded: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class CostService:
    """Concurrent cost queries over one sweep session (see module doc)."""

    def __init__(
        self,
        session: SweepSession,
        max_pending: int = 256,
        pricing_threads: int = 1,
        min_retry_after_s: float = 0.05,
        pricer: Optional[Callable[[SweepCell], IterationCost]] = None,
        deadline_s: Optional[float] = None,
        breaker_threshold: int = 5,
        breaker_reset_s: float = 1.0,
    ):
        if max_pending <= 0:
            raise ValueError(f"max_pending must be positive, got {max_pending}")
        if pricing_threads <= 0:
            raise ValueError(
                f"pricing_threads must be positive, got {pricing_threads}"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive, got {deadline_s}"
            )
        self.session = session
        self.max_pending = max_pending
        self.pricing_threads = pricing_threads
        self.min_retry_after_s = min_retry_after_s
        self.deadline_s = deadline_s
        self.breaker = CircuitBreaker(breaker_threshold, breaker_reset_s)
        self.stats = ServiceStats()
        self._pricer = pricer or (
            lambda cell: price_cell(cell, session.cache)
        )
        self._executor = ThreadPoolExecutor(
            max_workers=pricing_threads, thread_name_prefix="price"
        )
        self._inflight: Dict[str, asyncio.Future] = {}
        self._pending = 0
        self._avg_price_s: Optional[float] = None

    # -- introspection -------------------------------------------------------
    @property
    def pending(self) -> int:
        """Cells currently in flight (enqueued or pricing)."""
        return self._pending

    def retry_after_s(self) -> float:
        """Current shed-retry estimate: queue depth x observed price time."""
        per_cell = self._avg_price_s or self.min_retry_after_s
        estimate = per_cell * (self._pending + 1) / self.pricing_threads
        return max(self.min_retry_after_s, estimate)

    def health(self) -> Dict[str, object]:
        """Liveness + breaker state, JSON-shaped (``/healthz``).

        ``ok`` is True only with the breaker closed; an open or probing
        breaker reports degraded (the HTTP layer maps that to 503 with a
        ``Retry-After`` of the breaker's remaining reset window).
        """
        state = self.breaker.state
        return {
            "ok": state == "closed",
            "breaker": state,
            "retry_after_s": max(self.min_retry_after_s,
                                 self.breaker.remaining_s()),
        }

    def stats_snapshot(self) -> Dict[str, object]:
        """Service + cache + disk-tier counters, JSON-shaped (``/stats``)."""
        snap: Dict[str, object] = {
            "service": {**self.stats.as_dict(), "pending": self._pending,
                        "max_pending": self.max_pending,
                        "breaker": self.breaker.state,
                        "breaker_opens": self.breaker.opens},
            "cache": self.session.stats.as_dict(),
        }
        persist = self.session.cache.persist
        if persist is not None:
            snap["persist"] = {**persist.stats.as_dict(),
                               "cache_dir": persist.root}
        return snap

    # -- the query API -------------------------------------------------------
    async def price_cell(self, cell: SweepCell,
                         deadline_s: Optional[float] = None) -> IterationCost:
        """Price one cell (coalesced/backpressured like any request)."""
        [cost] = await self.price_cells([cell], deadline_s=deadline_s)
        return cost

    async def price_cells(
        self, cells: Sequence[SweepCell],
        deadline_s: Optional[float] = None,
    ) -> List[IterationCost]:
        """Price *cells*, returning costs in request order.

        Duplicates (by content key) within the request are free. Raises
        :class:`ServiceOverloaded` — before enqueueing anything — if the
        request's new cold cells would overflow the pending cap, or if
        the circuit breaker is open (``reason="breaker"``).

        ``deadline_s`` (defaulting to the service-wide ``deadline_s``)
        bounds this request's wall time: on expiry it raises
        :class:`DeadlineExceeded` without cancelling the shared
        in-flight futures (coalesced requests are unaffected and the
        results still warm the cache).
        """
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive, got {deadline_s}"
            )
        if deadline_s is None:
            deadline_s = self.deadline_s
        self.stats.requests += 1
        self.stats.cells += len(cells)
        cache = self.session.cache

        results: Dict[str, IterationCost] = {}
        waits: Dict[str, Awaitable[IterationCost]] = {}
        cold: List[SweepCell] = []
        seen = set()
        for cell in cells:
            key = cell.key()
            if key in seen:
                continue
            seen.add(key)
            cost = cache.cached_cost(key)
            if cost is not None:
                self.stats.warm_hits += 1
                results[key] = cost
            elif key in self._inflight:
                self.stats.coalesced += 1
                waits[key] = self._inflight[key]
            else:
                cold.append(cell)

        if cold:
            # Capacity check first: a cap shed must not consume the
            # breaker's single half-open probe.
            if self._pending + len(cold) > self.max_pending:
                self.stats.shed += 1
                raise ServiceOverloaded(
                    self.retry_after_s(), self._pending, self.max_pending
                )
            if not self.breaker.allow():
                self.stats.shed += 1
                self.stats.breaker_shed += 1
                raise ServiceOverloaded(
                    max(self.min_retry_after_s, self.breaker.remaining_s()),
                    self._pending, self.max_pending, reason="breaker",
                )
            loop = asyncio.get_running_loop()
            for cell in order_by_weight(
                cold, self.session.estimator_for(cold)
            ):
                key = cell.key()
                fut: asyncio.Future = loop.create_future()
                self._inflight[key] = fut
                self._pending += 1
                self.stats.priced += 1
                loop.create_task(self._price_in_executor(key, cell, fut))
                waits[key] = fut

        if waits:
            if deadline_s is None:
                for key, awaited in zip(
                    waits, await asyncio.gather(*waits.values())
                ):
                    results[key] = awaited
            else:
                # asyncio.wait (not wait_for/gather-with-timeout): the
                # shared futures must survive this caller's deadline.
                done, unresolved = await asyncio.wait(
                    list(waits.values()), timeout=deadline_s
                )
                if unresolved:
                    self.stats.deadline_exceeded += 1
                    for fut in done:
                        fut.exception()  # retrieve; nobody else will
                    for fut in unresolved:
                        # Still pricing for whoever coalesced onto them;
                        # mark their eventual exception retrieved so an
                        # abandoned failure doesn't log as a leak.
                        fut.add_done_callback(
                            lambda f: f.cancelled() or f.exception()
                        )
                    raise DeadlineExceeded(deadline_s, len(unresolved))
                for key, fut in waits.items():
                    results[key] = fut.result()
        return [results[cell.key()] for cell in cells]

    async def price_spec(
        self, spec: Union[SweepSpec, Sequence[SweepSpec]]
    ) -> SweepResult:
        """Price a whole grid; the queryable store, like ``run_sweep``."""
        cells = enumerate_cells(spec)
        costs = await self.price_cells(cells)
        return SweepResult.from_cells(
            cells, {c.key(): cost for c, cost in zip(cells, costs)}
        )

    # -- internals -----------------------------------------------------------
    async def _price_in_executor(
        self, key: str, cell: SweepCell, fut: asyncio.Future
    ) -> None:
        loop = asyncio.get_running_loop()
        t0 = time.perf_counter()
        try:
            cost = await loop.run_in_executor(
                self._executor, self._pricer, cell
            )
        except Exception as exc:
            # Failures take executor time too: feed the EWMA on both
            # paths so the shed-retry estimate stays honest under a
            # failing pricer instead of freezing at the last success.
            self._observe(time.perf_counter() - t0)
            self.stats.errors += 1
            self.breaker.record_failure()
            if not fut.done():
                fut.set_exception(exc)
        else:
            self._observe(time.perf_counter() - t0)
            self.breaker.record_success()
            if not fut.done():
                fut.set_result(cost)
        finally:
            self._pending -= 1
            self._inflight.pop(key, None)

    def _observe(self, elapsed_s: float) -> None:
        """EWMA of per-cell pricing time, feeding the retry estimate."""
        if self._avg_price_s is None:
            self._avg_price_s = elapsed_s
        else:
            self._avg_price_s = 0.8 * self._avg_price_s + 0.2 * elapsed_s

    def close(self) -> None:
        """Stop the pricing executor (the session stays open — callers
        own its lifecycle, since sessions are shareable across services)."""
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "CostService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
