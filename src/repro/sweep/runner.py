"""Sweep execution: price every grid cell, serially or across cores.

``run_sweep`` accepts one spec or several (a figure whose grid is not a
pure cross product — e.g. Figure 6's per-architecture mini-batches —
declares one small spec per leg). Cells are deduplicated by content key,
priced once each, and the results are assembled **in cell-enumeration
order** regardless of how many workers priced them, so serial and
parallel runs produce the same store cell-for-cell.

Execution lives in :class:`SweepSession`, which owns the three pricing
tiers end to end:

* a :class:`GraphCache` (optionally backed by an on-disk
  :class:`~repro.sweep.persist.PersistentCache`, so warm re-runs survive
  process restarts);
* a **long-lived worker pool** reused across ``session.run`` calls — no
  per-figure fork storms, and worker-side caches stay warm between runs;
* the affinity scheduler (:mod:`repro.sweep.schedule`): unique cells are
  grouped by restructured graph, groups sharing a built graph travel as
  one indivisible bundle, and bundles dispatch heaviest-first — so
  prefix cache hits inside a worker are guaranteed, not merely likely.

Workers ship their :class:`CacheStats` deltas back with the priced
cells, and the session merges them into the caller-visible stats, so
hit/miss reporting after a parallel run reflects what actually happened.
The pricing arithmetic is pure float computation on immutable inputs, so
serial, parallel and disk-warmed runs are all bit-identical.

Parallel dispatch is **supervised** (see
:meth:`SweepSession._run_supervised`): a crashed, killed or hung worker
fails one bundle attempt, not the sweep — the supervisor detects worker
deaths via the pool's pid table, bounds attempts with per-bundle
deadlines, re-forks the pool when a worker is unrecoverable, retries
surviving cells under a :class:`~repro.sweep.retry.RetryPolicy`, and
degrades exhausted cells to serial in-process pricing. The recovery
trail lands in :attr:`SweepSession.last_report` (a
:class:`~repro.sweep.retry.FailureReport`); results remain bit-identical
to an undisturbed run because pricing is deterministic wherever it
executes. Chaos coverage lives in ``tests/chaos/`` via
:mod:`repro.faults`.

``run_sweep`` remains the convenience front door: it delegates to the
active session installed by :func:`use_session` (the experiments CLI
installs one around a whole multi-figure run), or spins up an ephemeral
session for the single call.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import multiprocessing
import random
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro import faults
from repro.analysis.bandwidth import FIG4_KINDS
from repro.analysis.static.verifier import maybe_verify_graph
from repro.errors import (
    CellPricingError,
    GraphVerificationError,
    SweepExecutionError,
)
from repro.hw.presets import get_preset
from repro.hw.spec import HardwareSpec
from repro.perf.report import IterationCost
from repro.perf.simulator import simulate
from repro.sweep.cache import CacheStats, GraphCache
from repro.sweep.persist import PersistentCache
from repro.sweep.retry import FailureReport, RetryPolicy
from repro.sweep.schedule import (
    CostEstimate,
    observed_cost_estimate,
    plan_schedule,
)
from repro.sweep.spec import SweepCell, SweepSpec
from repro.sweep.store import SweepResult

#: The op kinds whose sweeps become free under the ``infinite_bw`` axis
#: (Figure 4's hypothetical machine: BN/ReLU data remapped into L1).
INFINITE_BW_KINDS = FIG4_KINDS


def cell_hardware(cell: SweepCell) -> HardwareSpec:
    """Resolve a cell's hardware axes to a concrete :class:`HardwareSpec`.

    Fails loudly (``HardwareSpecError``) if the preset has no capability
    table for the cell's precision — every preset answers for fp16/bf16/
    fp32/fp64 via the fp32 fallback, so this only rejects unknown strings.
    """
    hw = get_preset(cell.hardware)
    hw.peak_flops_for(cell.precision)
    if cell.bandwidth_scale != 1.0:
        hw = hw.with_bandwidth(hw.dram_bandwidth * cell.bandwidth_scale)
    return hw


def price_cell(cell: SweepCell, cache: Optional[GraphCache] = None,
               probe_disk: bool = True) -> IterationCost:
    """Price one grid cell (graph build and restructuring memoized)."""
    cache = cache if cache is not None else GraphCache()

    def compute() -> IterationCost:
        faults.fire("pricer.compute", key=cell.key())
        try:
            graph = cache.scenario_graph(
                cell.model, cell.batch, cell.scenario, cell.precision
            )
            # Re-check even a memory hit when verification is on: a graph
            # poisoned *after* it was cached must degrade to a clean
            # sweep error here, never to a deep kernel traceback.
            maybe_verify_graph(graph, context=f"pricing cell {cell.key()}")
        except GraphVerificationError as exc:
            raise SweepExecutionError(
                f"cell {cell.key()} ({cell.model}/{cell.scenario}"
                f"@{cell.precision}, batch {cell.batch}): malformed "
                f"scenario graph: {exc}",
                cell_keys=(cell.key(),),
            ) from exc
        kinds = INFINITE_BW_KINDS if cell.infinite_bw else frozenset()
        return simulate(graph, cell_hardware(cell), scenario=cell.scenario,
                        infinite_bw_kinds=kinds, precision=cell.precision)

    return cache.cost(cell.key(), compute, probe_disk=probe_disk)


# -- worker-process plumbing ----------------------------------------------------
_WORKER_CACHE: Optional[GraphCache] = None


def _init_worker(
    cache_dir: Optional[str] = None,
    max_bytes: Optional[int] = None,
    max_entries: Optional[int] = None,
    gc_interval: Optional[int] = None,
) -> None:
    """Build the worker-side cache, mirroring the session's disk caps.

    Workers write the shared disk tier too, so they must enforce the
    same ``max_bytes``/``max_entries`` — uncapped workers would grow the
    directory unbounded between session-close GCs (and a long-lived
    server never closes). The caps trigger the cache's own incremental
    GC every ``gc_interval`` stores, inside the worker.

    Also installs any env-published fault plan (:mod:`repro.faults`), so
    chaos tests inject into real forked workers — replacement workers
    after a re-fork re-install it too.
    """
    global _WORKER_CACHE
    faults.install_from_env()
    persist = None
    if cache_dir:
        kwargs = {"max_bytes": max_bytes, "max_entries": max_entries}
        if gc_interval is not None:
            kwargs["gc_interval"] = gc_interval
        persist = PersistentCache(cache_dir, **kwargs)
    _WORKER_CACHE = GraphCache(persist=persist)


def _price_bundle_in_worker(
    cells: Tuple[SweepCell, ...],
    probe_disk: bool = False,
) -> Tuple[List[Tuple[str, IterationCost]], dict,
           Optional[CellPricingError]]:
    """Price one affinity bundle; return (priced, stats delta, failure).

    The worker cache survives across bundles (and across ``session.run``
    calls in a long-lived pool), so the delta — not the absolute counters
    — is what this run actually did.

    Failure handling: a pricer exception stops the bundle but the cells
    priced *before* it still ship back (plus everything already written
    through to the shared disk tier), so a mid-bundle failure never
    discards finished work. The exception is normalized into a
    :class:`~repro.errors.CellPricingError` naming the failed cell —
    always picklable, so the supervisor can retry exactly the remainder.
    ``probe_disk`` is False on first dispatch (the session just
    established the cost-tier misses) and True on retries, where an
    earlier attempt may have persisted some of these cells already.
    """
    cache = _WORKER_CACHE if _WORKER_CACHE is not None else GraphCache()
    snapshot = cache.stats.as_dict()
    faults.fire("worker.bundle", cells=len(cells))
    priced: List[Tuple[str, IterationCost]] = []
    failure: Optional[CellPricingError] = None
    for cell in cells:
        try:
            priced.append(
                (cell.key(), price_cell(cell, cache, probe_disk=probe_disk))
            )
        except Exception as exc:
            failure = CellPricingError(
                f"pricing {cell.label()} failed: "
                f"{type(exc).__name__}: {exc}",
                cell_keys=(cell.key(),),
            )
            break
    return priced, cache.stats.delta_since(snapshot), failure


def enumerate_cells(
    spec: Union[SweepSpec, Sequence[SweepSpec]],
) -> List[SweepCell]:
    """Cells of one spec, or of several specs concatenated in order."""
    specs = [spec] if isinstance(spec, SweepSpec) else list(spec)
    cells: List[SweepCell] = []
    for s in specs:
        cells.extend(s.cells())
    return cells


@dataclass
class _Attempt:
    """One in-flight bundle dispatch under supervision.

    ``deadline`` (monotonic) is the bundle timeout if the policy has
    one; a worker death tightens it to the death-grace window. Mutable
    on purpose — the supervisor adjusts deadlines in place.
    """

    cells: Tuple[SweepCell, ...]
    attempt: int
    result: "multiprocessing.pool.AsyncResult"
    deadline: Optional[float]


class SweepSession:
    """Reusable sweep execution context: caches, scheduler, warm pool.

    Parameters
    ----------
    workers:
        Default worker-process count for :meth:`run`; ``None`` or ``1``
        prices serially in-process. The pool is created on first
        parallel use and kept warm until :meth:`close`.
    cache:
        A :class:`GraphCache` to adopt (e.g. one pre-warmed by earlier
        direct ``run_sweep`` calls). A fresh one is created otherwise.
        NOTE: when ``cache_dir`` is also given, the adopted cache gets
        the persistent tier attached *permanently* — it keeps reading
        and writing the cache directory after the session closes.
    cache_dir:
        Directory for the persistent tier. When set, the session's cache
        — and every worker's — reads and writes content-keyed cost/graph
        files there, so re-runs after a restart price nothing.
    estimate:
        Optional per-cell cost estimate for the scheduler's bin packing.
        When omitted, the session feeds observed node counts (persisted
        alongside costs) back into the scheduler and falls back to the
        static guess only for graphs it has never seen.
    max_cache_bytes / max_cache_entries:
        Caps on the persistent tier (``None`` = unbounded). Enforced
        LRU-by-use via :meth:`PersistentCache.gc`, which also runs on
        :meth:`close` — so a bounded cache stays bounded across sessions.
        Ignored when an adopted ``cache`` brings its own persistent tier.
    retry:
        The :class:`~repro.sweep.retry.RetryPolicy` governing supervised
        dispatch: per-bundle timeouts, worker-death grace, retry attempts
        with backoff, and the final serial-degrade path. Defaults to
        three attempts with no bundle timeout. After every :meth:`run`,
        :attr:`last_report` holds the run's
        :class:`~repro.sweep.retry.FailureReport`.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[GraphCache] = None,
        cache_dir: Optional[str] = None,
        estimate: Optional[CostEstimate] = None,
        max_cache_bytes: Optional[int] = None,
        max_cache_entries: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        persist = PersistentCache(
            cache_dir, max_bytes=max_cache_bytes, max_entries=max_cache_entries
        ) if cache_dir else None
        if cache is None:
            cache = GraphCache(persist=persist)
        elif persist is not None and cache.persist is None:
            cache.persist = persist
        self.cache = cache
        self.workers = workers
        self.estimate = estimate
        self.retry = retry if retry is not None else RetryPolicy()
        self.last_report: Optional[FailureReport] = None
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._pool_size = 0
        self._pool_pids: FrozenSet[int] = frozenset()

    # -- lifecycle -----------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """Merged stats: session-side activity plus worker deltas."""
        return self.cache.stats

    @property
    def cache_dir(self) -> Optional[str]:
        return self.cache.persist.root if self.cache.persist else None

    def close(self) -> None:
        """Shut the worker pool down (caches are kept, disk tier GC'd).

        The pool teardown is graceful: workers get to finish (and
        atomically publish) whatever they are mid-way through before
        exiting, with a bounded ``terminate`` fallback for a wedged
        worker — a plain ``Pool.terminate`` could SIGTERM a worker
        mid-``store`` and discard finished work.
        """
        self._teardown_pool()
        if self.cache.persist is not None:
            # Enforce the configured caps and age out quarantine files;
            # a no-op beyond the quarantine sweep when uncapped.
            self.cache.persist.gc()

    def _teardown_pool(self, graceful: bool = True,
                       timeout_s: float = 5.0) -> None:
        """Retire the worker pool without touching the caches.

        Pool growth and fault-path re-forks call this directly — pool
        lifecycle must never trigger the disk-tier GC that :meth:`close`
        runs (a mid-run GC could evict entries the rest of the run is
        about to read). ``graceful=False`` is the fault path: the pool
        may hold a hung or poisoned worker, so in-flight work is
        abandoned immediately (the supervisor retries it anyway).
        """
        pool, self._pool = self._pool, None
        self._pool_size = 0
        self._pool_pids = frozenset()
        if pool is None:
            return
        if graceful:
            pool.close()
            procs = list(pool._pool)
            deadline = time.monotonic() + timeout_s
            while (any(p.is_alive() for p in procs)
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            if any(p.is_alive() for p in procs):
                pool.terminate()
        else:
            pool.terminate()
        pool.join()

    def __enter__(self) -> "SweepSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _pool_for(self, workers: int, bundles: int):
        """The warm pool, grown to fit the current run.

        Size is capped by this run's bundle count (extra processes could
        never receive work). A later run wanting more parallelism than
        the pool has is the one case that re-forks — the pool is
        replaced at the larger size, and since it only ever grows, that
        happens at most a handful of times per session (never once the
        configured ``workers`` is reached). Excess bundles queue.
        Growth retires the old pool via :meth:`_teardown_pool`, never
        :meth:`close` — growing must not run the disk-tier GC mid-run.
        """
        target = max(1, min(workers, bundles))
        if self._pool is not None and self._pool_size < target:
            self._teardown_pool()
        if self._pool is None:
            persist = self.cache.persist
            self._pool = multiprocessing.Pool(
                target,
                initializer=_init_worker,
                initargs=(
                    self.cache_dir,
                    persist.max_bytes if persist else None,
                    persist.max_entries if persist else None,
                    persist.gc_interval if persist else None,
                ),
            )
            self._pool_size = target
            self._pool_pids = self._worker_pids()
        return self._pool

    def _worker_pids(self) -> FrozenSet[int]:
        """The pool's current worker pids (empty without a pool).

        Reads the pool's process table directly: the maintenance thread
        replaces dead workers in place, so a changed pid set *is* the
        worker-death signal the supervisor watches for.
        """
        if self._pool is None:
            return frozenset()
        return frozenset(
            p.pid for p in list(self._pool._pool) if p.pid is not None
        )

    # -- execution -----------------------------------------------------------
    def run(
        self,
        spec: Union[SweepSpec, Sequence[SweepSpec]],
        workers: Optional[int] = None,
    ) -> SweepResult:
        """Price a grid and return the queryable result store.

        ``workers`` overrides the session default for this run only.
        """
        cells = enumerate_cells(spec)
        cache = self.cache

        # Deduplicate by content key: identical cells (within or across
        # specs) are priced once and fanned back out to every position.
        unique: List[SweepCell] = []
        seen = set()
        for cell in cells:
            if cell.key() not in seen:
                seen.add(cell.key())
                unique.append(cell)

        # Tier 1: cells already in memory never reach the scheduler.
        to_price = [c for c in unique if cache.cached_cost(c.key()) is None]
        cache.stats.cost_hits += len(unique) - len(to_price)

        # Tier 2: cells on disk load here, so a warm-disk run prices
        # nothing and forks nothing.
        if cache.persist is not None:
            to_price = [
                c for c in to_price
                if cache.load_persisted_cost(c.key()) is None
            ]

        # Tier 3: genuinely cold cells — schedule and price, supervised.
        workers = self.workers if workers is None else workers
        report = FailureReport()
        if workers and workers > 1 and len(to_price) > 1:
            self._run_supervised(to_price, workers, report)
        else:
            for cell in to_price:
                # Tier 2 above already established the disk misses.
                self._price_with_retry(cell, report, probe_disk=False)
        self.last_report = report

        return SweepResult.from_cells(
            cells, {c.key(): cache.cached_cost(c.key()) for c in unique}
        )

    # -- supervised parallel dispatch ----------------------------------------
    def _run_supervised(self, to_price: Sequence[SweepCell], workers: int,
                        report: FailureReport) -> None:
        """Price *to_price* across the pool, surviving worker failures.

        Every affinity bundle is dispatched as an individually-watched
        attempt (``apply_async``, not ``map`` — one crashed worker must
        not abort the run). The supervision loop then:

        * **harvests** finished attempts, storing priced cells (partial
          results from a mid-bundle failure included) and queueing the
          failed remainder for retry with backoff;
        * **detects worker deaths** by watching the pool's pid table —
          the pool replaces dead workers itself, but the bundle the dead
          worker held would hang forever, so all in-flight attempts get
          a grace deadline and anything unfinished past it is declared
          lost;
        * **re-forks the pool** when a deadline expires (the worker
          holding that bundle may be wedged, and a terminate is the only
          way to reclaim its slot). In-flight innocents are resubmitted
          without an attempt charge;
        * **degrades** cells whose pool attempts are exhausted to serial
          in-process pricing (:meth:`_price_with_retry`), so the sweep
          completes — with the cells recorded in *report* — instead of
          aborting and discarding everything already priced.

        Raises :class:`~repro.errors.SweepExecutionError` only when even
        the serial path cannot price a cell.
        """
        policy = self.retry
        cache = self.cache
        plan = plan_schedule(to_price, workers, self.estimator_for(to_price))
        pool = self._pool_for(workers, len(plan.bundles))
        rng = random.Random(policy.seed)
        token = itertools.count()

        pending: Dict[int, _Attempt] = {}
        backlog: List[Tuple[float, Tuple[SweepCell, ...], int]] = []
        degraded: List[SweepCell] = []

        def submit(cells: Tuple[SweepCell, ...], attempt: int) -> None:
            deadline = (time.monotonic() + policy.bundle_timeout_s
                        if policy.bundle_timeout_s else None)
            result = pool.apply_async(
                _price_bundle_in_worker, (cells, attempt > 1)
            )
            pending[next(token)] = _Attempt(cells, attempt, result, deadline)

        def fail_attempt(cells: Tuple[SweepCell, ...], attempt: int,
                         error: BaseException) -> None:
            report.errors.append(f"{type(error).__name__}: {error}")
            if attempt >= policy.max_attempts:
                degraded.extend(cells)
                return
            report.retries += 1
            report.retried_cells += len(cells)
            not_before = time.monotonic() + policy.backoff_s(attempt, rng)
            backlog.append((not_before, cells, attempt + 1))

        for bundle in plan.bundles:
            submit(bundle.cells, attempt=1)

        while pending or backlog:
            now = time.monotonic()
            progressed = False

            # Due retries re-enter the pool once their backoff elapses.
            due = [e for e in backlog if e[0] <= now]
            if due:
                progressed = True
                backlog = [e for e in backlog if e[0] > now]
                for _, cells, attempt in due:
                    submit(cells, attempt)

            # Harvest finished attempts (successes and worker-side
            # failures both come back through the result).
            for key in [k for k, a in pending.items() if a.result.ready()]:
                progressed = True
                attempt = pending.pop(key)
                try:
                    priced, delta, failure = attempt.result.get()
                except Exception as exc:
                    # The bundle function itself raised (e.g. an injected
                    # fault at bundle start): nothing was priced.
                    fail_attempt(attempt.cells, attempt.attempt, exc)
                    continue
                cache.stats.merge(delta)
                done = set()
                for cost_key, cost in priced:
                    cache.store_cost(cost_key, cost)
                    done.add(cost_key)
                if failure is not None:
                    remaining = tuple(c for c in attempt.cells
                                      if c.key() not in done)
                    fail_attempt(remaining, attempt.attempt, failure)

            # A changed pid set means a worker died; its bundle (if any)
            # will never complete, but we cannot know which one — give
            # every in-flight attempt a grace window to finish.
            pids = self._worker_pids()
            if pids != self._pool_pids:
                report.worker_deaths += max(1, len(self._pool_pids - pids))
                self._pool_pids = pids
                grace = now + policy.death_grace_s
                for attempt in pending.values():
                    attempt.deadline = (grace if attempt.deadline is None
                                        else min(attempt.deadline, grace))

            # Expired deadlines (bundle timeout or death grace): the
            # worker holding the bundle is hung or gone. Terminate and
            # re-fork the pool — expired attempts are charged and
            # retried, in-flight innocents resubmitted free (bounded:
            # every re-fork charges at least one attempt).
            expired = [k for k, a in pending.items()
                       if a.deadline is not None and a.deadline <= now]
            if expired:
                progressed = True
                report.timeouts += len(expired)
                for key in expired:
                    attempt = pending.pop(key)
                    fail_attempt(
                        attempt.cells, attempt.attempt,
                        SweepExecutionError(
                            f"bundle of {len(attempt.cells)} cell(s) did "
                            f"not complete within its deadline "
                            f"(attempt {attempt.attempt})",
                            cell_keys=tuple(c.key() for c in attempt.cells),
                        ),
                    )
                survivors = list(pending.values())
                pending.clear()
                self._teardown_pool(graceful=False)
                pool = self._pool_for(workers, max(1, len(plan.bundles)))
                for attempt in survivors:
                    submit(attempt.cells, attempt.attempt)

            if not progressed:
                time.sleep(policy.poll_interval_s)

        # Exhausted cells degrade to serial in-process pricing: the
        # parent prices them with the same deterministic arithmetic, so
        # results stay bit-identical — only the venue changed.
        failed: List[Tuple[SweepCell, Exception]] = []
        for cell in degraded:
            if cache.cached_cost(cell.key()) is not None:
                continue  # a retried sibling bundle already priced it
            try:
                price_cell(cell, cache, probe_disk=True)
                report.degraded_cells.append(cell.key())
            except Exception as exc:
                failed.append((cell, exc))
        if failed:
            keys = tuple(c.key() for c, _ in failed)
            labels = ", ".join(c.label() for c, _ in failed[:3])
            raise SweepExecutionError(
                f"{len(failed)} cell(s) failed even after "
                f"{policy.max_attempts} pool attempt(s) and serial "
                f"degrade ({labels}{', ...' if len(failed) > 3 else ''})",
                cell_keys=keys, report=report,
            ) from failed[0][1]

    def _price_with_retry(self, cell: SweepCell, report: FailureReport,
                          probe_disk: bool) -> IterationCost:
        """Serial pricing with the session's retry policy applied.

        The serial path gets the same transient-failure tolerance as the
        pool path (minus the process supervision it doesn't need). A
        cell that still fails on the last attempt raises
        :class:`~repro.errors.SweepExecutionError` carrying its key.
        """
        policy = self.retry
        last: Optional[Exception] = None
        for attempt in range(1, policy.max_attempts + 1):
            try:
                # A retry re-probes the disk: a concurrent writer (or an
                # earlier partial attempt) may have published the cost.
                return price_cell(cell, self.cache,
                                  probe_disk=probe_disk or attempt > 1)
            except Exception as exc:
                last = exc
                report.errors.append(
                    f"{cell.key()}: {type(exc).__name__}: {exc}"
                )
                if attempt < policy.max_attempts:
                    report.retries += 1
                    report.retried_cells += 1
                    time.sleep(policy.backoff_s(attempt))
        raise SweepExecutionError(
            f"pricing {cell.label()} failed after {policy.max_attempts} "
            f"attempt(s): {type(last).__name__}: {last}",
            cell_keys=(cell.key(),), report=report,
        ) from last

    def estimator_for(self, cells: Sequence[SweepCell]) -> Optional[CostEstimate]:
        """Scheduler weights for *cells*: the explicit estimate if one was
        configured, else observed node counts fed back from earlier runs
        (memory or disk), else ``None`` (the static default). Public
        because the serving layer uses the same weights to order cold
        cells heaviest-first in its pricing queue."""
        if self.estimate is not None:
            return self.estimate
        counts = {}
        for cell in cells:
            skey = cell.scenario_key()
            if skey not in counts:
                count = self.cache.node_count(skey)
                if count is not None:
                    counts[skey] = count
        return observed_cost_estimate(counts) if counts else None


# -- the active-session hook (installed by the experiments CLI) -----------------
#: Context-local, not a module global: each thread and each asyncio task
#: sees its own active session, so a threaded caller (e.g. the serving
#: layer's pricing executor) entering ``use_session`` cannot stomp
#: another thread's session or restore the wrong one on exit.
_ACTIVE_SESSION: contextvars.ContextVar[Optional[SweepSession]] = (
    contextvars.ContextVar("active_sweep_session", default=None)
)


def active_session() -> Optional[SweepSession]:
    """The session installed by :func:`use_session` in *this* context.

    Experiments that need more than ``run_sweep`` (e.g. direct access to
    the session's graph cache) use this to ride the shared session
    instead of creating a private cache that would bypass it. Contexts
    are per-thread and per-asyncio-task: a session installed in one
    thread is invisible to every other.
    """
    return _ACTIVE_SESSION.get()


@contextlib.contextmanager
def use_session(session: SweepSession):
    """Route bare ``run_sweep`` calls through *session* inside the block.

    Lets the experiment modules keep their one-line ``run_sweep(GRID)``
    calls while a CLI run shares a single warm pool and persistent cache
    across every figure. Calls that pass their own ``cache`` keep their
    isolation and bypass the session.

    Installation is context-local (``contextvars``): concurrent threads
    or tasks each nest their own sessions independently, and the token
    reset on exit restores exactly what this context had before.
    """
    token = _ACTIVE_SESSION.set(session)
    try:
        yield session
    finally:
        _ACTIVE_SESSION.reset(token)


def run_sweep(
    spec: Union[SweepSpec, Sequence[SweepSpec]],
    parallel: Optional[int] = None,
    cache: Optional[GraphCache] = None,
    cache_dir: Optional[str] = None,
) -> SweepResult:
    """Price a sweep grid and return the queryable result store.

    Parameters
    ----------
    spec:
        One :class:`SweepSpec` or a sequence of them (cells concatenate).
    parallel:
        Worker-process count; ``None`` or ``1`` runs serially in-process.
        Results are ordered by cell enumeration either way.
    cache:
        A :class:`GraphCache` to reuse across calls. A warm cache skips
        graph builds, pass pipelines *and* pricing for cells it has seen.
    cache_dir:
        Adds an on-disk tier (see :class:`SweepSession`).

    Inside a :func:`use_session` block, calls that don't pass an explicit
    ``cache``/``cache_dir`` execute on the active session (warm pool,
    shared caches); otherwise an ephemeral session runs this call alone.
    """
    session = _ACTIVE_SESSION.get()
    if cache is None and cache_dir is None and session is not None:
        return session.run(spec, workers=parallel)
    with SweepSession(workers=parallel, cache=cache,
                      cache_dir=cache_dir) as session:
        return session.run(spec)
