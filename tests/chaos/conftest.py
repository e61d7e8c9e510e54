"""Shared fixtures for the chaos suite.

Every chaos test follows the same shape: compute an uninjected serial
reference, run the same workload under a deterministic
:class:`~repro.faults.FaultPlan`, and assert both the *recovery* (the
run completes, the right counters moved) and the *answer* (bit-identical
costs — ``IterationCost.__eq__`` compares the record's per-node columns
exactly, so ``==`` is exact equality of every node's every metric).
"""

import asyncio
import contextlib
import threading

import pytest

from repro.serve import HttpServer, ServingClient
from repro.sweep import GraphCache, SweepSpec, enumerate_cells, price_cell

#: Small enough to keep the suite fast, big enough to spread across two
#: workers' affinity bundles (two graph keys x four batches).
CHAOS_GRID = SweepSpec(
    name="chaos",
    models=("tiny_cnn",),
    scenarios=("baseline", "bnff"),
    batches=(2, 3, 4, 6),
)


@pytest.fixture(scope="session")
def reference_costs():
    """Uninjected serial pricing of :data:`CHAOS_GRID`, keyed by cell."""
    cache = GraphCache()
    return {
        cell.key(): price_cell(cell, cache)
        for cell in enumerate_cells(CHAOS_GRID)
    }


def assert_bit_identical(result, reference):
    """Every row of *result* equals the reference cost, exactly."""
    assert len(result.rows) == len(reference)
    for row in result.rows:
        assert row.cost == reference[row.cell.key()], row.cell.label()


@contextlib.contextmanager
def serving(service):
    """Run an HttpServer for *service* on a background loop thread."""
    server = HttpServer(service, port=0)
    started = threading.Event()
    holder = {}

    async def main():
        await server.start()
        started.set()
        try:
            await server.serve_forever()
        finally:
            await server.close()

    def run():
        loop = asyncio.new_event_loop()
        holder["loop"] = loop
        holder["task"] = loop.create_task(main())
        try:
            loop.run_until_complete(holder["task"])
        except asyncio.CancelledError:
            pass
        finally:
            loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(timeout=30), "server never started"
    try:
        yield ServingClient(host=server.host, port=server.port)
    finally:
        holder["loop"].call_soon_threadsafe(holder["task"].cancel)
        thread.join(timeout=30)
        service.close()
