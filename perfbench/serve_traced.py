"""Start the cost-query server with span-recording wrappers installed.

Usage: ``python perfbench/serve_traced.py TRACE_OUT serve [serve flags]``.
Installs the wrappers, runs the CLI's ``serve`` entry unchanged, and on
shutdown (SIGINT) writes every span as Chrome trace-event JSON to
TRACE_OUT. Request spans take their op from the ``rid`` query parameter
the load generator appends (``/price?rid=N``; the server ignores query
strings); pricing-thread spans take ``("price", cell key)``.
"""

import sys
from urllib.parse import parse_qs, urlsplit

import common  # noqa: F401  (puts the checkout's src on sys.path)
from tracer import OP, Tracer, write_chrome


def install(tracer: Tracer) -> None:
    import repro.serve.http as http
    import repro.serve.service as service
    import repro.sweep.cache as cache_mod
    import repro.sweep.runner as runner_mod
    from repro.sweep.persist import PersistentCache

    def warm_or_cold(args, kwargs):  # price_cells(self, cells, ...)
        self_, cells = args[0], args[1]
        cached = self_.session.cache.cached_cost
        return "cold" if any(cached(c.key()) is None for c in cells) \
            else "warm"

    dispatch = tracer.wrap("serve.http.dispatch", http.HttpServer._dispatch)

    async def request_span(self, method, path, body):
        # Left set after the call: the response write that follows runs in
        # the same connection task and belongs to the same request.
        rid = parse_qs(urlsplit(path).query).get("rid")
        OP.set(("request", int(rid[0])) if rid else None)
        return await dispatch(self, method, path, body)

    traced_price_cell = tracer.wrap("sweep.runner.price_cell",
                                    service.price_cell)

    def price_span(cell, *args, **kwargs):
        OP.set(("price", cell.key()))
        return traced_price_cell(cell, *args, **kwargs)

    http.HttpServer._dispatch = request_span
    service.price_cell = price_span
    tracer.patch(http.HttpServer, "_write_response", "serve.http.write")
    tracer.patch(http, "cells_from_json", "serve.wire.cells_from_json")
    tracer.patch(http, "result_to_json", "serve.wire.result_to_json")
    tracer.patch(service.CostService, "price_cells",
                 "serve.service.price_cells", describe=warm_or_cold)
    tracer.patch(cache_mod, "build_model", "models.build_model")
    tracer.patch(cache_mod, "apply_scenario", "passes.apply_scenario")
    tracer.patch(runner_mod, "simulate", "perf.simulate")
    tracer.patch(PersistentCache, "store", "sweep.persist.store")
    tracer.patch(PersistentCache, "load", "sweep.persist.load")


def main() -> int:
    trace_out, cli_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer("serve-http server")
    install(tracer)
    from repro.experiments.runner import main as cli

    try:
        return cli(cli_args)
    finally:
        write_chrome(trace_out, tracer.chrome_events())


if __name__ == "__main__":
    sys.exit(main())
