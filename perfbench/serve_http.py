"""Workload ``serve-http``: the cost-query server under open-loop load.

The server is ``python -m repro.experiments serve --port 0 --cache-dir
<fresh dir>`` in a child process with default settings. One asyncio
thread holds :data:`CONNECTIONS` keep-alive connections and sends
single-cell ``POST /price`` requests on a seeded schedule; each is timed
from when it was due. Set-up prices a hot set. The first half of the
timed window sends zipf(1.1) draws from the hot set at :data:`RATE`
(warm hits: ``serve.http``, ``serve.wire``, ``serve.service`` and the
``sweep.cache`` memory tier). The second half sends 32 first-seen
cells, each once, evenly spaced (cold misses: ``passes`` and ``perf`` on
the pricing thread, and disk-tier writes).

The two kinds are timed in separate phases at half the warm rate the
design started from (100 req/s with 3% cold mixed in): on 2 shared vCPUs,
cold pricing competing with the event loop for the GIL and the cores
made both medians swing by 30-50% between runs of identical code.
"""

import time

T0 = time.perf_counter()  # benchmark start: before repro loads

import asyncio  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import common  # noqa: E402
from common import Checks, emit, peak_rss_mb, percentile  # noqa: E402

RATE = 50.0
CONNECTIONS = 2
HOT_PER_MODEL = 6
ZIPF_S = 1.1
COLD_SCENARIOS = ("bnff", "bnff_icf")
SAMPLE_CHECKS = 4
SATURATION_S = 1.0
MODELS = ("resnet50", "densenet121", "inception", "mobilenet_v1")
HARDWARE = ("skylake_2s", "volta_v100", "knights_landing")
BATCHES = (60, 120)
PRECISIONS = ("fp32", "fp16")
BANNER = "serving cost queries on http://"
INF = float("inf")


def request_stream(seed: int, seconds: float):
    """Seeded hot set and schedule of ``(cell, is_cold, due offset s)``.

    The hot set is the deployed configurations: :data:`HOT_PER_MODEL`
    ``baseline`` cells per model, covering all of its batch x precision
    graphs, so set-up builds every base graph. Hot-set ranks cycle
    through :data:`MODELS`, which fixes each model's share of warm
    traffic. First-seen cells are what-if queries for the paper's two
    restructurings: the first cell of each :data:`COLD_SCENARIOS` graph of
    every model x batch x precision, so pricing it runs ``passes`` and
    ``perf`` over a cached ``models`` graph. Each run of 8 holds every
    model x scenario pair once. The seed picks hardware, zipf draws and
    orders, but not the mix that sets a request's cost, so the medians
    measure the server rather than the draw: with a quarter of the cold
    cells on the cheapest model and a quarter on the dearest, the median
    falls in the middle of the resnet50/inception band, not on an edge.

    The first half of the schedule is warm traffic at :data:`RATE`; the
    second half spreads the 32 first-seen cells evenly.
    """
    from repro.sweep import SweepCell

    rng = random.Random(seed)
    combos = [(b, p) for b in BATCHES for p in PRECISIONS]

    def cell(model, scenario, batch, precision):
        return SweepCell(model=model, hardware=rng.choice(HARDWARE),
                         scenario=scenario, batch=batch, precision=precision)

    hot_by_model = {}
    for m in MODELS:
        extra = rng.sample(combos, HOT_PER_MODEL - len(combos))
        picks = combos + extra
        rng.shuffle(picks)
        cells = []
        for b, p in picks:
            c = cell(m, "baseline", b, p)
            while c in cells:  # a repeated batch x precision: new hardware
                c = cell(m, "baseline", b, p)
            cells.append(c)
        hot_by_model[m] = cells
    hot = [hot_by_model[MODELS[k % len(MODELS)]][k // len(MODELS)]
           for k in range(len(MODELS) * HOT_PER_MODEL)]

    pairs = [(m, s) for m in MODELS for s in COLD_SCENARIOS]
    order = {pair: rng.sample(combos, len(combos)) for pair in pairs}
    cold = []
    for rnd in range(len(combos)):
        for m, s in rng.sample(pairs, len(pairs)):
            cold.append(cell(m, s, *order[(m, s)][rnd]))
    phase_s = seconds / 2
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(hot))]
    stream = [(c, False, i / RATE) for i, c in enumerate(
        rng.choices(hot, weights, k=max(1, int(RATE * phase_s))))]
    stream += [(c, True, phase_s * (1 + j / len(cold)))
               for j, c in enumerate(cold)]
    return hot, stream


def post(path: str, payload) -> bytes:
    body = json.dumps(payload).encode()
    return (f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


GET_STATS = b"GET /stats HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"


class Connection:
    """One keep-alive HTTP/1.1 connection (one request at a time)."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def request(self, raw: bytes):
        self.writer.write(raw)
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    def close(self) -> None:
        self.writer.close()


class Server:
    """The server child process, its port, and its shutdown."""

    def __init__(self, cache_dir: str, log_path: str,
                 trace_out: str = None):
        cli = ["serve", "--port", "0", "--cache-dir", cache_dir]
        if trace_out:
            argv = [sys.executable,
                    os.path.join(common.HERE, "serve_traced.py"),
                    trace_out] + cli
        else:
            argv = [sys.executable, "-m", "repro.experiments"] + cli
        self.log_path = log_path
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(argv, cwd=common.ROOT,
                                     env=common.production_env(),
                                     stdout=self._log,
                                     stderr=subprocess.STDOUT)
        self.port = self._wait_for_port(timeout_s=60.0)

    def _wait_for_port(self, timeout_s: float) -> int:
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            with open(self.log_path) as f:
                for line in f:
                    if line.startswith(BANNER):
                        return int(line[len(BANNER):].split()[0]
                                   .rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        with open(self.log_path) as f:
            raise RuntimeError(f"server did not start:\n{f.read()}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


async def prewarm(port: int, hot) -> list:
    from repro.serve.wire import cell_to_json

    conns = [await Connection.open(port) for _ in range(CONNECTIONS)]
    status, body = await conns[0].request(
        post("/price", {"cells": [cell_to_json(c) for c in hot]}))
    if status != 200:
        raise RuntimeError(f"hot-set pre-warm failed: {status} {body[:200]}")
    return conns


async def stats(conn: Connection) -> dict:
    status, body = await conn.request(GET_STATS)
    return json.loads(body)["service"]


async def open_loop(conns, raws, offsets):
    """Send ``raws[i]`` at ``start + offsets[i]`` over free connections.

    Returns per-request ``(status, body, due, sent, done)`` clock readings
    (status ``None`` on a transport error) and each send's lateness.
    """
    clock = time.perf_counter
    free: asyncio.Queue = asyncio.Queue()
    for conn in conns:
        free.put_nowait(conn)
    results = [None] * len(raws)
    late = []

    async def one(i: int, due: float) -> None:
        conn = await free.get()
        sent = clock()
        try:
            status, body = await conn.request(raws[i])
        except (OSError, asyncio.IncompleteReadError, ValueError,
                IndexError) as e:
            status, body = None, repr(e).encode()
        done = clock()
        free.put_nowait(conn)
        results[i] = (status, body, due, sent, done)

    tasks = []
    start = clock() + 0.02
    for i in range(len(raws)):
        due = start + offsets[i]
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(max(0.0, clock() - due))
        tasks.append(asyncio.ensure_future(one(i, due)))
    await asyncio.gather(*tasks)
    return results, late


async def saturation(conns, raws, seconds: float) -> float:
    """Closed loop on every connection: completed warm requests per second."""
    clock = time.perf_counter
    deadline = clock() + seconds
    counts = []

    async def loop(conn, offset):
        n = 0
        while clock() < deadline:
            status, _ = await conn.request(raws[(offset + n) % len(raws)])
            n += status == 200
        counts.append(n)

    t = clock()
    await asyncio.gather(*(loop(c, k * 7) for k, c in enumerate(conns)))
    return sum(counts) / (clock() - t)


def sample_matches(stream, results, seed: int):
    """Seeded sample of returned metrics against in-process ``price_cell``.

    Draws :data:`SAMPLE_CHECKS` warm and as many first-seen responses;
    returns the keys whose served metrics differ.
    """
    from repro.serve.wire import result_to_json
    from repro.sweep.cache import GraphCache
    from repro.sweep.runner import price_cell

    rng = random.Random(seed + 1)
    cache = GraphCache()
    mismatched = []
    for want_cold in (False, True):
        idx = [i for i, ((_, cold, _), r) in enumerate(zip(stream, results))
               if cold == want_cold and r[0] == 200]
        for i in rng.sample(idx, min(SAMPLE_CHECKS, len(idx))):
            cell = stream[i][0]
            served = json.loads(results[i][1])["results"][0]["metrics"]
            local = json.loads(json.dumps(
                result_to_json(cell, price_cell(cell, cache))["metrics"]))
            if served != local:
                mismatched.append(cell.key())
    return mismatched


def server_layers(trace_path, stream, results) -> tuple:
    """Per-request server-side times from the traced server's span dump.

    Server spans carry op ``("request", rid)`` on the event loop and
    ``("price", cell key)`` on the pricing thread; ``rid`` is the index
    of the request in *stream*.
    """
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    spans = {e["args"]["id"]: e for e in events if e["ph"] == "X"}
    child_us = {}
    for e in spans.values():
        parent = e["args"].get("parent")
        if parent is not None:
            child_us[parent] = child_us.get(parent, 0.0) + e["dur"]

    per_req = {}  # rid -> span name -> [first start, last end, total dur]
    pricing = {}  # cell key -> span name -> self us; "start" -> first start
    for i, e in spans.items():
        op = e["args"].get("op")
        if not op:
            continue
        name = e["name"]
        if op[0] == "request":
            if name == "serve.service.price_cells":
                name += "." + e["args"]["detail"]
            entry = per_req.setdefault(op[1], {}).setdefault(
                name, [e["ts"], 0.0, 0.0])
            entry[0] = min(entry[0], e["ts"])
            entry[1] = max(entry[1], e["ts"] + e["dur"])
            entry[2] += e["dur"]
        elif op[0] == "price":
            slot = pricing.setdefault(op[1], {"start": INF})
            slot[name] = slot.get(name, 0.0) + e["dur"] - child_us.get(i, 0.0)
            if name == "sweep.runner.price_cell":
                slot["start"] = min(slot["start"], e["ts"])

    sums = dict.fromkeys(("cells_from_json", "result_to_json", "warm", "cold",
                          "http_self", "transport", "queue"), 0.0)
    counts = {"all": 0, "warm": 0, "cold": 0}
    none = [0.0, 0.0, 0.0]
    for rid, ((cell, cold, _), r) in enumerate(zip(stream, results)):
        req = per_req.get(rid)
        if req is None or r[0] != 200:
            continue
        kind = "cold" if cold else "warm"
        start = req["serve.http.dispatch"][0]
        server_us = req["serve.http.write"][1] - start
        decode = req.get("serve.wire.cells_from_json", none)[2]
        encode = req.get("serve.wire.result_to_json", none)[2]
        price = req.get(f"serve.service.price_cells.{kind}", none)
        sums["cells_from_json"] += decode
        sums["result_to_json"] += encode
        sums[kind] += price[2]
        sums["http_self"] += server_us - decode - encode - price[2]
        sums["transport"] += (r[4] - r[3]) * 1e6 - server_us
        if cold and cell.key() in pricing:
            sums["queue"] += pricing[cell.key()]["start"] - price[0]
        counts["all"] += 1
        counts[kind] += 1

    def per_op(us_total, n):
        return {"value": us_total / 1e3 / n if n else 0.0, "unit": "ms/op"}

    layers = {
        "serve.wire.cells_from_json_ms": per_op(sums["cells_from_json"],
                                                counts["all"]),
        "serve.service.price_cells_warm_ms": per_op(sums["warm"],
                                                    counts["warm"]),
        "serve.service.price_cells_cold_ms": per_op(sums["cold"],
                                                    counts["cold"]),
        "serve.wire.result_to_json_ms": per_op(sums["result_to_json"],
                                               counts["all"]),
        "serve.http.self_ms": per_op(sums["http_self"], counts["all"]),
        "serve.transport_ms": per_op(sums["transport"], counts["all"]),
        "serve.service.queue_ms": per_op(sums["queue"], counts["cold"]),
    }
    cold_keys = {cell.key() for cell, cold, _ in stream if cold}
    priced = [v for k, v in pricing.items() if k in cold_keys]
    for span in PRICING_SPANS:
        layers[f"serve.cold.{span}_ms"] = per_op(
            sum(p.get(span, 0.0) for p in priced), len(priced))
    return layers, events


#: Spans under one cold cell's pricing, reported per first-seen request.
PRICING_SPANS = ("sweep.runner.price_cell", "passes.apply_scenario",
                 "perf.simulate", "sweep.persist.store",
                 "sweep.persist.load")


def run(args, work: str) -> dict:
    traced = bool(args.trace_out)
    hot, stream = request_stream(args.seed, args.seconds)
    from repro.serve.wire import cell_to_json

    path = "/price?rid={}" if traced else "/price"
    raws = [post(path.format(rid), {"cells": [cell_to_json(cell)]})
            for rid, (cell, _, _) in enumerate(stream)]
    warm_raws = [post("/price", {"cells": [cell_to_json(c)]}) for c in hot]
    server_trace = os.path.join(work, "server-trace.json")
    server = Server(os.path.join(work, "cache"),
                    os.path.join(work, "server.log"),
                    server_trace if traced else None)
    loop = asyncio.new_event_loop()
    conns = []
    try:
        conns = loop.run_until_complete(prewarm(server.port, hot))
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            return {"setup_s": setup_s}
        before = loop.run_until_complete(stats(conns[0]))
        gc.disable()  # no collector pauses in the load generator's sends
        try:
            results, late = loop.run_until_complete(
                open_loop(conns, raws, [due for _, _, due in stream]))
        finally:
            gc.enable()
        after = loop.run_until_complete(stats(conns[0]))
        sat = loop.run_until_complete(
            saturation(conns, warm_raws, SATURATION_S))
        rss = peak_rss_mb(server.proc.pid)
    finally:
        for conn in conns:
            conn.close()
        loop.close()
        server.stop()

    checks = Checks()
    failed_requests = 0
    latency = {False: [], True: []}
    for (cell, cold, _), (status, body, due, sent, done) in zip(stream,
                                                               results):
        ok = status == 200 and \
            json.loads(body)["results"][0]["key"] == cell.key()
        failed_requests += not ok
        # A failed request misses every latency limit.
        latency[cold].append(done - due if ok else INF)
    n_cold = sum(1 for _, cold, _ in stream if cold)
    delta = {k: after[k] - before[k] for k in
             ("priced", "coalesced", "shed", "errors", "warm_hits", "cells")}
    checks.check("/stats: priced == first-seen cells, shed == errors == 0",
                 delta["priced"] == n_cold and after["shed"] == 0
                 and after["errors"] == 0,
                 f"priced {delta['priced']} of {n_cold} first-seen, "
                 f"shed {after['shed']}, errors {after['errors']}")
    mismatched = sample_matches(stream, results, args.seed)
    checks.check("sampled responses equal in-process price_cell",
                 not mismatched, f"mismatched: {mismatched}")

    def ms(values, fn):
        return {"value": fn(values) * 1e3, "unit": "ms", "n": len(values)}

    waits = [sent - due for _, _, due, sent, _ in results]
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "metrics": {"warm_p50_ms": ms(latency[False], statistics.median),
                    "cold_p50_ms": ms(latency[True], statistics.median)},
        "info": {
            "warm_p99_ms": ms(latency[False], lambda v: percentile(v, 99)),
            "cold_p99_ms": ms(latency[True], lambda v: percentile(v, 99)),
            "saturation, 2 connections, warm": {"value": sat,
                                                "unit": "req/s", "n": 1},
            "send lateness max": ms(late, max),
            "send lateness p99": ms(late, lambda v: percentile(v, 99)),
            "connection wait p99": ms(waits, lambda v: percentile(v, 99)),
        },
        "attempted": len(stream) + len(checks.results),
        "failed": failed_requests + checks.failed,
        "checks": checks.results,
    }
    if traced:
        from tracer import write_chrome

        layers, events = server_layers(server_trace, stream, results)
        layers["serve.late_ms"] = {"value": sum(late) * 1e3 / len(late),
                                   "unit": "ms/op"}
        layers["serve.conn_wait_ms"] = {
            "value": sum(waits) * 1e3 / len(waits), "unit": "ms/op"}
        layers["serve.service.warm_hit_ratio"] = {
            "value": delta["warm_hits"] / delta["cells"], "unit": "ratio"}
        for key in ("priced", "coalesced", "shed", "errors"):
            layers[f"serve.service.{key}"] = {"value": delta[key],
                                              "unit": "count"}
        pid = os.getpid()
        client = [{"name": "process_name", "ph": "M", "pid": pid,
                   "args": {"name": "serve-http load generator"}}]
        client += [{"name": "client.request", "ph": "X", "pid": pid, "tid": 1,
                    "ts": sent * 1e6, "dur": (done - sent) * 1e6,
                    "args": {"op": ["request", rid], "cold": cold,
                             "due_us": due * 1e6}}
                   for rid, ((_, cold, _), (_, _, due, sent, done))
                   in enumerate(zip(stream, results))]
        write_chrome(args.trace_out, events + client)
        result["layers"] = layers
        result["trace"] = args.trace_out
    return result


def main() -> None:
    args = common.child_args()
    os.makedirs(common.WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="serve-", dir=common.WORK)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    emit(result)


if __name__ == "__main__":
    main()
