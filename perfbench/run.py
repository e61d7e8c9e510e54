"""Run the repository benchmark and print its metrics.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload train-densenet --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh interpreter under the production
configuration (debug knobs cleared, BLAS threads fixed; see
``common.production_env``). With ``--trace 0`` the workload process runs
once for ``--seconds`` and is set up :data:`SETUPS` times in all (the
extra set-ups in set-up-only processes), and the report gives the
median set-up time. With ``--trace 1`` an untraced and a traced process
each run for half of ``--seconds``; the report gives the per-layer
metrics of the traced one and the tracing overhead between the two, and
the spans land in ``.perfbench/traces/`` as Chrome trace-event JSON.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``. The exit code is 1 when a correctness check or an
operation failed, 2 when the benchmark could not run at all (then no
result line is printed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import common

WORKLOADS = {
    "train-densenet": "train_densenet.py",
    "figures": "figures.py",
    "serve-http": "serve_http.py",
}
#: Workload metric behind each shared end-to-end metric, with its scale
#: to the shared unit. ``reference_ms`` is the path that does all the
#: work; ``fast_path_ms`` is the path the repository makes fast (the
#: restructured graph, the disk cache, the memory cache).
SHARED = {
    "train-densenet": {"reference_ms": ("baseline_step_ms", 1.0),
                       "fast_path_ms": ("bnff_icf_step_ms", 1.0)},
    "figures": {"reference_ms": ("figures_cold_s", 1e3),
                "fast_path_ms": ("figures_warm_disk_s", 1e3)},
    "serve-http": {"reference_ms": ("cold_p50_ms", 1.0),
                   "fast_path_ms": ("warm_p50_ms", 1.0)},
}
SETUPS = 3
CALIBRATION_LOOPS = 3_000_000
CHILD_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a gauge of host speed now."""
    t = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i
    return time.perf_counter() - t


def spawn(workload: str, seed: int, seconds: float, *extra: str) -> dict:
    """Run one workload process; returns its JSON result."""
    script = os.path.join(common.HERE, WORKLOADS[workload])
    argv = [sys.executable, script, "--seed", str(seed),
            "--seconds", repr(seconds), *extra]
    try:
        proc = subprocess.run(argv, cwd=common.ROOT,
                              env=common.production_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchmarkError(f"{workload}: timed out after {e.timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} exited {proc.returncode}:\n"
                             f"{proc.stderr.strip()[-3000:]}")
    return json.loads(lines[-1])


def declared() -> dict:
    path = os.path.join(common.ROOT, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def end_to_end_metrics(workload: str, result: dict) -> dict:
    out = {"setup_s": {"value": result["setup_s"], "unit": "s"},
           "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"}}
    for name, (source, scale) in SHARED[workload].items():
        out[name] = {"value": result["metrics"][source]["value"] * scale,
                     "unit": "ms"}
    return out


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    result = spawn(workload, seed, seconds)
    setups = [result["setup_s"]] + [
        spawn(workload, seed, seconds, "--setup-only")["setup_s"]
        for _ in range(SETUPS - 1)]
    result["setup_runs"] = setups
    result["setup_s"] = statistics.median(setups)
    result["end_to_end"] = end_to_end_metrics(workload, result)
    return result


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    half = seconds / 2
    untraced = spawn(workload, seed, half)
    out = os.path.join(common.WORK, "traces", f"{workload}-seed{seed}.json")
    traced = spawn(workload, seed, half, "--trace-out", out)
    before = end_to_end_metrics(workload, untraced)
    after = end_to_end_metrics(workload, traced)
    traced["overhead"] = {
        name: (before[name]["value"], after[name]["value"])
        for name in SHARED[workload]}
    for name, (u, t) in traced["overhead"].items():
        stem = name[:-len("_ms")]
        traced["layers"][f"tracing.{stem}_overhead_pct"] = {
            "value": (t - u) / u * 100.0, "unit": "%"}
    traced["attempted"] += untraced["attempted"]
    traced["failed"] += untraced["failed"]
    traced["checks"] = [[f"{label}: {name}", ok, detail]
                        for label, run in (("untraced", untraced),
                                           ("traced", traced))
                        for name, ok, detail in run["checks"]]
    traced["end_to_end"] = after
    return traced


def per_layer_metrics(result: dict, catalog: list) -> dict:
    """Every declared per-layer metric; layers this workload never enters
    read 0 (measured: no span of that layer ran)."""
    layers = result["layers"]
    unknown = set(layers) - {m["name"] for m in catalog}
    if unknown:
        raise BenchmarkError(f"per-layer metrics missing from "
                             f"BENCHMARK.json: {sorted(unknown)}")
    return {m["name"]: layers.get(m["name"], {"value": 0.0,
                                              "unit": m["unit"]})
            for m in catalog}


def report(workload: str, result: dict, trace: bool) -> None:
    print(f"\n== {workload}: attempted {result['attempted']}, "
          f"failed {result['failed']}")
    rows = [("setup_s", result["setup_s"], "s",
             len(result.get("setup_runs", [result["setup_s"]]))),
            ("peak_rss_mb", result["peak_rss_mb"], "MB", 1)]
    rows += [(name, m["value"], m["unit"], m["n"])
             for name, m in result["metrics"].items()]
    print(f"  {'metric':<38} {'value':>12}  {'unit':<6} n")
    for name, value, unit, n in rows:
        print(f"  {name:<38} {value:>12.4f}  {unit:<6} {n}")
    for name, (source, _) in SHARED[workload].items():
        print(f"  {name:<38} = {source}")
    for name, value in result["info"].items():
        if isinstance(value, dict):
            value = f"{value['value']:.4f} {value['unit']} (n={value['n']})"
        print(f"  info: {name}: {value}")
    for name, ok, detail in result["checks"]:
        print(f"  check [{'ok' if ok else 'FAILED'}] {name}: {detail}")
    if trace:
        for name, (u, t) in result["overhead"].items():
            print(f"  tracing overhead {name}: untraced {u:.3f} -> traced "
                  f"{t:.3f} ({(t - u) / u * 100:+.1f}%)")
        print(f"  per-layer ({result['trace']}):")
        for name, m in result["layers"].items():
            print(f"    {name:<52} {m['value']:>12.4f}  {m['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(f"perfbench: no repro package under {common.SRC}",
              file=sys.stderr)
        return 2
    catalog = declared()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)

    print(f"perfbench: workloads={','.join(names)} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("settings: " + " ".join(f"{k}={v}" for k, v in
                                  common.settings().items()))
    calib_start = calibrate()
    results, metrics = {}, {}
    try:
        for name in names:
            run = run_traced if trace else run_untraced
            result = results[name] = run(name, args.seed, args.seconds)
            found = (per_layer_metrics(result, catalog["per_layer"])
                     if trace else result["end_to_end"])
            prefix = f"{name}." if len(names) > 1 else ""
            # A latency median is infinite when most requests failed;
            # strict JSON has no Infinity, so that reads as null.
            metrics.update({prefix + k: {
                "value": v["value"] if math.isfinite(v["value"]) else None,
                "unit": v["unit"]} for k, v in found.items()})
    except BenchmarkError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    calib_end = calibrate()
    print(f"calibration ({CALIBRATION_LOOPS:,}-iteration pure-Python loop): "
          f"start {calib_start * 1e3:.1f} ms, end {calib_end * 1e3:.1f} ms")
    for name, result in results.items():
        report(name, result, trace)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and all(ok for r in results.values()
                                  for _, ok, _ in r["checks"])
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
