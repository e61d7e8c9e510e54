"""Workload ``figures``: regenerate the paper's figures through the CLI path.

Closed loop, serial pricing. Each cycle regenerates :data:`IDS` the way
``python -m repro.experiments <ids> --cache-dir DIR`` does (one
``SweepSession`` with write-through to DIR, every experiment rendered to
stdout), first *cold* — empty memory tier, empty fresh DIR — then
:data:`WARM_PER_COLD` times *warm-disk* — a fresh session over the
populated DIR, a restart in miniature. ``ext_kernel_precision`` and
``ext_measured_roofline`` are left out: they run numpy kernels, and the
latter prints wall clocks, so its text never repeats.
"""

import time

T0 = time.perf_counter()  # benchmark start: before repro loads

import contextlib  # noqa: E402
import io  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

import common  # noqa: E402
from common import Checks, emit, peak_rss_mb, timing  # noqa: E402

IDS = ("fig1", "fig3", "fig4", "fig6", "fig7", "fig8", "tab1", "gpu",
       "ext_mobilenet", "ext_depth_scaling", "ext_precision")
WARM_PER_COLD = 3
PHASES = ("cold", "warm_disk")
#: Per-phase self-time layers, in report order.
LAYERS = ("models.build_model", "passes.apply_scenario", "perf.simulate",
          "sweep.persist.store", "sweep.persist.load", "sweep.session.run",
          "experiments.run", "experiments.render")
COUNTED = ("models.build_model", "passes.apply_scenario", "perf.simulate",
           "sweep.persist.store", "sweep.persist.load")


def regenerate(cache_dir: str):
    """One CLI-equivalent regeneration; returns (stdout text, CacheStats)."""
    from repro.experiments import EXPERIMENTS
    from repro.sweep import SweepSession, use_session

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        # The body of repro.experiments.runner.main for these flags.
        with SweepSession(cache_dir=cache_dir) as session, \
                use_session(session):
            for eid in IDS:
                module = EXPERIMENTS[eid]
                print("=" * 72)
                print(module.render(module.run()))
                print()
    return out.getvalue(), session.stats


def install(tracer) -> None:
    import repro.sweep.cache as cache_mod
    import repro.sweep.runner as runner_mod
    from repro.experiments import EXPERIMENTS
    from repro.sweep.persist import PersistentCache

    def stored_bytes(args, kwargs, result):  # store(self, kind, key, obj)
        self_, kind, key = args[:3]
        try:
            return os.path.getsize(self_.path_for(kind, key))
        except OSError:
            return 0

    tracer.patch(cache_mod, "build_model", "models.build_model")
    tracer.patch(cache_mod, "apply_scenario", "passes.apply_scenario")
    tracer.patch(runner_mod, "simulate", "perf.simulate")
    tracer.patch(PersistentCache, "store", "sweep.persist.store",
                 measure=stored_bytes)
    tracer.patch(PersistentCache, "load", "sweep.persist.load")
    tracer.patch(runner_mod.SweepSession, "run", "sweep.session.run")
    for eid in IDS:
        tracer.patch(EXPERIMENTS[eid], "run", "experiments.run")
        tracer.patch(EXPERIMENTS[eid], "render", "experiments.render")


def layer_metrics(tracer, reps: dict, stats: dict) -> dict:
    totals = tracer.totals(lambda op: op[0] if op else None)
    out = {}
    for phase in PHASES:
        n = reps[phase]

        def entry(layer):
            return totals.get((phase, layer),
                              {"self_s": 0.0, "calls": 0, "bytes": 0})

        for layer in LAYERS:
            out[f"figures.{phase}.{layer}_ms"] = {
                "value": entry(layer)["self_s"] * 1e3 / n, "unit": "ms/op"}
        for layer in COUNTED:
            out[f"figures.{phase}.{layer}_calls"] = {
                "value": entry(layer)["calls"] / n, "unit": "count/op"}
        out[f"figures.{phase}.sweep.persist.store_mb"] = {
            "value": entry("sweep.persist.store")["bytes"] / 1e6 / n,
            "unit": "MB/op"}
        s = stats[phase]
        for stage in ("graph", "scenario", "cost"):
            lookups = (s[f"{stage}_hits"] + s[f"{stage}_disk_hits"]
                       + s[f"{stage}_misses"])
            out[f"figures.{phase}.sweep.cache.{stage}_hit_ratio"] = {
                "value": s[f"{stage}_hits"] / lookups if lookups else 0.0,
                "unit": "ratio"}
    return out


def fig7_gain(cache_dir: str) -> float:
    """Simulated DenseNet-121 BNFF gain (Figure 7), from the warm cache."""
    from repro.experiments import figure7
    from repro.sweep import SweepSession, use_session

    with SweepSession(cache_dir=cache_dir) as session, use_session(session):
        return figure7.run().of("densenet121", "bnff").total_gain


def main() -> None:
    args = common.child_args()
    tracer = None
    if args.trace_out:
        from tracer import OP, Tracer

        tracer = Tracer("figures")
    import repro.experiments  # noqa: F401  (the CLI's import cost)
    import repro.sweep  # noqa: F401

    if tracer is not None:
        install(tracer)
    os.makedirs(common.WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="figures-", dir=common.WORK)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        shutil.rmtree(work, ignore_errors=True)
        emit({"setup_s": setup_s})
        return

    checks = Checks()
    samples = {phase: [] for phase in PHASES}
    stats = {phase: {} for phase in PHASES}
    failed_ops = 0
    cycle = 0
    cycle_s = 0.0
    deadline = time.perf_counter() + args.seconds
    try:
        # Whole cycles only, and none that would end past the deadline.
        while cycle == 0 or time.perf_counter() + cycle_s <= deadline:
            cycle_start = time.perf_counter()
            cache_dir = os.path.join(work, f"cycle{cycle}")
            os.makedirs(cache_dir)
            if tracer is not None:
                OP.set(("cold", cycle))
            t = time.perf_counter()
            cold_text, cold_stats = regenerate(cache_dir)
            samples["cold"].append(time.perf_counter() - t)
            _merge(stats["cold"], cold_stats.as_dict())
            for rep in range(WARM_PER_COLD):
                if tracer is not None:
                    OP.set(("warm_disk", (cycle, rep)))
                t = time.perf_counter()
                warm_text, warm_stats = regenerate(cache_dir)
                samples["warm_disk"].append(time.perf_counter() - t)
                _merge(stats["warm_disk"], warm_stats.as_dict())
                ok = checks.check(
                    "warm-disk stdout is byte-identical to cold",
                    warm_text == cold_text,
                    f"cycle {cycle} rep {rep}")
                ok &= checks.check(
                    "warm-disk builds, restructures and prices nothing",
                    warm_stats.computed_nothing, f"{warm_stats.as_dict()}")
                failed_ops += not ok
            if cycle > 0:
                shutil.rmtree(os.path.join(work, f"cycle{cycle - 1}"))
            cycle_s = time.perf_counter() - cycle_start
            cycle += 1
        if tracer is not None:
            OP.set(None)
            tracer.undo()
        gain = fig7_gain(cache_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = {phase: len(v) for phase, v in samples.items()}
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "metrics": {"figures_cold_s": timing(samples["cold"], "s"),
                    "figures_warm_disk_s": timing(samples["warm_disk"], "s")},
        "info": {
            "fig7 densenet121 bnff gain (simulated)": f"{gain * 100:.1f}%",
            "paper's measured gain": "25.7%",
            "stdout bytes per regeneration": len(cold_text),
        },
        "attempted": sum(reps.values()),
        "failed": failed_ops,
        "checks": _dedupe(checks.results),
    }
    if tracer is not None:
        from tracer import write_chrome

        result["layers"] = layer_metrics(tracer, reps, stats)
        write_chrome(args.trace_out, tracer.chrome_events())
        result["trace"] = args.trace_out
    emit(result)


def _merge(total: dict, add: dict) -> None:
    for k, v in add.items():
        total[k] = total.get(k, 0) + v


def _dedupe(results: list) -> list:
    """One line per check: failed instances first, else the first pass."""
    out = {}
    for name, ok, detail in results:
        if name not in out or (out[name][1] and not ok):
            out[name] = [name, ok, detail]
    return list(out.values())


if __name__ == "__main__":
    main()
