"""Every paper figure prices identically through the sweep engine and
straight through the pipeline.

The reference is :func:`direct`: build the model, apply the scenario,
simulate — no cache, no store, no session — combined with the same
analysis helpers the experiments use. This test pins the two paths to
*exactly* equal floats, and checks a warm cache re-runs the figure-7
grid measurably faster than a cold one. (The printed numbers themselves
are pinned by tests/experiments/test_golden_stdout.py.)
"""

import time

import pytest

from repro.analysis.bandwidth import BandwidthPoint, kind_time
from repro.analysis.breakdown import breakdown_from_cost
from repro.analysis.scenarios import scenario_results_from_costs
from repro.experiments import (
    figure1,
    figure3,
    figure4,
    figure6,
    figure7,
    figure8,
    gpu_results,
    table1,
)
from repro.graph.node import INFINITE_BW_KINDS
from repro.hw.presets import (
    KNIGHTS_LANDING,
    PASCAL_TITAN_X,
    PASCAL_TITAN_X_CUTLASS,
    SKYLAKE_2S,
    TABLE1_ARCHITECTURES,
)
from repro.models.registry import build_model
from repro.passes.scenarios import SCENARIO_ORDER, apply_scenario
from repro.perf.simulator import simulate
from repro.perf.timeline import iteration_timeline
from repro.sweep import GraphCache, run_sweep


def direct(model, hw, batch, scenario="baseline", **kw):
    """One cell priced build -> scenario -> simulate, without the engine."""
    graph, _ = apply_scenario(build_model(model, batch=batch), scenario)
    return simulate(graph, hw, scenario=scenario, **kw)


def test_figure1_breakdowns_equal_direct_pipeline():
    via_sweep = figure1.run().breakdowns
    reference = [breakdown_from_cost(direct(m, SKYLAKE_2S, 120))
                 for m in figure1.MODELS]
    assert via_sweep == reference  # frozen dataclasses: exact field equality


def test_figure3_timeline_equals_direct_simulation():
    via_sweep = figure3.run()
    cost = simulate(build_model("densenet121", batch=120), SKYLAKE_2S)
    assert via_sweep.segments == iteration_timeline(cost)


def test_figure4_speedup_equals_direct_pipeline():
    via_sweep = figure4.run()
    finite = kind_time(direct("densenet121", SKYLAKE_2S, 120))
    infinite = kind_time(direct("densenet121", SKYLAKE_2S, 120,
                                infinite_bw_kinds=INFINITE_BW_KINDS))
    assert via_sweep.finite_s == finite
    assert via_sweep.infinite_s == infinite
    assert via_sweep.speedup == finite / infinite


def test_figure6_breakdowns_equal_direct_pipeline():
    via_sweep = figure6.run().breakdowns
    reference = [
        breakdown_from_cost(direct("densenet121", hw, batch))
        for hw, batch in ((PASCAL_TITAN_X, 28), (KNIGHTS_LANDING, 128),
                          (SKYLAKE_2S, 120))
    ]
    assert via_sweep == reference


@pytest.fixture(scope="module")
def fig7_direct():
    return {
        model: scenario_results_from_costs(
            [direct(model, SKYLAKE_2S, 120, s) for s in SCENARIO_ORDER]
        )
        for model in ("densenet121", "resnet50")
    }


def test_figure7_scenario_results_equal_direct_pipeline(fig7_direct):
    via_sweep = figure7.run()
    for model, direct_results in fig7_direct.items():
        sweep_results = via_sweep.results[model]
        assert len(sweep_results) == len(direct_results)
        for s, ref in zip(sweep_results, direct_results):
            assert s.scenario == ref.scenario
            assert s.cost.total_time_s == ref.cost.total_time_s
            assert s.cost.fwd_time_s == ref.cost.fwd_time_s
            assert s.cost.bwd_time_s == ref.cost.bwd_time_s
            assert s.cost.dram_bytes == ref.cost.dram_bytes
            assert s.total_gain == ref.total_gain
            assert s.fwd_gain == ref.fwd_gain
            assert s.bwd_gain == ref.bwd_gain
            assert s.dram_reduction == ref.dram_reduction


def test_figure8_points_equal_direct_pipeline():
    via_sweep = figure8.run()
    reference = []
    for gbs in figure8.BANDWIDTHS_GBS:
        # Derived from Skylake here, not read from the half-rate preset.
        hw = SKYLAKE_2S.with_bandwidth(gbs * 1e9)
        reference.append(BandwidthPoint(
            bandwidth_gbs=gbs,
            baseline=direct("densenet121", hw, 120),
            bnff=direct("densenet121", hw, 120, "bnff"),
        ))
    assert len(via_sweep.points) == len(reference)
    for p, ref in zip(via_sweep.points, reference):
        assert p.bandwidth_gbs == ref.bandwidth_gbs
        assert p.baseline.total_time_s == ref.baseline.total_time_s
        assert p.bnff.total_time_s == ref.bnff.total_time_s
        assert p.bnff_gain == ref.bnff_gain
        assert p.baseline_non_conv_share == ref.baseline_non_conv_share


def test_table1_rows_equal_preset_loop():
    # The pre-sweep implementation read the frozen presets directly.
    via_loop = [
        (hw.name, hw.peak_flops / 1e12, hw.dram_bandwidth / 1e9)
        for hw in TABLE1_ARCHITECTURES
    ]
    assert table1.run().rows == via_loop


def test_gpu_results_equal_direct_pipeline():
    via_sweep = gpu_results.run()
    batch = gpu_results.BATCH
    for model in ("densenet121", "resnet50"):
        reference = scenario_results_from_costs([
            direct(model, PASCAL_TITAN_X_CUTLASS, batch, s)
            for s in gpu_results.SCENARIOS
        ])
        cudnn = direct(model, PASCAL_TITAN_X, batch)
        sweep_results = via_sweep.results[model]
        assert len(sweep_results) == len(reference)
        for s, ref in zip(sweep_results, reference):
            assert s.scenario == ref.scenario
            assert s.cost.total_time_s == ref.cost.total_time_s
            assert s.cost.dram_bytes == ref.cost.dram_bytes
            assert s.total_gain == ref.total_gain
            assert s.fwd_gain == ref.fwd_gain
            assert s.bwd_gain == ref.bwd_gain
        assert via_sweep.cutlass_slowdown[model] == (
            reference[0].cost.total_time_s / cudnn.total_time_s
        )


def test_figure7_warm_cache_rerun_is_measurably_faster():
    cache = GraphCache()
    t0 = time.perf_counter()
    cold = run_sweep(figure7.GRID, cache=cache)
    t_cold = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = run_sweep(figure7.GRID, cache=cache)
    t_warm = time.perf_counter() - t0

    # Warm run skips every build, pass pipeline and pricing...
    assert cache.stats.cost_hits == len(cold)
    assert [r.cost for r in warm.rows] == [r.cost for r in cold.rows]
    # ...so it must beat the cold run comfortably (generous 2x margin —
    # in practice it is orders of magnitude faster).
    assert t_warm < t_cold / 2
