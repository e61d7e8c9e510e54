"""Analysis layer: breakdowns, scenario gains, bandwidth records,
rendering — over tiny sweep-engine grids."""

import pytest

from repro.analysis import (
    breakdown_from_cost,
    format_figure_series,
    format_table,
    paper_style_icf_estimate,
    scenario_results_from_costs,
)
from repro.analysis.bandwidth import BandwidthPoint, kind_time
from repro.analysis.scenarios import invocation_counts
from repro.hw import SKYLAKE_2S
from repro.sweep import SweepSpec, run_sweep


class TestBreakdown:
    def test_shares_sum_to_one(self):
        store = run_sweep(SweepSpec(models=("tiny_cnn",),
                                    scenarios=("baseline",), batches=(4,)))
        b = breakdown_from_cost(store.cost())
        assert b.conv_fc_share + b.non_conv_share == pytest.approx(1.0)

    def test_breakdown_rows_follow_model_order(self):
        store = run_sweep(SweepSpec(models=("vgg16", "alexnet"),
                                    scenarios=("baseline",), batches=(4,)))
        rows = [breakdown_from_cost(c) for c in store.costs()]
        assert [r.model for r in rows] == ["vgg16", "alexnet"]

    def test_per_image_time_per_batch(self):
        store = run_sweep([
            SweepSpec(models=("tiny_cnn",), hardware=(hw,),
                      scenarios=("baseline",), batches=(batch,))
            for hw, batch in (("skylake_2s", 4), ("knights_landing", 8))
        ])
        rows = [breakdown_from_cost(c) for c in store.costs()]
        assert [r.batch for r in rows] == [4, 8]
        assert rows[0].per_image_s == pytest.approx(rows[0].total_s / 4)


class TestScenarioComparison:
    @pytest.fixture(scope="class")
    def results(self):
        store = run_sweep(SweepSpec(models=("tiny_densenet",), batches=(2,)))
        return scenario_results_from_costs(store.costs())

    def test_baseline_first_with_zero_gain(self, results):
        assert results[0].scenario == "baseline"
        assert results[0].total_gain == 0.0

    def test_gains_monotone_nonnegative(self, results):
        gains = [r.total_gain for r in results]
        assert all(g >= 0 for g in gains)
        assert gains == sorted(gains)

    def test_icf_estimate_at_least_bnff(self, results):
        bnff = next(r for r in results if r.scenario == "bnff")
        assert paper_style_icf_estimate(results) >= bnff.total_gain

    def test_invocation_counts_decrease(self, results):
        counts = invocation_counts(results)
        assert counts["bnff"] < counts["baseline"]


class TestBandwidthStudies:
    def test_infinite_bandwidth_kind_time(self):
        store = run_sweep(SweepSpec(models=("tiny_densenet",),
                                    scenarios=("baseline",), batches=(2,),
                                    infinite_bw=(False, True)))
        finite = kind_time(store.cost(infinite_bw=False))
        infinite = kind_time(store.cost(infinite_bw=True))
        # Toy tensors are cache resident -> no DRAM time at all; speedup
        # degenerates to ~1. Just check the structure is sane.
        assert finite >= infinite > 0

    def test_bnff_at_most_baseline_at_each_bandwidth(self):
        scales = (1.0, 0.5)
        store = run_sweep(SweepSpec(models=("tiny_densenet",),
                                    scenarios=("baseline", "bnff"),
                                    batches=(2,), bandwidth_scales=scales))
        points = [
            BandwidthPoint(
                bandwidth_gbs=SKYLAKE_2S.dram_bandwidth * s / 1e9,
                baseline=store.cost(scenario="baseline", bandwidth_scale=s),
                bnff=store.cost(scenario="bnff", bandwidth_scale=s),
            )
            for s in scales
        ]
        assert [p.bandwidth_gbs for p in points] == [230.4, 115.2]
        for p in points:
            assert p.baseline.total_time_s >= p.bnff.total_time_s


class TestRendering:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [(1, 2.5), (30, 4.25)], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_figure_series(self):
        out = format_figure_series("fig", ["x1", "x2"], [1.0, 2.0])
        assert "fig" in out
        assert out.count("|") == 2

    def test_series_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_figure_series("f", ["a"], [1.0, 2.0])

    def test_zero_series_renders(self):
        out = format_figure_series("f", ["a"], [0.0])
        assert "0" in out
