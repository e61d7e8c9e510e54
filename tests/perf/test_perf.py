"""Performance model: flop counts, traffic, roofline pricing, arithmetic
intensity, timeline."""

import dataclasses
import math

import pytest

from repro.errors import SimulationError
from repro.graph import GraphBuilder, OpKind
from repro.graph.node import CONV_LIKE
from repro.hw import SKYLAKE_2S, CacheModel
from repro.models import build_model
from repro.passes import apply_scenario
from repro.perf import (
    iteration_timeline,
    node_dram_bytes,
    node_elementwise_ops,
    node_flops,
    simulate,
)
from repro.perf.report import speedup


def small_paper_graph():
    """Small node count but paper-scale tensor sizes (so traffic is real)."""
    b = GraphBuilder("pg", batch=64, image=(3, 56, 56))
    x = b.input()
    x = b.conv(x, 64, kernel=3, padding=1, name="conv1")
    x = b.bn(x, name="bn1")
    x = b.relu(x, name="relu1")
    x = b.conv(x, 64, kernel=3, padding=1, name="conv2")
    b.loss(b.fc(b.global_pool(x), 10))
    return b.finalize()


class TestFlops:
    def test_conv_flops_formula(self):
        g = small_paper_graph()
        fwd, bwd = node_flops(g.node("conv1"), g)
        # 2 * K^2 * Cin * elements(Y)
        expected = 2 * 9 * 3 * (64 * 64 * 56 * 56)
        assert fwd == expected
        assert bwd == 2 * expected

    def test_fc_flops(self):
        g = small_paper_graph()
        fc = g.nodes_of_kind(OpKind.FC)[0]
        fwd, _ = node_flops(fc, g)
        assert fwd == 2 * 64 * 64 * 10

    def test_non_gemm_has_no_flops(self):
        g = small_paper_graph()
        assert node_flops(g.node("bn1"), g) == (0.0, 0.0)

    def test_bn_elementwise_ops(self):
        g = small_paper_graph()
        fwd, bwd = node_elementwise_ops(g.node("bn1"), g)
        elems = 64 * 64 * 56 * 56
        assert fwd == 7.0 * elems
        assert bwd == 10.0 * elems

    def test_mvf_reduces_bn_ops(self):
        g = small_paper_graph()
        bn = g.node("bn1")
        base_fwd, _ = node_elementwise_ops(bn, g)
        bn.attrs["mvf"] = True
        mvf_fwd, _ = node_elementwise_ops(bn, g)
        assert mvf_fwd < base_fwd

    def test_split_backward_ops_scale_with_consumers(self):
        b = GraphBuilder("s", batch=2, image=(3, 8, 8))
        x = b.input()
        a, c = b.relu(x, name="r1"), b.relu(x, name="r2")
        b.loss(b.fc(b.global_pool(b.ews([a, c])), 2))
        g = b.finalize()
        split = g.nodes_of_kind(OpKind.SPLIT)[0]
        fwd, bwd = node_elementwise_ops(split, g)
        assert fwd == 0.0
        assert bwd == 2 * 2 * 3 * 8 * 8


class TestTraffic:
    def test_bn_bytes_match_ledger(self):
        g = small_paper_graph()
        cache = CacheModel(SKYLAKE_2S)
        fwd, bwd = node_dram_bytes(g.node("bn1"), g, cache)
        t_bytes = 64 * 64 * 56 * 56 * 4
        wa = SKYLAKE_2S.write_allocate_factor
        assert fwd == 3 * t_bytes + int(wa * t_bytes)
        assert bwd == 4 * t_bytes + int(wa * t_bytes)

    def test_conv_traffic_factor_applied(self):
        g = small_paper_graph()
        cache = CacheModel(SKYLAKE_2S)
        no_factor = CacheModel(dataclasses.replace(SKYLAKE_2S, conv_traffic_factor=1.0))
        f2, _ = node_dram_bytes(g.node("conv1"), g, cache)
        f1, _ = node_dram_bytes(g.node("conv1"), g, no_factor)
        assert f2 == pytest.approx(2 * f1, rel=1e-6)

    def test_toy_scale_traffic_is_zero(self):
        g = build_model("tiny_cnn", batch=2)
        cache = CacheModel(SKYLAKE_2S)
        assert node_dram_bytes(g.node("body/bn1"), g, cache) == (0, 0)


class TestSimulator:
    def test_deterministic(self):
        g = small_paper_graph()
        a = simulate(g, SKYLAKE_2S)
        b = simulate(g, SKYLAKE_2S)
        assert a.total_time_s == b.total_time_s

    def test_batch_inferred(self):
        g = small_paper_graph()
        assert simulate(g, SKYLAKE_2S).batch == 64

    def test_no_data_node_raises(self):
        from repro.graph import LayerGraph
        with pytest.raises(SimulationError):
            simulate(LayerGraph("empty"), SKYLAKE_2S)

    def test_bn_is_memory_bound_conv_is_compute_bound(self):
        g = small_paper_graph()
        cost = simulate(g, SKYLAKE_2S)
        assert cost.node("bn1").fwd.bound == "memory"
        # conv2 has 64 input channels (conv1's 3-channel stem is honestly
        # memory-bound, like real first layers).
        assert cost.node("conv2").fwd.bound == "compute"

    def test_ghost_nodes_cost_nothing(self):
        g, _ = apply_scenario(small_paper_graph(), "bnff")
        cost = simulate(g, SKYLAKE_2S, "bnff")
        relu = cost.node("relu1")
        assert relu.is_ghost
        assert relu.time_s == 0.0

    def test_fused_ops_charged_to_host(self):
        """Fusion moves arithmetic, never deletes it."""
        base = simulate(small_paper_graph(), SKYLAKE_2S)
        g, _ = apply_scenario(small_paper_graph(), "bnff")
        fused = simulate(g, SKYLAKE_2S, "bnff")
        # conv2 absorbed the normalize+relu work:
        assert fused.node("conv2").fwd.eops > base.node("conv2").fwd.eops

    def test_infinite_bw_kinds(self):
        g = small_paper_graph()
        cost = simulate(g, SKYLAKE_2S,
                        infinite_bw_kinds=frozenset({OpKind.BN, OpKind.RELU}))
        assert cost.node("bn1").fwd.dram_bytes == 0
        assert cost.node("conv1").fwd.dram_bytes > 0

    def test_overhead_toggle(self):
        g = small_paper_graph()
        with_oh = simulate(g, SKYLAKE_2S)
        without = simulate(g, SKYLAKE_2S, include_overhead=False)
        assert with_oh.total_time_s > without.total_time_s

    def test_bnff_faster_than_baseline(self):
        base = simulate(small_paper_graph(), SKYLAKE_2S)
        g, _ = apply_scenario(small_paper_graph(), "bnff")
        fused = simulate(g, SKYLAKE_2S, "bnff")
        assert speedup(base, fused) > 0.05

    def test_breakdown_sums_to_total(self):
        cost = simulate(small_paper_graph(), SKYLAKE_2S)
        assert cost.conv_fc_time_s() + cost.non_conv_time_s() == pytest.approx(
            cost.total_time_s
        )

    def test_dram_bytes_by_kind_sums(self):
        cost = simulate(small_paper_graph(), SKYLAKE_2S)
        assert sum(cost.dram_bytes_by_kind().values()) == cost.dram_bytes


def node_ops(n):
    """Arithmetic of one node's iteration: GEMM flops plus elementwise ops."""
    return n.fwd.flops + n.fwd.eops + n.bwd.flops + n.bwd.eops


def intensity(n):
    """Ops per DRAM byte; infinite for a node that moves no DRAM bytes."""
    return node_ops(n) / n.dram_bytes if n.dram_bytes else math.inf


@pytest.fixture(scope="module")
def densenet_cost():
    return simulate(build_model("densenet121", batch=120), SKYLAKE_2S)


class TestArithmeticIntensity:
    """Section 3.1's argument in numbers: non-CONV layers sit far left of
    the machine's ridge point, so no amount of compute helps them — only
    traffic reduction does."""

    def test_non_conv_layers_far_below_ridge(self, densenet_cost):
        ridge = SKYLAKE_2S.peak_flops / SKYLAKE_2S.effective_bandwidth()
        # Late 7x7 layers fit in the LLC at batch 120 and move no DRAM
        # bytes: they are not part of the DRAM-bound population.
        bn_relu = [n for n in densenet_cost.nodes
                   if n.kind in (OpKind.BN, OpKind.RELU) and n.dram_bytes]
        assert bn_relu
        for n in bn_relu:
            assert intensity(n) < ridge / 10

    def test_conv_intensity_exceeds_non_conv(self, densenet_cost):
        def time_weighted(conv_like):
            chosen = [n for n in densenet_cost.nodes
                      if (n.kind in CONV_LIKE) == conv_like
                      and n.dram_bytes and n.time_s > 0]
            total = sum(n.time_s for n in chosen)
            return sum(intensity(n) * n.time_s for n in chosen) / total

        assert time_weighted(True) > 10 * time_weighted(False) > 0

    def test_achieved_throughput_bounded_by_peak(self, densenet_cost):
        # Elementwise ops are bounded by the SIMD rate, convs by the FMA
        # peak; neither can exceed the FMA peak.
        for n in densenet_cost.nodes:
            if n.time_s > 0:
                assert node_ops(n) / n.time_s <= SKYLAKE_2S.peak_flops * 1.01

    def test_cache_resident_iteration_moves_no_dram_bytes(self):
        cost = simulate(build_model("tiny_cnn", batch=2), SKYLAKE_2S)
        assert cost.total_time_s > 0
        assert cost.dram_bytes == 0
        assert all(intensity(n) == math.inf for n in cost.nodes)


class TestTimeline:
    def test_segments_cover_iteration(self):
        cost = simulate(small_paper_graph(), SKYLAKE_2S)
        segments = iteration_timeline(cost)
        assert segments[-1].end_s == pytest.approx(cost.total_time_s)

    def test_forward_precedes_backward(self):
        cost = simulate(small_paper_graph(), SKYLAKE_2S)
        segments = iteration_timeline(cost)
        phases = [s.phase for s in segments]
        assert phases.index("bwd") > 0
        assert "fwd" not in phases[phases.index("bwd"):]

    def test_backward_is_reverse_order(self):
        cost = simulate(small_paper_graph(), SKYLAKE_2S)
        segments = [s for s in iteration_timeline(cost) if s.phase == "bwd"]
        names = [s.node for s in segments]
        assert names.index("conv2") < names.index("conv1")

    def test_bandwidth_never_exceeds_effective(self):
        cost = simulate(small_paper_graph(), SKYLAKE_2S)
        for s in iteration_timeline(cost):
            assert s.bandwidth_bps <= SKYLAKE_2S.effective_bandwidth() * 1.001

    def test_segments_are_contiguous(self):
        segments = iteration_timeline(simulate(small_paper_graph(), SKYLAKE_2S))
        assert segments[0].start_s == 0.0
        for prev, seg in zip(segments, segments[1:]):
            assert seg.duration_s > 0
            assert seg.start_s == prev.end_s

    def test_segments_carry_all_dram_traffic(self):
        cost = simulate(small_paper_graph(), SKYLAKE_2S)
        segments = iteration_timeline(cost)
        assert sum(s.dram_bytes for s in segments) == cost.dram_bytes

    def test_ghost_nodes_have_no_segment(self):
        g, _ = apply_scenario(small_paper_graph(), "bnff")
        cost = simulate(g, SKYLAKE_2S, "bnff")
        ghosts = {n.name for n in cost.nodes if n.is_ghost}
        assert ghosts
        assert not ghosts & {s.node for s in iteration_timeline(cost)}
