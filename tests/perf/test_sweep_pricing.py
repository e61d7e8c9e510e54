"""``simulate`` prices each tensor's sweep once per call; the sum must not move.

The reference below prices a graph the long way: every node's DRAM bytes
summed sweep by sweep through the public ``sweep_dram_bytes``, and every
rate asked of the hardware spec node by node. ``IterationCost`` equality
is exact equality of every column, so any difference in a byte count, a
rate or the order of a sum fails the comparison.
"""

import pytest

from repro.graph import OpKind
from repro.hw.cache import CacheModel
from repro.hw.presets import SKYLAKE_2S, preset_names
from repro.models.registry import MODEL_BUILDERS
from repro.passes.scenarios import SCENARIO_ORDER
from repro.perf import IterationCost, NodeCost, PassCost, simulate, sweep_dram_bytes
from repro.perf.flops import gemm_conversion_ops, node_elementwise_ops, node_flops
from repro.sweep import INFINITE_BW_KINDS, SweepCell
from repro.sweep.cache import GraphCache
from repro.sweep.runner import cell_hardware, price_cell

PAPER_MODELS = sorted(m for m in MODEL_BUILDERS if not m.startswith("tiny_"))


def per_sweep_cost(graph, hw, scenario, precision, infinite_bw_kinds=frozenset()):
    """The simulator's roofline, priced one sweep and one node at a time."""
    cache = CacheModel(hw)
    batch = next(graph.tensor(n.outputs[0]).shape[0]
                 for n in graph.nodes if n.kind is OpKind.DATA)
    hosted = {}
    for node in graph.nodes:
        if node.attrs.get("fused_into"):
            acc = hosted.setdefault(node.attrs["fused_into"], [0.0, 0.0])
            fwd_e, bwd_e = node_elementwise_ops(node, graph)
            acc[0] += fwd_e
            acc[1] += bwd_e

    def ledger_bytes(node, sweeps):
        if node.kind in infinite_bw_kinds:
            return 0
        factor = hw.conv_traffic_factor if node.is_conv_like else 1.0
        return int(sum(sweep_dram_bytes(s, graph, cache, node.is_conv_like)
                       for s in sweeps) * factor)

    def pass_cost(node, flops, eops, nbytes, gemm_rate, invocations):
        return PassCost(
            flops=flops, eops=eops, dram_bytes=nbytes,
            compute_s=((flops / gemm_rate if flops else 0.0)
                       + eops / hw.effective_elementwise(precision)),
            mem_s=nbytes / hw.effective_bandwidth(),
            overhead_s=hw.call_overhead_s * invocations,
        )

    nodes = []
    for node in graph.nodes:
        ghost = bool(node.attrs.get("fused_into"))
        fwd_f, bwd_f = node_flops(node, graph)
        fwd_e, bwd_e = (0.0, 0.0) if ghost else node_elementwise_ops(node, graph)
        extra = hosted.get(node.name, (0.0, 0.0))
        conv_f, conv_b = gemm_conversion_ops(node, graph, hw.accumulate_bytes)
        fwd_e, bwd_e = fwd_e + extra[0] + conv_f, bwd_e + extra[1] + conv_b
        if node.kind is OpKind.CONV:
            rate = (hw.peak_flops_for(precision)
                    * hw.conv_efficiency(node.attrs["kernel"], precision))
        elif node.kind is OpKind.FC:
            rate = hw.peak_flops_for(precision) * hw.fc_efficiency_for(precision)
        else:
            rate = hw.peak_flops  # no GEMM FLOPs to divide
        nodes.append(NodeCost(
            name=node.name, kind=node.kind, region=node.region,
            fwd=pass_cost(node, fwd_f, fwd_e, ledger_bytes(node, node.fwd_sweeps),
                          rate, node.fwd_invocations),
            bwd=pass_cost(node, bwd_f, bwd_e, ledger_bytes(node, node.bwd_sweeps),
                          rate * hw.bwd_efficiency_scale, node.bwd_invocations),
            is_ghost=ghost,
        ))
    return IterationCost(model=graph.name, hardware=hw.name, scenario=scenario,
                         batch=batch, nodes=nodes)


@pytest.fixture(scope="module")
def graphs():
    return GraphCache()


@pytest.mark.parametrize("model", PAPER_MODELS)
def test_simulate_equals_the_per_sweep_sum(graphs, model):
    for precision in ("fp32", "fp16", "bf16"):
        for scenario in SCENARIO_ORDER:
            graph = graphs.scenario_graph(model, 120, scenario, precision)
            cost = simulate(graph, SKYLAKE_2S, scenario=scenario,
                            precision=precision)
            assert cost == per_sweep_cost(graph, SKYLAKE_2S, scenario,
                                          precision), (scenario, precision)
            assert cost.dram_bytes > 0


@pytest.mark.parametrize("hardware", preset_names())
def test_every_preset_and_hardware_axis(graphs, hardware):
    """DenseNet-121 ``bnff_icf`` at batch 120, as the sweep runner prices it,
    on the infinite-bandwidth machine and at half bandwidth too."""
    graph = graphs.scenario_graph("densenet121", 120, "bnff_icf", "fp32")
    for infinite_bw in (False, True):
        for scale in (1.0, 0.5):
            cell = SweepCell("densenet121", hardware, "bnff_icf", 120,
                             infinite_bw=infinite_bw, bandwidth_scale=scale)
            kinds = INFINITE_BW_KINDS if infinite_bw else frozenset()
            assert price_cell(cell, graphs) == per_sweep_cost(
                graph, cell_hardware(cell), "bnff_icf", "fp32", kinds,
            ), (infinite_bw, scale)
