"""The iteration simulator: graph + hardware -> per-node roofline costs.

For every node the simulator computes, per direction:

* **compute time** — CONV/FC FMA FLOPs at that kernel's achieved efficiency
  (backward scaled down), plus elementwise ops at SIMD throughput. Ops from
  ghosted (fused-away) nodes are charged to their fusion hosts, so fusion
  moves arithmetic but never deletes it.
* **memory time** — the node's current sweep ledger priced through the
  cache model and streamed at effective bandwidth. Each tensor's
  one-sweep bytes are priced once per call, into one table over
  ``graph.tensors`` that every node's ledger sums from.
* **node time** — ``max(compute, memory) + invocations x call overhead``.

Precision is a first-class dimension: compute ceilings come from the
machine's per-precision capability tables (``peak_flops_by_precision`` and
friends), GEMMs accumulating wider than their storage dtype pay spill
traffic and downconvert ops, and cache-residency decisions follow the
tensors' actual byte sizes — so fp16 changes *both* roofs, not just a byte
multiplier. ``precision`` defaults to the graph's own element dtype, which
keeps every existing fp32 caller bit-identical.

``infinite_bw_kinds`` reproduces Figure 4's hypothetical machine: sweeps of
the listed op kinds cost no DRAM time (the paper emulated this by remapping
BN/ReLU addresses into L1-resident buffers while keeping the arithmetic).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from repro.errors import SimulationError
from repro.graph.graph import LayerGraph
from repro.graph.node import Node, OpKind
from repro.hw.cache import CacheModel
from repro.hw.spec import HardwareSpec
from repro.perf.flops import (
    gemm_conversion_ops,
    node_elementwise_ops,
    node_flops,
)
from repro.perf.report import IterationCost, NodeCost, PassCost
from repro.perf.traffic import SweepBytes, ledger_dram_bytes, sweep_bytes_table

#: Legacy fallback for graphs whose tensors carry no precision metadata
#: (built directly, never re-typed): element width -> precision name.
#: 2 bytes reads as fp16 — a bf16 graph always carries metadata, because
#: numpy has no 2-byte bf16 container to infer from in the first place.
_LEGACY_PRECISION_BY_BYTES = {2: "fp16", 4: "fp32", 8: "fp64"}


def simulate(
    graph: LayerGraph,
    hw: HardwareSpec,
    scenario: str = "baseline",
    infinite_bw_kinds: FrozenSet[OpKind] = frozenset(),
    include_overhead: bool = True,
    precision: Optional[str] = None,
) -> IterationCost:
    """Price one training iteration of *graph* on *hw*.

    ``precision`` selects the machine's capability table; ``None`` infers
    it from the graph's feature dtype (the graphs the sweep cache builds
    are re-typed to the cell's precision, so the two always agree).
    """
    batch = _infer_batch(graph)
    if precision is None:
        precision = _infer_precision(graph)
    sweep_bytes = sweep_bytes_table(graph, CacheModel(hw))
    rates = _Rates(hw, precision, include_overhead)

    # Charge ghosted nodes' elementwise work to their fusion hosts.
    extra_eops: Dict[str, list] = {}
    for node in graph.nodes:
        host = node.attrs.get("fused_into")
        if not host:
            continue
        fwd_e, bwd_e = node_elementwise_ops(node, graph)
        acc = extra_eops.setdefault(host, [0.0, 0.0])
        acc[0] += fwd_e
        acc[1] += bwd_e

    return IterationCost(
        model=graph.name, hardware=hw.name, scenario=scenario, batch=batch,
        nodes=[
            _price_node(node, graph, sweep_bytes, rates,
                        extra_eops.get(node.name, (0.0, 0.0)), infinite_bw_kinds)
            for node in graph.nodes
        ],
    )


def _infer_batch(graph: LayerGraph) -> int:
    for node in graph.nodes:
        if node.kind == OpKind.DATA:
            return graph.tensor(node.outputs[0]).shape[0]
    raise SimulationError(f"{graph.name}: no DATA node; cannot infer batch size")


def _infer_precision(graph: LayerGraph) -> str:
    """The graph's training precision, from its input-batch tensor.

    The precision *name* threaded through the tensor metadata by
    ``retype_graph`` is authoritative — byte width cannot distinguish
    fp16 from bf16. Only metadata-free graphs (built directly and never
    re-typed) fall back to the element-size heuristic.
    """
    for node in graph.nodes:
        if node.kind == OpKind.DATA:
            spec = graph.tensor(node.outputs[0])
            if spec.precision is not None:
                return spec.precision
            itemsize = spec.dtype.itemsize
            try:
                return _LEGACY_PRECISION_BY_BYTES[itemsize]
            except KeyError:
                raise SimulationError(
                    f"{graph.name}: no precision table for "
                    f"{itemsize}-byte elements"
                ) from None
    return "fp32"  # no DATA node: _infer_batch will have raised already


class _Rates:
    """The machine's rates at one precision, computed once per
    :func:`simulate` call instead of once per node."""

    def __init__(self, hw: HardwareSpec, precision: str,
                 include_overhead: bool):
        self.hw = hw
        self.precision = precision
        self.accumulate_bytes = hw.accumulate_bytes
        self.conv_traffic_factor = hw.conv_traffic_factor
        self.elementwise = hw.effective_elementwise(precision)
        self.bandwidth = hw.effective_bandwidth()
        self.overhead = hw.call_overhead_s if include_overhead else 0.0
        self._gemm: Dict[tuple, Tuple[float, float]] = {}

    def gemm(self, node: Node) -> Tuple[float, float]:
        """:func:`_gemm_efficiencies`, once per (kind, kernel size)."""
        key = (node.kind, node.attrs.get("kernel"))
        rates = self._gemm.get(key)
        if rates is None:
            rates = self._gemm[key] = _gemm_efficiencies(node, self.hw,
                                                         self.precision)
        return rates


def _price_node(
    node: Node,
    graph: LayerGraph,
    sweep_bytes: SweepBytes,
    rates: _Rates,
    extra_eops,
    infinite_bw_kinds: FrozenSet[OpKind],
) -> NodeCost:
    is_ghost = bool(node.attrs.get("fused_into"))

    fwd_flops, bwd_flops = node_flops(node, graph)
    fwd_eops, bwd_eops = (0.0, 0.0) if is_ghost else node_elementwise_ops(node, graph)
    fwd_eops += extra_eops[0]
    bwd_eops += extra_eops[1]
    # Downconvert of wide-accumulated GEMM outputs (zero at fp32).
    conv_fwd, conv_bwd = gemm_conversion_ops(node, graph, rates.accumulate_bytes)
    fwd_eops += conv_fwd
    bwd_eops += conv_bwd

    if node.kind in infinite_bw_kinds:
        fwd_bytes = bwd_bytes = 0
    else:
        fwd_bytes, bwd_bytes = ledger_dram_bytes(node, sweep_bytes,
                                                 rates.conv_traffic_factor)

    eff_fwd, eff_bwd = rates.gemm(node)
    elem_rate = rates.elementwise
    bw = rates.bandwidth
    overhead = rates.overhead

    fwd = PassCost(
        flops=fwd_flops,
        eops=fwd_eops,
        dram_bytes=fwd_bytes,
        compute_s=(fwd_flops / eff_fwd if fwd_flops else 0.0) + fwd_eops / elem_rate,
        mem_s=fwd_bytes / bw,
        overhead_s=overhead * node.fwd_invocations,
    )
    bwd = PassCost(
        flops=bwd_flops,
        eops=bwd_eops,
        dram_bytes=bwd_bytes,
        compute_s=(bwd_flops / eff_bwd if bwd_flops else 0.0) + bwd_eops / elem_rate,
        mem_s=bwd_bytes / bw,
        overhead_s=overhead * node.bwd_invocations,
    )
    return NodeCost(
        name=node.name, kind=node.kind, region=node.region,
        fwd=fwd, bwd=bwd, is_ghost=is_ghost,
    )


def _gemm_efficiencies(node: Node, hw: HardwareSpec, precision: str):
    """(forward, backward) achieved FLOP/s for GEMM-shaped nodes."""
    if node.kind == OpKind.CONV:
        eff = hw.conv_efficiency(node.attrs["kernel"], precision)
    elif node.kind == OpKind.FC:
        eff = hw.fc_efficiency_for(precision)
    else:
        return hw.peak_flops, hw.peak_flops  # unused (flops == 0)
    fwd = hw.peak_flops_for(precision) * eff
    return fwd, fwd * hw.bwd_efficiency_scale
