"""Analytical performance simulator (roofline + sweep ledger + cache model).

``simulate(graph, hw)`` walks a layer graph's forward and backward
schedules, prices each node as ``max(compute, DRAM traffic / bandwidth) +
invocation overhead``, and returns an :class:`~repro.perf.report.IterationCost`
with per-node attribution that the analysis layer turns into the paper's
figures.
"""

from repro.perf.flops import node_flops, node_elementwise_ops
from repro.perf.traffic import node_dram_bytes, sweep_dram_bytes
from repro.perf.report import NodeCost, PassCost, IterationCost
from repro.perf.simulator import simulate
from repro.perf.timeline import iteration_timeline, TimelineSegment
from repro.perf.footprint import training_footprint, footprint_savings, FootprintReport

__all__ = [
    "node_flops",
    "node_elementwise_ops",
    "node_dram_bytes",
    "sweep_dram_bytes",
    "NodeCost",
    "PassCost",
    "IterationCost",
    "simulate",
    "iteration_timeline",
    "TimelineSegment",
    "training_footprint",
    "footprint_savings",
    "FootprintReport",
]
