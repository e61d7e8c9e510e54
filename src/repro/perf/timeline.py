"""Execution timeline: Figure 3's bandwidth-utilization-over-time view.

The frameworks the paper instruments execute layers sequentially, so the
timeline is simply the node schedule (forward order, then reverse order for
backward) laid end to end, each segment carrying its DRAM byte volume and
therefore its achieved bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.graph.node import OpKind
from repro.perf.report import IterationCost


@dataclass(frozen=True)
class TimelineSegment:
    """One node execution on the serialized schedule."""

    node: str
    kind: OpKind
    phase: str  # "fwd" | "bwd"
    start_s: float
    duration_s: float
    dram_bytes: int

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    @property
    def bandwidth_bps(self) -> float:
        """Achieved DRAM bandwidth during this segment."""
        return self.dram_bytes / self.duration_s if self.duration_s > 0 else 0.0


def iteration_timeline(cost: IterationCost) -> List[TimelineSegment]:
    """Serialize one iteration: forward pass then backward pass."""
    segments: List[TimelineSegment] = []
    t = 0.0
    for n in cost.nodes:
        if n.fwd.time_s > 0:
            segments.append(TimelineSegment(n.name, n.kind, "fwd", t,
                                            n.fwd.time_s, n.fwd.dram_bytes))
            t += n.fwd.time_s
    for n in reversed(cost.nodes):
        if n.bwd.time_s > 0:
            segments.append(TimelineSegment(n.name, n.kind, "bwd", t,
                                            n.bwd.time_s, n.bwd.dram_bytes))
            t += n.bwd.time_s
    return segments
