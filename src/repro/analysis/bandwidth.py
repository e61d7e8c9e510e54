"""Bandwidth studies: Figure 4 (infinite) and Figure 8 (scaled).

Figure 4's experiment: keep every operation but let BN and ReLU skip DRAM
(the paper remapped their buffers into L1-resident addresses); the ratio of
their finite- to infinite-bandwidth time is the headline ~20x.

Figure 8's experiment: halve the peak memory bandwidth (the paper
down-clocked the DDR4 channels) and observe (a) the baseline's non-CONV
share growing and (b) BNFF's gain growing — both signatures of the
bandwidth bottleneck BNFF attacks.

Both are sweep-engine grids (the ``infinite_bw`` and ``bandwidth_scales``
axes); this module holds the records they assemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro.graph.node import INFINITE_BW_KINDS, OpKind
from repro.perf.report import IterationCost


@dataclass(frozen=True)
class InfiniteBandwidthResult:
    """Figure 4's two bars plus the derived speedup."""

    model: str
    hardware: str
    finite_s: float
    infinite_s: float

    @property
    def speedup(self) -> float:
        return self.finite_s / self.infinite_s if self.infinite_s else float("inf")


def kind_time(cost: IterationCost,
              kinds: FrozenSet[OpKind] = INFINITE_BW_KINDS) -> float:
    """Total time spent in nodes of the given kinds (Figure 4's bars)."""
    return sum(n.time_s for n in cost.nodes if n.kind in kinds)


@dataclass(frozen=True)
class BandwidthPoint:
    """One bandwidth setting's baseline/BNFF costs (Figure 8 bars)."""

    bandwidth_gbs: float
    baseline: IterationCost
    bnff: IterationCost

    @property
    def bnff_gain(self) -> float:
        return 1.0 - self.bnff.total_time_s / self.baseline.total_time_s

    @property
    def baseline_non_conv_share(self) -> float:
        return self.baseline.non_conv_share()
