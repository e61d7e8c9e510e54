"""Execution-time breakdowns: CONV/FC vs non-CONV (Figures 1 and 6)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.report import IterationCost


@dataclass(frozen=True)
class Breakdown:
    """One model's time split on one machine."""

    model: str
    hardware: str
    batch: int
    total_s: float
    conv_fc_s: float
    non_conv_s: float

    @property
    def non_conv_share(self) -> float:
        return self.non_conv_s / self.total_s if self.total_s else 0.0

    @property
    def conv_fc_share(self) -> float:
        return 1.0 - self.non_conv_share

    @property
    def per_image_s(self) -> float:
        return self.total_s / self.batch


def breakdown_from_cost(cost: IterationCost) -> Breakdown:
    return Breakdown(
        model=cost.model,
        hardware=cost.hardware,
        batch=cost.batch,
        total_s=cost.total_time_s,
        conv_fc_s=cost.conv_fc_time_s(),
        non_conv_s=cost.non_conv_time_s(),
    )
