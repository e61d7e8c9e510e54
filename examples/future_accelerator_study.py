#!/usr/bin/env python
"""Future-accelerator study: how BNFF's value scales with machine balance.

The paper closes on a prediction: as peak compute grows faster than memory
bandwidth ("computation is cheap and communication is expensive"), the
non-CONV layers BNFF attacks will dominate even more of training time.
This example makes that quantitative with the library's hardware model:

* sweep DRAM bandwidth from 2x down to 1/8x of the Skylake baseline at
  fixed compute (Figure 8 extended into a curve), and
* sweep peak compute up at fixed bandwidth — the trajectory real
  accelerators followed after 2019 — reporting the baseline non-CONV share
  and the BNFF gain at every point.

Run:  python examples/future_accelerator_study.py
"""

import dataclasses

from repro.analysis import format_table
from repro.analysis.bandwidth import BandwidthPoint
from repro.hw import SKYLAKE_2S
from repro.models import build_model
from repro.passes import apply_scenario
from repro.perf import simulate
from repro.perf.report import speedup
from repro.sweep import SweepSpec, run_sweep

#: Multipliers on Skylake's 230.4 GB/s: 460.8 down to 28.8 GB/s.
BANDWIDTH_SCALES = (2.0, 1.0, 0.5, 0.25, 0.125)


def bandwidth_curve() -> None:
    print("=== BNFF gain vs DRAM bandwidth (DenseNet-121, fixed compute) ===")
    store = run_sweep(SweepSpec(
        name="bandwidth_curve",
        models=("densenet121",),
        scenarios=("baseline", "bnff"),
        bandwidth_scales=BANDWIDTH_SCALES,
    ))
    points = [
        BandwidthPoint(
            bandwidth_gbs=SKYLAKE_2S.dram_bandwidth * scale / 1e9,
            baseline=store.cost(scenario="baseline", bandwidth_scale=scale),
            bnff=store.cost(scenario="bnff", bandwidth_scale=scale),
        )
        for scale in BANDWIDTH_SCALES
    ]
    rows = [
        (
            f"{p.bandwidth_gbs:.1f}",
            f"{SKYLAKE_2S.peak_flops / (p.bandwidth_gbs * 1e9):.1f}",
            f"{p.baseline_non_conv_share * 100:.1f}%",
            f"{p.bnff_gain * 100:.1f}%",
        )
        for p in points
    ]
    print(format_table(
        ["GB/s", "FLOP/B", "baseline non-CONV", "BNFF gain"], rows,
    ))
    print("(the paper's two measured points: 230.4 -> 25.7%, 115.2 -> 30.1%)\n")


def compute_curve() -> None:
    print("=== BNFF gain vs peak compute (fixed 230.4 GB/s) ===")
    graph = build_model("densenet121", batch=120)
    bnff_graph, _ = apply_scenario(graph, "bnff")
    rows = []
    for scale in (1.0, 2.0, 4.0, 8.0):
        # The per-precision tables scale with their scalar twins (their
        # fp32 entries must equal the scalars).
        hw = dataclasses.replace(
            SKYLAKE_2S,
            name=f"skylake_x{scale:g}",
            peak_flops=SKYLAKE_2S.peak_flops * scale,
            elementwise_ops=SKYLAKE_2S.elementwise_ops * scale,
            peak_flops_by_precision={
                p: v * scale
                for p, v in SKYLAKE_2S.peak_flops_by_precision.items()
            },
            elementwise_ops_by_precision={
                p: v * scale
                for p, v in SKYLAKE_2S.elementwise_ops_by_precision.items()
            },
        )
        base = simulate(graph, hw)
        fused = simulate(bnff_graph, hw, scenario="bnff")
        rows.append((
            f"x{scale:g}",
            f"{hw.flop_per_byte:.0f}",
            f"{base.non_conv_share() * 100:.1f}%",
            f"{speedup(base, fused) * 100:.1f}%",
        ))
    print(format_table(
        ["compute", "FLOP/B", "baseline non-CONV", "BNFF gain"], rows,
    ))
    print("compute scaling alone pushes training into the regime where "
          "restructuring BN is the first-order optimization — the paper's "
          "closing argument.")


if __name__ == "__main__":
    bandwidth_curve()
    compute_curve()
