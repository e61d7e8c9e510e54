#!/usr/bin/env python
"""Full paper evaluation: regenerate Section 5's study from the library API.

Reproduces the Figure 7 scenario sweep for DenseNet-121 and ResNet-50 with
extra detail the paper's bars compress away: per-layer-type time and DRAM
attribution for each scenario, the forward/backward split, primitive
invocation counts (the "fewer subroutine calls" effect) and the paper-style
ICF extrapolation next to our physically-simulated ICF.

Run:  python examples/paper_evaluation.py
"""

from repro.analysis import (
    format_table,
    paper_style_icf_estimate,
    scenario_results_from_costs,
)
from repro.analysis.scenarios import invocation_counts
from repro.graph.node import OpKind
from repro.sweep import SweepSpec, run_sweep

PAPER_GAINS = {
    "densenet121": {"rcf": 9.2, "rcf_mvf": 10.9, "bnff": 25.7,
                    "bnff_icf": 43.7},
    "resnet50": {"bnff": 16.1},
}

KINDS_SHOWN = (OpKind.CONV, OpKind.BN, OpKind.RELU, OpKind.CONCAT,
               OpKind.SPLIT, OpKind.EWS)


def scenario_study(model: str) -> None:
    print(f"\n##### {model} (Skylake 2S, batch 120) #####")
    # Every scenario on Skylake 2S at batch 120 (the SweepSpec defaults),
    # baseline first.
    results = scenario_results_from_costs(
        run_sweep(SweepSpec(models=(model,))).costs()
    )

    rows = []
    for r in results:
        paper = PAPER_GAINS.get(model, {}).get(r.scenario)
        rows.append((
            r.scenario,
            f"{r.cost.fwd_time_s:.3f}",
            f"{r.cost.bwd_time_s:.3f}",
            f"{r.total_gain * 100:.1f}%",
            f"{paper:.1f}%" if paper is not None else "-",
            f"{r.cost.dram_bytes / 1e9:.1f}",
        ))
    print(format_table(
        ["scenario", "fwd (s)", "bwd (s)", "gain", "paper", "DRAM GB"],
        rows, title="Figure 7 scenario sweep",
    ))

    # Traffic attribution by layer kind, baseline vs BNFF.
    base = results[0].cost
    bnff = next(r for r in results if r.scenario == "bnff").cost
    rows = []
    for kind in KINDS_SHOWN:
        b = base.dram_bytes_by_kind().get(kind, 0) / 1e9
        f = bnff.dram_bytes_by_kind().get(kind, 0) / 1e9
        if b or f:
            rows.append((kind.value, f"{b:.1f}", f"{f:.1f}"))
    print(format_table(["layer kind", "baseline GB", "BNFF GB"], rows,
                       title="DRAM traffic attribution"))

    counts = invocation_counts(results)
    print(f"primitive-invoking nodes: baseline {counts['baseline']} -> "
          f"bnff {counts['bnff']}")

    if model == "densenet121":
        icf = next(r for r in results if r.scenario == "bnff_icf")
        est = paper_style_icf_estimate(results)
        print(f"ICF: simulated {icf.total_gain * 100:.1f}% vs paper-style "
              f"extrapolation {est * 100:.1f}% (paper estimated 43.7%; "
              f"ICF is a no-op on ResNet, which has no boundary BNs)")


if __name__ == "__main__":
    for model in ("densenet121", "resnet50"):
        scenario_study(model)
