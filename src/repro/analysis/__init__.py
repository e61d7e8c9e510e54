"""Analysis layer: the records and renderers behind the paper's figures.

Every figure is priced by the sweep engine (:mod:`repro.sweep`). The
figure modules here only turn its :class:`~repro.perf.report.IterationCost`
slices into the paper's quantities; none of them builds, restructures or
simulates a graph:

* :mod:`repro.analysis.breakdown` — CONV/FC vs non-CONV execution-time
  splits (Figures 1 and 6).
* :mod:`repro.analysis.scenarios` — gains of the RCF / RCF+MVF / BNFF /
  BNFF+ICF scenarios over the baseline (Figure 7) plus the paper-style
  ICF extrapolation.
* :mod:`repro.analysis.bandwidth` — the infinite-bandwidth (Figure 4) and
  bandwidth-scaling (Figure 8) records.
* :mod:`repro.analysis.tables` — plain-text renderers used by benches,
  examples and the experiment CLI.
* :mod:`repro.analysis.ledger` and :mod:`repro.analysis.structure` —
  sweep-ledger audits and model summaries of one layer graph.

The contract linter, graph verifier and concurrency rules live in the
:mod:`repro.analysis.static` and :mod:`repro.analysis.concurrency`
subpackages.
"""

from repro.analysis.breakdown import breakdown_from_cost
from repro.analysis.scenarios import (
    ScenarioResult,
    paper_style_icf_estimate,
    scenario_results_from_costs,
)
from repro.analysis.tables import format_table, format_figure_series
from repro.analysis.ledger import (
    chain_audit,
    sweep_summary,
    fusion_inventory,
    render_chain_audit,
)
from repro.analysis.structure import (
    model_summary,
    total_parameters,
    render_model_summary,
)

__all__ = [
    "breakdown_from_cost",
    "ScenarioResult",
    "paper_style_icf_estimate",
    "scenario_results_from_costs",
    "format_table",
    "format_figure_series",
    "chain_audit",
    "sweep_summary",
    "fusion_inventory",
    "render_chain_audit",
    "model_summary",
    "total_parameters",
    "render_model_summary",
]
