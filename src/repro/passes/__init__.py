"""Graph restructuring passes: Fission, MVF, RCF, Fusion, ICF.

Passes mutate a :class:`~repro.graph.graph.LayerGraph` in place with the
exact memory-sweep semantics of the paper's Figure 5 (worked out sweep by
sweep in DESIGN.md Section 5). Fused-away nodes are *ghosted* — their
ledgers emptied, invocation counts zeroed, and ``attrs["fused_into"]`` set —
rather than deleted, preserving a complete audit trail that tests pin down
and reports use for attribution.

The canonical pipelines (paper Section 5's four scenarios) live in
:mod:`repro.passes.scenarios`.
"""

from repro.passes.base import Pass, PassManager, PassResult
from repro.passes.fission import FissionPass
from repro.passes.mvf import MVFPass
from repro.passes.rcf import RCFPass
from repro.passes.fusion import FusionPass
from repro.passes.icf import ICFPass
from repro.passes.scenarios import SCENARIOS, apply_scenario, scenario_passes

__all__ = [
    "Pass",
    "PassManager",
    "PassResult",
    "FissionPass",
    "MVFPass",
    "RCFPass",
    "FusionPass",
    "ICFPass",
    "SCENARIOS",
    "apply_scenario",
    "scenario_passes",
]
