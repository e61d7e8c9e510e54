"""Training memory-footprint analysis of a layer-graph schedule.

The paper's Related Work contrasts BNFF with Gist (Jain et al., 2018),
which attacks training *footprint* rather than traffic. Restructuring
helps footprint too, as a side effect the paper does not quantify: the
normalized and rectified feature maps are never materialized, so they
drop out of the set of tensors retained between the forward and backward
passes. This module computes that set exactly from the graph:

* a feature tensor is **retained** if it is produced in forward and any
  backward sweep (on any node) reads its *data* (``grad=False``) — i.e. it
  is stashed for backward;
* transient tensors (produced and consumed only in forward, e.g. ghosted
  BN outputs) cost peak-forward memory but not retained memory;
* gradient tensors are assumed to be produced and freed in a reverse
  sweep, contributing a working set of one live gradient per tensor
  (standard framework behaviour), which restructuring barely changes — so
  the interesting, reported quantity is the retained-activation footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

import numpy as np

from repro.config import dtype_bytes
from repro.graph.graph import LayerGraph
from repro.graph.node import OpKind
from repro.tensors.tensor_spec import TensorKind


def _alias_map(graph: LayerGraph) -> Dict[str, str]:
    """Map Split-branch tensors to their hub tensor (shared storage).

    Split forward is pointer passing, so its output tensors alias the input
    buffer; storage accounting must count the buffer once regardless of how
    many branch names refer to it.
    """
    aliases: Dict[str, str] = {}
    for node in graph.nodes_of_kind(OpKind.SPLIT):
        hub = node.inputs[0]
        for branch in node.outputs:
            aliases[branch] = hub
    # Resolve chains (split of a split).
    def resolve(name: str) -> str:
        seen = set()
        while name in aliases and name not in seen:
            seen.add(name)
            name = aliases[name]
        return name

    return {k: resolve(k) for k in aliases}


@dataclass(frozen=True)
class FootprintReport:
    """Retained-activation footprint of one training schedule."""

    model: str
    retained_bytes: int
    retained_tensors: int
    materialized_bytes: int  # every feature tensor written in forward
    materialized_tensors: int
    #: fp32 master copies of the weights kept by mixed-precision training
    #: (zero unless a wider ``master_dtype`` was requested).
    master_weight_bytes: int = 0

    @property
    def retained_gb(self) -> float:
        return self.retained_bytes / 1e9

    @property
    def materialized_gb(self) -> float:
        return self.materialized_bytes / 1e9

    @property
    def total_retained_bytes(self) -> int:
        """Retained activations plus any master-weight copies."""
        return self.retained_bytes + self.master_weight_bytes


def _forward_written_features(graph: LayerGraph, aliases: Dict[str, str]) -> Set[str]:
    """Feature tensors some forward sweep writes (i.e. truly materialized),
    canonicalized through split aliases."""
    out: Set[str] = set()
    for node in graph.nodes:
        for sweep in node.fwd_sweeps:
            spec = graph.tensor(sweep.tensor)
            if (spec.kind is TensorKind.FEATURE and sweep.direction.value == "W"
                    and not sweep.grad):
                out.add(aliases.get(sweep.tensor, sweep.tensor))
    return out


def _backward_read_features(graph: LayerGraph, aliases: Dict[str, str]) -> Set[str]:
    """Feature tensors whose *data* any backward sweep reads (canonical)."""
    out: Set[str] = set()
    for node in graph.nodes:
        for sweep in node.bwd_sweeps:
            spec = graph.tensor(sweep.tensor)
            if (spec.kind is TensorKind.FEATURE and sweep.direction.value == "R"
                    and not sweep.grad):
                out.add(aliases.get(sweep.tensor, sweep.tensor))
    return out


def retained_tensors(graph: LayerGraph) -> Set[str]:
    """Names of the feature tensors retained between forward and backward,
    canonicalized through split aliases (a Split branch counts as its hub)."""
    aliases = _alias_map(graph)
    return (_forward_written_features(graph, aliases)
            & _backward_read_features(graph, aliases))


def training_footprint(graph: LayerGraph,
                       master_dtype: Optional[np.dtype] = None) -> FootprintReport:
    """Retained and materialized activation footprint of *graph*.

    DATA-node outputs (the input batch) are included — they are retained
    for the first convolution's backward-weights pass in every schedule.

    ``master_dtype`` models mixed-precision training's master weights: a
    reduced-precision graph keeps a wide (fp32) copy of every weight for
    the optimizer update, reported as ``master_weight_bytes``. Weights
    already at least as wide contribute nothing, so the default fp32
    report is unchanged.
    """
    aliases = _alias_map(graph)
    written = _forward_written_features(graph, aliases)
    # The input batch is produced by the DATA node's write sweep already.
    needed = _backward_read_features(graph, aliases)
    retained = written & needed

    def total(names) -> int:
        return sum(graph.tensor(t).size_bytes for t in names)

    master_bytes = 0
    if master_dtype is not None:
        width = dtype_bytes(master_dtype)
        master_bytes = sum(
            t.num_elements * width
            for t in graph.tensors.values()
            if (t.kind is TensorKind.WEIGHT and not t.name.endswith(".grad")
                and t.element_bytes < width)
        )

    return FootprintReport(
        model=graph.name,
        retained_bytes=total(retained),
        retained_tensors=len(retained),
        materialized_bytes=total(written),
        materialized_tensors=len(written),
        master_weight_bytes=master_bytes,
    )


def footprint_by_region(graph: LayerGraph) -> Dict[str, int]:
    """Retained bytes grouped by the producing node's region tag."""
    out: Dict[str, int] = {}
    for tensor in retained_tensors(graph):
        producer = graph.producer_of(tensor)
        region = producer.region if producer else ""
        out[region] = out.get(region, 0) + graph.tensor(tensor).size_bytes
    return out


def footprint_savings(baseline: LayerGraph, restructured: LayerGraph) -> float:
    """Fractional retained-footprint reduction of *restructured*."""
    base = training_footprint(baseline).retained_bytes
    new = training_footprint(restructured).retained_bytes
    return 1.0 - new / base if base else 0.0
