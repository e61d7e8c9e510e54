"""Graph nodes: one per layer (or, after Fission, per sub-layer)."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List

from repro.errors import GraphError


class OpKind(Enum):
    """Operation kinds the IR understands.

    ``BN_STATS`` / ``BN_NORM`` only appear after the Fission pass splits a
    ``BN`` node; everything else can be produced by the model builders.
    """

    DATA = "data"
    CONV = "conv"
    FC = "fc"
    BN = "bn"
    BN_STATS = "bn_stats"  # sub-BN1 (fwd) / sub-BN1' (bwd input-grad)
    BN_NORM = "bn_norm"    # sub-BN2 (fwd) / sub-BN2' (bwd dgamma/dbeta)
    RELU = "relu"
    POOL_MAX = "pool_max"
    POOL_AVG = "pool_avg"
    POOL_GLOBAL = "pool_global"
    CONCAT = "concat"
    SPLIT = "split"
    EWS = "ews"
    LOSS = "loss"


#: Kinds whose execution time the breakdown reports attribute to "CONV/FC"
#: (Figure 1's grouping); everything else is "non-CONV".
CONV_LIKE = frozenset({OpKind.CONV, OpKind.FC})

#: Kinds that carry BN work (used by reports and the Fission pass).
BN_LIKE = frozenset({OpKind.BN, OpKind.BN_STATS, OpKind.BN_NORM})

#: Kinds whose sweeps cost no DRAM time on Figure 4's hypothetical
#: machine (BN/ReLU data remapped into L1; the sweep engine's
#: ``infinite_bw`` axis).
INFINITE_BW_KINDS = frozenset({OpKind.BN, OpKind.RELU})


@dataclass(eq=False)
class Node:
    """One operation in a :class:`~repro.graph.graph.LayerGraph`.

    Nodes compare and hash by identity: a graph holds each node once, so
    finding one in the node list (``remove``, ``index``) is a C-speed
    identity scan, not a field-by-field comparison of ledgers.

    Attributes
    ----------
    name:
        Unique within the graph.
    kind:
        The :class:`OpKind`.
    inputs / outputs:
        Tensor names. Order matters (e.g. EWS operands, Concat slices).
    attrs:
        Kind-specific attributes (``kernel``, ``stride``, ``padding``,
        ``in_channels``, ``out_channels``, fusion flags, ...).
    fwd_sweeps / bwd_sweeps:
        The memory-sweep ledger (see :mod:`repro.graph.sweeps`).
    fwd_invocations / bwd_invocations:
        Number of library-primitive calls this node costs per pass. CONV
        backward is two primitives (bwd-data + bwd-weights), mirroring
        MKL-DNN; fused-away nodes drop to zero.
    fused_from:
        Human-readable provenance of operations folded into this node by
        restructuring passes.
    region:
        Composite-layer identifier (e.g. ``"block2/cpl5"``) used by reports
        and by the boundary analysis in Fusion/ICF.
    """

    name: str
    kind: OpKind
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    attrs: Dict[str, Any] = field(default_factory=dict)
    fwd_sweeps: List["Sweep"] = field(default_factory=list)  # noqa: F821
    bwd_sweeps: List["Sweep"] = field(default_factory=list)  # noqa: F821
    fwd_invocations: int = 1
    bwd_invocations: int = 1
    fused_from: List[str] = field(default_factory=list)
    region: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphError("Node requires a non-empty name")

    @property
    def is_conv_like(self) -> bool:
        return self.kind in CONV_LIKE

    @property
    def is_bn_like(self) -> bool:
        return self.kind in BN_LIKE

    def attr(self, key: str, default: Any = None) -> Any:
        return self.attrs.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node({self.name}: {self.kind.value})"
