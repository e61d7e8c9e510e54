"""Cost records produced by the simulator and consumed by the analysis layer."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields
from operator import add, attrgetter
from typing import Dict, Iterable, Sequence, Tuple

from repro.graph.node import CONV_LIKE, OpKind


@dataclass(frozen=True)
class PassCost:
    """Cost of one node in one direction (forward or backward)."""

    flops: float = 0.0
    eops: float = 0.0
    dram_bytes: int = 0
    compute_s: float = 0.0
    mem_s: float = 0.0
    overhead_s: float = 0.0

    @property
    def time_s(self) -> float:
        """Roofline time: bound by the slower of compute and memory."""
        return max(self.compute_s, self.mem_s) + self.overhead_s

    @property
    def bound(self) -> str:
        return "memory" if self.mem_s >= self.compute_s else "compute"


@dataclass(frozen=True)
class NodeCost:
    """Forward + backward cost of one node."""

    name: str
    kind: OpKind
    region: str
    fwd: PassCost
    bwd: PassCost
    is_ghost: bool = False

    @property
    def time_s(self) -> float:
        return self.fwd.time_s + self.bwd.time_s

    @property
    def dram_bytes(self) -> int:
        return self.fwd.dram_bytes + self.bwd.dram_bytes


_PASS_FIELDS = tuple(f.name for f in fields(PassCost))

#: The totals an :class:`IterationCost` sums once; pickled with its columns.
_TOTALS = ("fwd_time_s", "bwd_time_s", "total_time_s", "time_per_image_s",
           "dram_bytes", "fwd_dram_bytes", "bwd_dram_bytes",
           "_conv_fc_time_s", "_time_by_kind", "_dram_bytes_by_kind")


def _pass_columns(passes: Sequence[PassCost]) -> Tuple[array, ...]:
    """One array per :class:`PassCost` field, in field order: ``'q'`` for
    the byte count, ``'d'`` for the float fields."""
    return tuple(
        array("q" if name == "dram_bytes" else "d",
              map(attrgetter(name), passes))
        for name in _PASS_FIELDS
    )


def _pass_times(columns: Tuple[array, ...]) -> list:
    """:attr:`PassCost.time_s` of every node, in node order."""
    _, _, _, compute, mem, overhead = columns
    return list(map(add, map(max, compute, mem), overhead))


def _sum_totals(columns: tuple, batch: int) -> tuple:
    """The :data:`_TOTALS`, summed in node order exactly as a walk over
    ``nodes`` sums them (same operands, same order, same ``sum()``)."""
    _, kinds, _, _, fwd, bwd = columns
    fwd_t = _pass_times(fwd)
    bwd_t = _pass_times(bwd)
    node_t = list(map(add, fwd_t, bwd_t))
    node_bytes = list(map(add, fwd[2], bwd[2]))
    # kind -> [time, bytes, is CONV/FC]. Enum members hash in Python, so
    # each node's kind is looked up once, not once per breakdown.
    per_kind: Dict[OpKind, list] = {}
    conv_fc_t = []
    for kind, t, nbytes in zip(kinds, node_t, node_bytes):
        acc = per_kind.get(kind)
        if acc is None:
            acc = per_kind[kind] = [0.0, 0, kind in CONV_LIKE]
        acc[0] += t
        acc[1] += nbytes
        if acc[2]:
            conv_fc_t.append(t)
    fwd_time_s = sum(fwd_t)
    bwd_time_s = sum(bwd_t)
    total_time_s = fwd_time_s + bwd_time_s
    return (
        fwd_time_s, bwd_time_s, total_time_s, total_time_s / batch,
        sum(node_bytes), sum(fwd[2]), sum(bwd[2]),
        sum(conv_fc_t),
        {kind: acc[0] for kind, acc in per_kind.items()},
        {kind: acc[1] for kind, acc in per_kind.items()},
    )


class IterationCost:
    """Cost of one full training iteration of a graph on one machine.

    Immutable. The per-node costs are held as columns in node order —
    names, :class:`OpKind` members, regions and ghost flags, then each
    direction's :class:`PassCost` fields as typed arrays — and every
    total (times, DRAM bytes, the CONV/FC time and the per-kind
    breakdowns) is summed once, at construction, by the same ``sum()``
    over nodes a re-walk would do, so each is the bit-identical ``int``
    or ``float``. A record pickles as its columns plus those totals, so a
    disk load restores a few arrays and sums nothing. :attr:`nodes`
    rebuilds :class:`NodeCost` objects, once, only for a consumer that
    walks them. ``==`` is exact equality of every node's every field.
    """

    __slots__ = ("model", "hardware", "scenario", "batch", "_columns",
                 "_nodes") + _TOTALS

    def __init__(self, model: str, hardware: str, scenario: str, batch: int,
                 nodes: Iterable[NodeCost] = ()):
        nodes = tuple(nodes)
        columns = (
            tuple(n.name for n in nodes), tuple(n.kind for n in nodes),
            tuple(n.region for n in nodes), tuple(n.is_ghost for n in nodes),
            _pass_columns([n.fwd for n in nodes]),
            _pass_columns([n.bwd for n in nodes]),
        )
        self._fill(model, hardware, scenario, batch, columns,
                   _sum_totals(columns, batch))

    def _fill(self, model: str, hardware: str, scenario: str, batch: int,
              columns: tuple, totals: tuple) -> None:
        values = (model, hardware, scenario, batch, columns, None) + totals
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"IterationCost is immutable; cannot set {name!r}")

    def __reduce__(self):
        return (_restore, (self.model, self.hardware, self.scenario,
                           self.batch, self._columns,
                           tuple(getattr(self, name) for name in _TOTALS)))

    def __eq__(self, other) -> bool:
        if other.__class__ is not IterationCost:
            return NotImplemented
        return ((self.model, self.hardware, self.scenario, self.batch,
                 self._columns)
                == (other.model, other.hardware, other.scenario, other.batch,
                    other._columns))

    def __repr__(self) -> str:
        return (f"IterationCost(model={self.model!r}, "
                f"hardware={self.hardware!r}, scenario={self.scenario!r}, "
                f"batch={self.batch!r}, nodes={len(self._columns[0])}, "
                f"total_time_s={self.total_time_s!r})")

    @property
    def nodes(self) -> Tuple[NodeCost, ...]:
        """Per-node costs in graph order, rebuilt from the columns on
        first use."""
        if self._nodes is None:
            names, kinds, regions, ghosts, fwd, bwd = self._columns
            object.__setattr__(self, "_nodes", tuple(
                NodeCost(name, kind, region, PassCost(*f), PassCost(*b), ghost)
                for name, kind, region, ghost, f, b
                in zip(names, kinds, regions, ghosts, zip(*fwd), zip(*bwd))
            ))
        return self._nodes

    # -- breakdowns ------------------------------------------------------------
    def time_by_kind(self) -> Dict[OpKind, float]:
        return dict(self._time_by_kind)

    def conv_fc_time_s(self) -> float:
        """Time in CONV/FC nodes (Figure 1/6 grouping).

        Fused BN/ReLU work executed inside convolutions is attributed to
        CONV — the same attribution a wall-clock measurement of the fused
        binary would report.
        """
        return self._conv_fc_time_s

    def non_conv_time_s(self) -> float:
        return self.total_time_s - self._conv_fc_time_s

    def non_conv_share(self) -> float:
        total = self.total_time_s
        return self.non_conv_time_s() / total if total else 0.0

    def dram_bytes_by_kind(self) -> Dict[OpKind, int]:
        return dict(self._dram_bytes_by_kind)

    def node(self, name: str) -> NodeCost:
        try:
            return self.nodes[self._columns[0].index(name)]
        except ValueError:
            raise KeyError(name) from None


def _restore(model: str, hardware: str, scenario: str, batch: int,
             columns: tuple, totals: tuple) -> IterationCost:
    """Unpickle an :class:`IterationCost` from its columns and totals."""
    cost = IterationCost.__new__(IterationCost)
    cost._fill(model, hardware, scenario, batch, columns, totals)
    return cost


def speedup(baseline: IterationCost, other: IterationCost) -> float:
    """Fractional improvement of *other* over *baseline* (paper's metric).

    The paper reports "performance enhancement" as time reduction:
    25.7% means the restructured iteration takes 25.7% less time.
    """
    return 1.0 - other.total_time_s / baseline.total_time_s
