"""Columnar sweep-result store with a small slice/aggregate query API.

A :class:`SweepResult` holds one row per grid cell, in the deterministic
cell-enumeration order the runner produced. Columns are either *axes*
(the cell's coordinates: model, hardware, scenario, batch, precision,
infinite_bw, bandwidth_scale) or *metrics* derived from the priced
:class:`IterationCost`. Queries never mutate: ``filter`` and
``group_by`` return new stores that preserve row order, so chained
slices stay deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, methodcaller
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.errors import SweepSpecError
from repro.perf.report import IterationCost
from repro.sweep.spec import AXES, SweepCell

#: Metric column name -> extractor over a priced cell. Each reads a total
#: the :class:`IterationCost` summed once, when it was built.
METRICS: Dict[str, Callable[[IterationCost], float]] = {
    **{name: attrgetter(name) for name in (
        "total_time_s", "fwd_time_s", "bwd_time_s", "time_per_image_s",
        "dram_bytes", "fwd_dram_bytes", "bwd_dram_bytes")},
    "non_conv_share": methodcaller("non_conv_share"),
}


@dataclass(frozen=True)
class SweepRow:
    """One priced grid cell."""

    cell: SweepCell
    cost: IterationCost

    def value(self, column: str):
        """Axis or metric value by column name."""
        if column in AXES:
            return self.cell.axis(column)
        if column in METRICS:
            return METRICS[column](self.cost)
        raise SweepSpecError(
            f"unknown column {column!r}; axes: {AXES}, "
            f"metrics: {tuple(METRICS)}"
        )


class SweepResult:
    """Ordered, immutable collection of :class:`SweepRow` with queries."""

    def __init__(self, rows: Iterable[SweepRow]):
        self.rows: List[SweepRow] = list(rows)

    @classmethod
    def from_cells(
        cls,
        cells: Sequence[SweepCell],
        costs_by_key: Mapping[str, IterationCost],
    ) -> "SweepResult":
        return cls(SweepRow(cell=c, cost=costs_by_key[c.key()]) for c in cells)

    # -- basics ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def costs(self) -> List[IterationCost]:
        return [r.cost for r in self.rows]

    def column(self, name: str) -> list:
        """One column across all rows, in row order."""
        return [r.value(name) for r in self.rows]

    def axis_values(self, axis: str) -> list:
        """Distinct values of one axis, in first-appearance order."""
        seen: Dict[object, None] = {}
        for r in self.rows:
            seen.setdefault(r.cell.axis(axis))
        return list(seen)

    # -- slicing -----------------------------------------------------------
    def filter(self, **axes) -> "SweepResult":
        """Rows matching every given axis value (or collection of values)."""
        def matches(cell: SweepCell) -> bool:
            for axis, wanted in axes.items():
                value = cell.axis(axis)
                if isinstance(wanted, (list, tuple, set, frozenset)):
                    if value not in wanted:
                        return False
                elif value != wanted:
                    return False
            return True

        return SweepResult(r for r in self.rows if matches(r.cell))

    def only(self, **axes) -> SweepRow:
        """The single row matching the query; raises if 0 or >1 match.

        Raises :class:`KeyError` (the store's lookup error, matching the
        figure-result ``of``/``at`` accessors) rather than
        :class:`SweepSpecError`, which is reserved for malformed grid
        declarations.
        """
        hits = self.filter(**axes).rows
        if len(hits) != 1:
            raise KeyError(
                f"query {axes!r} matched {len(hits)} rows, expected exactly 1"
            )
        return hits[0]

    def cost(self, **axes) -> IterationCost:
        return self.only(**axes).cost

    def group_by(self, axis: str) -> Dict[object, "SweepResult"]:
        """Axis value -> sub-store, keys in first-appearance order."""
        groups: Dict[object, List[SweepRow]] = {}
        for r in self.rows:
            groups.setdefault(r.cell.axis(axis), []).append(r)
        return {k: SweepResult(v) for k, v in groups.items()}

    # -- aggregation -------------------------------------------------------
    def aggregate(
        self,
        column: str,
        fn: Callable[[Sequence[float]], float] = sum,
        by: Optional[str] = None,
    ):
        """Fold one metric column, optionally per group of an axis."""
        if by is None:
            return fn(self.column(column))
        return {
            key: fn(sub.column(column))
            for key, sub in self.group_by(by).items()
        }

    # -- presentation ------------------------------------------------------
    def to_table(self, columns: Sequence[str]) -> List[tuple]:
        """Rows projected onto the named columns (axes and/or metrics)."""
        return [tuple(r.value(c) for c in columns) for r in self.rows]

    def varying_axes(self) -> List[str]:
        """Axes that take more than one value across the rows."""
        return [a for a in AXES if len(self.axis_values(a)) > 1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SweepResult({len(self.rows)} rows)"
