"""DRAM-traffic model: price each ledger sweep through the cache model."""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.graph.graph import LayerGraph
from repro.graph.node import Node
from repro.graph.sweeps import Direction, Sweep
from repro.hw.cache import CacheModel

#: Tensor name -> DRAM bytes of one sweep of it: (read, write, GEMM write).
SweepBytes = Dict[str, Tuple[int, int, int]]

#: A cache-resident tensor's entry: its sweeps reach DRAM in no direction.
_RESIDENT = (0, 0, 0)


def sweep_dram_bytes(sweep: Sweep, graph: LayerGraph, cache: CacheModel,
                     gemm_accumulate: bool = False) -> int:
    """DRAM bytes for one sweep (0 when the tensor is cache-resident).

    Gradient sweeps cost the same as data sweeps — the gradient tensor has
    the producing tensor's shape and dtype. Write sweeps are scaled by the
    machine's write-allocate factor (read-for-ownership traffic of ordinary
    cached stores); with ``gemm_accumulate`` they are additionally priced
    at the machine's accumulate width when that exceeds the element width
    (fp16 GEMM tiles spill fp32 partial sums before the downconvert). The
    scale is exactly 1.0 whenever storage is at least as wide as the
    accumulator, so fp32 pricing is bit-identical to the pre-precision
    model.
    """
    base = cache.dram_bytes(graph.tensor(sweep.tensor))
    if sweep.direction is Direction.WRITE:
        factor = cache.hw.write_allocate_factor
        if gemm_accumulate:
            factor *= cache.hw.accumulate_write_scale(
                graph.tensor(sweep.tensor).element_bytes
            )
        return int(base * factor)
    return base


def sweep_bytes_table(graph: LayerGraph, cache: CacheModel) -> SweepBytes:
    """Every tensor's one-sweep prices, each computed once.

    Entry ``(read, write, gemm_write)`` is what :func:`sweep_dram_bytes`
    returns for a read sweep, a write sweep, and a write sweep with
    ``gemm_accumulate``, by the same expressions, so a ledger summed from
    the table is bit-identical to one summed sweep by sweep.
    """
    hw = cache.hw
    write = hw.write_allocate_factor
    table: SweepBytes = {}
    for name, spec in graph.tensors.items():
        base = cache.dram_bytes(spec)
        if not base:
            table[name] = _RESIDENT
            continue
        gemm_write = write * hw.accumulate_write_scale(spec.element_bytes)
        table[name] = (base, int(base * write), int(base * gemm_write))
    return table


def _total(sweeps: Iterable[Sweep], table: SweepBytes, write: int,
           factor: float) -> int:
    """Sum *sweeps* from *table*: column 0 for reads, *write* for writes."""
    total = 0
    for s in sweeps:
        total += table[s.tensor][write if s.direction is Direction.WRITE else 0]
    return int(total * factor)


def ledger_dram_bytes(node: Node, table: SweepBytes,
                      conv_traffic_factor: float) -> Tuple[int, int]:
    """(forward, backward) DRAM bytes of a node's current ledger, priced
    from a :func:`sweep_bytes_table`.

    CONV/FC nodes carry the machine's blocked-convolution traffic factor
    (input re-reads across output-channel tiles) and price their write
    sweeps at the accumulate width; elementwise layers stream each tensor
    once at its storage width.
    """
    if node.is_conv_like:
        write, factor = 2, conv_traffic_factor  # the GEMM-write column
    else:
        write, factor = 1, 1.0
    return (_total(node.fwd_sweeps, table, write, factor),
            _total(node.bwd_sweeps, table, write, factor))


def node_dram_bytes(node: Node, graph: LayerGraph, cache: CacheModel) -> Tuple[int, int]:
    """(forward, backward) DRAM bytes of a node's current ledger
    (:func:`ledger_dram_bytes` over the whole graph's table)."""
    return ledger_dram_bytes(node, sweep_bytes_table(graph, cache),
                             cache.hw.conv_traffic_factor)
