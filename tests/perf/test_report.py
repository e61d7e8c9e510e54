"""Columnar ``IterationCost``: totals summed once, pickled as columns.

Every total a record stores must be exactly what summing its ``nodes``
again gives — the expressions below are the per-call properties the
record used to evaluate — with the same value and the same Python type,
so no figure, sweep column or wire metric can move.
"""

import json
import pickle
from dataclasses import fields, replace

import pytest

from repro.graph.node import CONV_LIKE, OpKind
from repro.models.registry import MODEL_BUILDERS
from repro.passes import SCENARIOS
from repro.perf import simulator
from repro.perf.report import IterationCost, PassCost
from repro.serve.wire import result_to_json
from repro.sweep import GraphCache, SweepCell, price_cell

BATCH = 120

CELLS = [
    SweepCell(model, "skylake_2s", scenario, BATCH)
    for model in sorted(MODEL_BUILDERS) for scenario in SCENARIOS
] + [
    SweepCell("densenet121", "volta_v100", "bnff", BATCH, precision="fp16"),
    SweepCell("resnet50", "ampere_a100", "bnff_icf", BATCH,
              precision="bf16"),
]


def _cell_id(cell):
    return f"{cell.model}-{cell.scenario}-{cell.precision}"


@pytest.fixture(scope="module")
def priced():
    """cell -> (its record, the ``NodeCost`` objects the simulator built
    the record from)."""
    built = []

    def recording(**fields):
        built.append(tuple(fields["nodes"]))
        return IterationCost(**fields)

    cache = GraphCache()
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "IterationCost", recording)
        for cell in CELLS:
            out[cell] = (price_cell(cell, cache), built.pop())
    return out


def walked_totals(nodes, batch):
    """The totals as the record used to compute them: a walk over nodes."""
    fwd = sum(n.fwd.time_s for n in nodes)
    bwd = sum(n.bwd.time_s for n in nodes)
    total = fwd + bwd
    conv_fc = sum(n.time_s for n in nodes if n.kind in CONV_LIKE)
    non_conv = total - conv_fc
    time_by_kind, bytes_by_kind = {}, {}
    for n in nodes:
        time_by_kind[n.kind] = time_by_kind.get(n.kind, 0.0) + n.time_s
        bytes_by_kind[n.kind] = bytes_by_kind.get(n.kind, 0) + n.dram_bytes
    return {
        "fwd_time_s": fwd,
        "bwd_time_s": bwd,
        "total_time_s": total,
        "time_per_image_s": total / batch,
        "dram_bytes": sum(n.dram_bytes for n in nodes),
        "fwd_dram_bytes": sum(n.fwd.dram_bytes for n in nodes),
        "bwd_dram_bytes": sum(n.bwd.dram_bytes for n in nodes),
        "conv_fc_time_s": conv_fc,
        "non_conv_time_s": non_conv,
        "non_conv_share": non_conv / total if total else 0.0,
        "time_by_kind": time_by_kind,
        "dram_bytes_by_kind": bytes_by_kind,
    }


def stored_totals(cost):
    return {
        "fwd_time_s": cost.fwd_time_s,
        "bwd_time_s": cost.bwd_time_s,
        "total_time_s": cost.total_time_s,
        "time_per_image_s": cost.time_per_image_s,
        "dram_bytes": cost.dram_bytes,
        "fwd_dram_bytes": cost.fwd_dram_bytes,
        "bwd_dram_bytes": cost.bwd_dram_bytes,
        "conv_fc_time_s": cost.conv_fc_time_s(),
        "non_conv_time_s": cost.non_conv_time_s(),
        "non_conv_share": cost.non_conv_share(),
        "time_by_kind": cost.time_by_kind(),
        "dram_bytes_by_kind": cost.dram_bytes_by_kind(),
    }


def assert_identical(got, want, where=""):
    """Same type and same value; dicts also in the same key order.
    ``repr`` tells ``-0.0`` from ``0.0``, which ``==`` does not."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_identical(got[key], want[key], f"{where}[{key}]")
    else:
        assert got == want and repr(got) == repr(want), where


def assert_totals_match_walk(cost, nodes):
    stored, walked = stored_totals(cost), walked_totals(nodes, cost.batch)
    for name in walked:
        assert_identical(stored[name], walked[name], name)


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_stored_totals_equal_the_node_walk(priced, cell):
    cost, simulated = priced[cell]
    assert simulated
    assert_totals_match_walk(cost, simulated)
    # The nodes rebuilt from the columns are the simulator's, field for
    # field (repr also pins each field's type and the sign of zeros).
    assert cost.nodes == simulated
    assert repr(cost.nodes) == repr(simulated)


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_pickle_round_trip_keeps_everything(priced, cell):
    cost, simulated = priced[cell]
    loaded = pickle.loads(pickle.dumps(cost, protocol=pickle.HIGHEST_PROTOCOL))
    assert loaded == cost
    for name, value in stored_totals(cost).items():
        assert_identical(stored_totals(loaded)[name], value, name)
    assert_totals_match_walk(loaded, loaded.nodes)
    assert repr(loaded.nodes) == repr(simulated)
    for node in simulated:
        assert loaded.node(node.name) == node


def test_empty_record_matches_walk():
    cost = IterationCost("m", "hw", "baseline", 4)
    assert cost.nodes == ()
    assert_totals_match_walk(cost, ())
    assert pickle.loads(pickle.dumps(cost)) == cost


def test_records_are_immutable(priced):
    cost, _ = priced[CELLS[0]]
    with pytest.raises(AttributeError):
        cost.nodes.append(cost.nodes[0])
    with pytest.raises(AttributeError):
        cost.total_time_s = 0.0
    with pytest.raises(AttributeError):
        cost.extra = 1
    with pytest.raises(KeyError):
        cost.node("no-such-node")
    # Breakdowns hand out copies; the stored ones cannot be edited.
    cost.time_by_kind().clear()
    cost.dram_bytes_by_kind().clear()
    assert cost.time_by_kind() and cost.dram_bytes_by_kind()


def test_equality_sees_every_field(priced):
    a, _ = priced[SweepCell("tiny_cnn", "skylake_2s", "baseline", BATCH)]
    b, _ = priced[SweepCell("tiny_cnn", "skylake_2s", "bnff", BATCH)]
    assert a != b
    relabelled = IterationCost(a.model, a.hardware, "other", a.batch, a.nodes)
    assert relabelled != a
    assert IterationCost(a.model, a.hardware, a.scenario, a.batch,
                         a.nodes) == a
    # One field of one node differing is enough to make two records unequal.
    last = a.nodes[-1]
    changed = [replace(last, name="other"), replace(last, region="other"),
               replace(last, kind=OpKind.EWS), replace(last, is_ghost=True)]
    for field in fields(PassCost):
        bumped = {field.name: getattr(last.bwd, field.name) + 1}
        changed.append(replace(last, bwd=replace(last.bwd, **bumped)))
    for node in changed:
        assert IterationCost(a.model, a.hardware, a.scenario, a.batch,
                             a.nodes[:-1] + (node,)) != a, node


@pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
def test_wire_metrics_are_plain_json_numbers(priced, model):
    cell = SweepCell(model, "skylake_2s", "bnff", BATCH)
    row = result_to_json(cell, priced[cell][0])
    json.dumps(row)
    for name, value in row["metrics"].items():
        assert type(value) in (int, float), name
