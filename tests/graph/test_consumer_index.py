"""The consumer index and node identity, over every registry model.

``LayerGraph`` indexes consumers only while a graph is edited: the first
``consumers_of`` call builds the index, ``add_node``, ``remove_node`` and
``replace_input`` keep it current, and ``validate`` drops it. The sweep
below checks the index as each edit leaves it (the end of ``finalize``
and of every pass) against a scan of the node list, and checks that no
graph leaving an edit, a clone, a re-type or a pickle carries it.
"""

import pickle

import pytest

from repro.errors import GraphError
from repro.graph import GraphBuilder, LayerGraph, Node, OpKind
from repro.models.registry import MODEL_BUILDERS, build_model
from repro.passes import apply_scenario
from repro.passes.scenarios import SCENARIO_ORDER, SCENARIOS
from repro.sweep.cache import retype_graph
from repro.tensors import TensorSpec
from tests.consumer_index import (
    GRAPH_KEYS,
    assert_index_matches_scan,
    checked_at_validate,
)


@pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
def test_index_matches_scan_after_build_and_every_pass(model):
    with checked_at_validate() as checked:
        g = build_model(model, batch=2)
        assert len(checked) == 1  # finalize
        assert set(vars(g)) == GRAPH_KEYS
        for scenario in SCENARIO_ORDER:
            before = len(checked)
            gg, _ = apply_scenario(g, scenario)
            assert len(checked) - before == len(SCENARIOS[scenario])
            assert set(vars(gg)) == GRAPH_KEYS, scenario
    assert all(checked)


@pytest.mark.parametrize("model", ["tiny_resnet", "densenet121"])
def test_no_graph_outside_an_edit_carries_the_index(model):
    g = build_model(model, batch=2)
    bnff_icf, _ = apply_scenario(g, "bnff_icf")
    for graph in (g, bnff_icf):
        assert set(vars(graph)) == GRAPH_KEYS
        assert set(vars(graph.clone())) == GRAPH_KEYS
        assert set(vars(retype_graph(graph, "fp16"))) == GRAPH_KEYS
        assert set(vars(pickle.loads(pickle.dumps(graph)))) == GRAPH_KEYS
    # A query builds the index; the next validate drops it again.
    bnff_icf.consumers_of(bnff_icf.nodes[0].outputs[0])
    assert set(vars(bnff_icf)) == GRAPH_KEYS | {"_consumers"}
    bnff_icf.validate()
    assert set(vars(bnff_icf)) == GRAPH_KEYS


def test_field_equal_nodes_are_distinct_and_hashable():
    a = Node(name="n", kind=OpKind.RELU, inputs=["x"], outputs=["y"])
    b = Node(name="n", kind=OpKind.RELU, inputs=["x"], outputs=["y"])
    assert a != b
    assert a == a
    assert len({a, b}) == 2
    assert [a, b].index(b) == 1


def fanout_graph() -> LayerGraph:
    """x feeds two ReLUs, which an EWS joins (a Split on x after finalize)."""
    b = GraphBuilder("f", batch=2, image=(3, 4, 4))
    x = b.input()
    r1 = b.relu(x, name="r1")
    r2 = b.relu(x, name="r2")
    b.loss(b.fc(b.global_pool(b.ews([r1, r2], name="sum")), 2))
    return b.finalize()


class TestLiveIndex:
    """Each editing method against a scan, with the index live."""

    def test_replace_input_moves_the_consumer(self):
        g = fanout_graph()
        r1, r2 = g.node("r1"), g.node("r2")
        branch = r1.inputs[0]
        assert g.consumers_of(branch) == [r1]
        g.replace_input(r2, r2.inputs[0], branch)
        assert r2.inputs == [branch]
        assert g.consumers_of(branch) == [r1, r2]
        assert_index_matches_scan(g)

    def test_replace_input_keeps_node_order(self):
        g = fanout_graph()
        r1, r2 = g.node("r1"), g.node("r2")
        branch = r2.inputs[0]
        g.consumers_of(branch)  # build the index
        g.replace_input(r1, r1.inputs[0], branch)
        assert g.consumers_of(branch) == [r1, r2]
        assert_index_matches_scan(g)

    def test_replace_input_of_a_repeated_operand(self):
        g = fanout_graph()
        ews = g.node("sum")
        a, b = ews.inputs
        g.consumers_of(a)  # build the index
        g.replace_input(ews, a, b)
        assert ews.inputs == [b, b]
        assert g.consumers_of(b) == [ews]
        assert g.consumers_of(a) == []
        assert_index_matches_scan(g)

    def test_replace_input_rejects_a_non_input_and_unknown_tensor(self):
        g = fanout_graph()
        r1 = g.node("r1")
        with pytest.raises(GraphError):
            g.replace_input(r1, "sum.out", r1.inputs[0])
        with pytest.raises(GraphError):
            g.replace_input(r1, r1.inputs[0], "no_such_tensor")

    def test_add_node_at_a_position(self):
        g = fanout_graph()
        r1 = g.node("r1")
        x = r1.inputs[0]
        g.consumers_of(x)
        g.add_tensor(TensorSpec("extra", g.tensor(x).shape))
        early = Node(name="early", kind=OpKind.RELU, inputs=[x],
                     outputs=["extra"])
        g.add_node(early, position=g.index_of("r1"))
        assert g.consumers_of(x) == [early, r1]
        assert_index_matches_scan(g)

    def test_remove_node(self):
        g = fanout_graph()
        r1 = g.node("r1")
        x = r1.inputs[0]
        g.consumers_of(x)
        g.remove_node("r1")
        assert g.consumers_of(x) == []
        assert_index_matches_scan(g)

    def test_consumers_of_returns_a_copy(self):
        g = fanout_graph()
        x = g.node("r1").inputs[0]
        g.consumers_of(x).clear()
        assert g.consumers_of(x) == [g.node("r1")]

    def test_index_of_unknown_node_raises(self):
        with pytest.raises(GraphError):
            fanout_graph().index_of("nope")
