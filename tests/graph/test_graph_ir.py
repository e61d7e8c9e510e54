"""Graph IR: nodes, reference sweep ledgers, LayerGraph invariants."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    Direction,
    GraphBuilder,
    LayerGraph,
    Node,
    OpKind,
    Sweep,
    attach_reference_sweeps,
)
from repro.tensors import TensorKind, TensorSpec


def tiny_graph():
    b = GraphBuilder("t", batch=4, image=(3, 8, 8))
    x = b.input()
    x = b.conv(x, 8, kernel=3, padding=1, name="conv1")
    x = b.bn(x, name="bn1")
    x = b.relu(x, name="relu1")
    x = b.conv(x, 4, kernel=1, name="conv2")
    x = b.global_pool(x)
    logits = b.fc(x, 10)
    b.loss(logits)
    return b.finalize()


class TestReferenceLedger:
    """Pin the exact baseline ledger of Figure 5 / DESIGN.md Section 5."""

    def test_bn_forward_three_reads_one_write(self):
        g = tiny_graph()
        bn = g.node("bn1")
        tags = [s.tag for s in bn.fwd_sweeps]
        assert tags == ["read_x_mean", "read_x_var", "read_x_normalize", "write_y"]

    def test_bn_backward_five_sweeps(self):
        g = tiny_graph()
        bn = g.node("bn1")
        assert len(bn.bwd_sweeps) == 5
        assert [s.tag for s in bn.bwd_sweeps] == [
            "read_dy_pgrads", "read_x_pgrads", "read_dy_dx", "read_x_dx",
            "write_dx",
        ]

    def test_conv_backward_is_two_primitives(self):
        g = tiny_graph()
        conv = g.node("conv1")
        assert conv.fwd_invocations == 1
        assert conv.bwd_invocations == 2

    def test_relu_ledger(self):
        g = tiny_graph()
        relu = g.node("relu1")
        assert len(relu.fwd_sweeps) == 2
        assert len(relu.bwd_sweeps) == 3

    def test_split_forward_is_free(self):
        b = GraphBuilder("s", batch=2, image=(3, 4, 4))
        x = b.input()
        a = b.relu(x, name="r1")
        c = b.relu(x, name="r2")  # fan-out forces a split
        y = b.ews([a, c])
        b.loss(b.fc(b.global_pool(y), 2))
        g = b.finalize()
        splits = g.nodes_of_kind(OpKind.SPLIT)
        assert len(splits) == 1
        assert splits[0].fwd_sweeps == []
        assert splits[0].fwd_invocations == 0
        # Backward: one read per branch + one accumulated write.
        assert len(splits[0].bwd_sweeps) == 3

    def test_grad_sweeps_marked(self):
        g = tiny_graph()
        conv = g.node("conv1")
        grads = [s for s in conv.bwd_sweeps if s.grad]
        assert {s.tag for s in grads} == {
            "read_dy_data", "write_dx", "read_dy_weights", "write_dw",
        }

    def test_unknown_kind_rejected(self):
        node = Node(name="x", kind=OpKind.DATA)
        node.kind = "bogus"
        with pytest.raises(GraphError):
            attach_reference_sweeps(node)


class TestLayerGraph:
    def test_duplicate_tensor_rejected(self):
        g = LayerGraph("g")
        g.add_tensor(TensorSpec("t", (1,)))
        with pytest.raises(GraphError):
            g.add_tensor(TensorSpec("t", (2,)))

    def test_duplicate_node_rejected(self):
        g = LayerGraph("g")
        g.add_tensor(TensorSpec("t", (1,)))
        g.add_node(Node(name="n", kind=OpKind.DATA, outputs=["t"]))
        with pytest.raises(GraphError):
            g.add_node(Node(name="n", kind=OpKind.DATA))

    def test_double_producer_rejected(self):
        g = LayerGraph("g")
        g.add_tensor(TensorSpec("t", (1,)))
        g.add_node(Node(name="a", kind=OpKind.DATA, outputs=["t"]))
        with pytest.raises(GraphError):
            g.add_node(Node(name="b", kind=OpKind.DATA, outputs=["t"]))

    def test_unknown_input_rejected(self):
        g = LayerGraph("g")
        with pytest.raises(GraphError):
            g.add_node(Node(name="n", kind=OpKind.RELU, inputs=["missing"]))

    def test_validate_topological_order(self):
        g = LayerGraph("g")
        g.add_tensor(TensorSpec("a", (2, 2, 2, 2)))
        g.add_tensor(TensorSpec("b", (2, 2, 2, 2)))
        # relu consumes "a" but is inserted before the producer of "a".
        g.add_node(Node(name="r", kind=OpKind.RELU, inputs=["a"], outputs=["b"]))
        g.add_node(Node(name="d", kind=OpKind.DATA, outputs=["a"]))
        with pytest.raises(GraphError):
            g.validate()

    def test_producer_consumer_queries(self):
        g = tiny_graph()
        bn_out = g.node("bn1").outputs[0]
        assert g.producer_of(bn_out).name == "bn1"
        assert [n.name for n in g.consumers_of(bn_out)] == ["relu1"]

    def test_clone_is_independent(self):
        g = tiny_graph()
        c = g.clone()
        c.node("bn1").fwd_sweeps = []
        assert len(g.node("bn1").fwd_sweeps) == 4

    def test_clone_copies_attribute_lists(self):
        from repro.models.registry import build_model
        from repro.passes import apply_scenario

        g, _ = apply_scenario(build_model("tiny_densenet", batch=2), "bnff_icf")
        c = g.clone()
        c.node("stem/pool0").attrs["icf_stats"].append("extra")
        assert g.node("stem/pool0").attrs["icf_stats"] == [
            "block1/cpl0/bn_a.stats"]

    def test_sweep_count_totals(self):
        g = tiny_graph()
        assert g.sweep_count() == sum(
            len(n.fwd_sweeps) + len(n.bwd_sweeps) for n in g.nodes
        )

    def test_missing_node_lookup_raises(self):
        with pytest.raises(GraphError):
            tiny_graph().node("nope")


class TestBuilder:
    def test_split_inserted_on_fanout(self):
        b = GraphBuilder("f", batch=2, image=(3, 4, 4))
        x = b.input()
        a = b.relu(x, name="r1")
        c = b.relu(x, name="r2")
        b.loss(b.fc(b.global_pool(b.ews([a, c])), 2))
        g = b.finalize()
        split = g.nodes_of_kind(OpKind.SPLIT)[0]
        # Consumers now read distinct split branches.
        assert g.node("r1").inputs[0] != g.node("r2").inputs[0]
        assert set(split.outputs) == {g.node("r1").inputs[0], g.node("r2").inputs[0]}

    def test_no_split_for_single_consumer(self):
        g = tiny_graph()
        assert g.nodes_of_kind(OpKind.SPLIT) == []

    def test_shapes_inferred(self):
        b = GraphBuilder("s", batch=2, image=(3, 32, 32))
        x = b.input()
        x = b.conv(x, 8, kernel=3, stride=2, padding=1)
        assert b.shape(x) == (2, 8, 16, 16)
        x = b.max_pool(x, 2)
        assert b.shape(x) == (2, 8, 8, 8)

    def test_concat_channel_sum(self):
        b = GraphBuilder("c", batch=2, image=(3, 8, 8))
        x = b.input()
        a = b.conv(x, 4, 1, name="a")
        c = b.conv(x, 6, 1, name="c")
        y = b.concat([a, c])
        assert b.shape(y)[1] == 10

    def test_finalize_twice_raises(self):
        b = GraphBuilder("d", batch=2, image=(3, 4, 4))
        b.loss(b.fc(b.input(), 2))
        b.finalize()
        with pytest.raises(GraphError):
            b.finalize()

    def test_weight_tensors_marked(self):
        g = tiny_graph()
        w = g.tensor(g.node("conv1").attrs["weight"])
        assert w.kind is TensorKind.WEIGHT

    def test_bad_batch_rejected(self):
        with pytest.raises(GraphError):
            GraphBuilder("b", batch=0)

    def test_region_tagging(self):
        b = GraphBuilder("r", batch=2, image=(3, 4, 4))
        x = b.input()
        b.region("blockA")
        x = b.relu(x, name="act")
        assert b.graph.node("blockA/act").region == "blockA"
