"""Property-based tests: graph/pass invariants over randomized topologies.

A generator builds random-but-valid straight-line-with-branches CNN graphs;
every restructuring scenario must then preserve the structural invariants:
validated graphs, conserved arithmetic, non-increasing sweep counts, and a
complete fusion audit trail. The passes rewire edges through the consumer
index, so it must agree with a scan of the node list wherever they leave it.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph import GraphBuilder, OpKind
from repro.passes import apply_scenario
from repro.passes.scenarios import SCENARIO_ORDER, SCENARIOS
from repro.perf.flops import node_elementwise_ops, node_flops
from tests.consumer_index import (
    GRAPH_KEYS,
    assert_index_matches_scan,
    checked_at_validate,
)


@st.composite
def random_cnn(draw):
    """A random small CNN: conv/bn/relu segments with optional branching."""
    batch = draw(st.integers(2, 4))
    size = draw(st.sampled_from([8, 16]))
    b = GraphBuilder("rand", batch=batch, image=(3, size, size))
    x = b.input()
    channels = 3
    n_segments = draw(st.integers(1, 4))
    for i in range(n_segments):
        b.region(f"seg{i}")
        out_ch = draw(st.sampled_from([4, 8]))
        kernel = draw(st.sampled_from([1, 3]))
        x = b.conv(x, out_ch, kernel, padding=kernel // 2, name=f"conv{i}")
        channels = out_ch
        if draw(st.booleans()):
            x = b.bn(x, name=f"bn{i}")
        if draw(st.booleans()):
            x = b.relu(x, name=f"relu{i}")
        if draw(st.booleans()):
            # DenseNet-style side branch + concat (creates a Split).
            side = b.conv(x, 4, 1, name=f"side{i}")
            x = b.concat([x, side], name=f"cat{i}")
            channels += 4
    b.region("head")
    x = b.global_pool(x)
    b.loss(b.fc(x, 4))
    return b.finalize()


def total_arithmetic(graph):
    """Sum of FLOPs and elementwise ops over all nodes incl. ghosts."""
    flops = eops = 0.0
    for node in graph.nodes:
        f_fwd, f_bwd = node_flops(node, graph)
        e_fwd, e_bwd = node_elementwise_ops(node, graph)
        flops += f_fwd + f_bwd
        eops += e_fwd + e_bwd
    return flops, eops


class TestPassInvariants:
    @settings(max_examples=25, deadline=None)
    @given(g=random_cnn(), scenario=st.sampled_from(SCENARIO_ORDER))
    def test_scenario_preserves_validity(self, g, scenario):
        gg, _ = apply_scenario(g, scenario)
        gg.validate()  # must not raise

    @settings(max_examples=25, deadline=None)
    @given(g=random_cnn(), scenario=st.sampled_from(SCENARIO_ORDER))
    def test_sweeps_never_increase(self, g, scenario):
        gg, _ = apply_scenario(g, scenario)
        assert gg.sweep_count() <= g.sweep_count()

    @settings(max_examples=25, deadline=None)
    @given(g=random_cnn())
    def test_flops_conserved_by_bnff(self, g):
        """Restructuring moves arithmetic; it must not create or destroy
        GEMM FLOPs (elementwise ops can shrink slightly via MVF)."""
        gg, _ = apply_scenario(g, "bnff")
        f0, _ = total_arithmetic(g)
        f1, _ = total_arithmetic(gg)
        assert f1 == f0

    @settings(max_examples=25, deadline=None)
    @given(g=random_cnn())
    def test_ghost_audit_trail_is_closed(self, g):
        """Every ghost's host exists and records the fusion provenance."""
        gg, _ = apply_scenario(g, "bnff_icf")
        for node in gg.nodes:
            host_name = node.attrs.get("fused_into")
            if not host_name:
                continue
            host = gg.node(host_name)
            assert not host.attrs.get("fused_into"), "chained ghosting"
            assert any(node.name in f for f in host.fused_from), (
                node.name, host.fused_from
            )

    @settings(max_examples=25, deadline=None)
    @given(g=random_cnn())
    def test_ghosts_have_empty_ledgers(self, g):
        gg, _ = apply_scenario(g, "bnff_icf")
        for node in gg.nodes:
            if node.attrs.get("fused_into"):
                assert node.fwd_sweeps == []
                assert node.bwd_sweeps == []
                assert node.fwd_invocations == 0
                assert node.bwd_invocations == 0

    @settings(max_examples=15, deadline=None)
    @given(g=random_cnn())
    def test_scenario_application_idempotent_on_source(self, g):
        before = g.sweep_count()
        for sc in SCENARIO_ORDER:
            apply_scenario(g, sc)
        assert g.sweep_count() == before


class TestBuilderInvariants:
    @settings(max_examples=25, deadline=None)
    @given(g=random_cnn())
    def test_every_feature_tensor_single_producer(self, g):
        from repro.tensors import TensorKind

        for t in g.tensors.values():
            if t.kind is TensorKind.FEATURE:
                producers = [n for n in g.nodes if t.name in n.outputs]
                assert len(producers) <= 1

    @settings(max_examples=25, deadline=None)
    @given(g=random_cnn())
    def test_no_fanout_without_split(self, g):
        """After finalize, each feature tensor has at most one consumer."""
        from repro.tensors import TensorKind

        for t in g.tensors.values():
            if t.kind is TensorKind.FEATURE:
                assert len(g.consumers_of(t.name)) <= 1


class TestConsumerIndex:
    @settings(max_examples=25, deadline=None)
    @given(g=random_cnn())
    def test_index_matches_scan_after_every_scenario(self, g):
        """The index as each pass leaves it, and a fresh one on the result,
        name every tensor's consumers in node order; index_of is each
        node's position."""
        for scenario in SCENARIO_ORDER:
            with checked_at_validate() as checked:
                gg, _ = apply_scenario(g, scenario)
            assert len(checked) == len(SCENARIOS[scenario])
            assert set(vars(gg)) == GRAPH_KEYS
            assert_index_matches_scan(gg)
