"""IR verifier: one rule at a time, plus the seeded-mutation acceptance
checks (a dangling edge injected after the fusion pipeline must produce
exactly one REPRO-G001 finding) and the pass-hook wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.static import check_graph, maybe_verify_graph, verify_graph
from repro.errors import GraphVerificationError
from repro.graph import GraphBuilder, OpKind
from repro.graph.sweeps import Direction, Sweep
from repro.passes import Pass, PassResult, apply_scenario
from repro.tensors.tensor_spec import TensorKind, TensorSpec


def chain_graph():
    b = GraphBuilder("chain", batch=4, image=(3, 8, 8))
    x = b.input()
    x = b.conv(x, 8, kernel=1, name="conv1")
    x = b.bn(x, name="bn")
    x = b.relu(x, name="relu")
    x = b.conv(x, 4, kernel=3, padding=1, name="conv2")
    b.loss(b.fc(b.global_pool(x), 2))
    return b.finalize()


def rules(findings):
    return [f.rule for f in findings]


class TestCleanGraphs:
    @pytest.mark.parametrize("scenario", ["baseline", "rcf", "rcf_mvf",
                                          "bnff", "bnff_icf"])
    def test_every_scenario_is_clean(self, scenario):
        graph, _ = apply_scenario(chain_graph(), scenario)
        assert check_graph(graph) == []

    def test_paper_scale_model_is_clean(self, densenet121_graph):
        assert check_graph(densenet121_graph) == []


class TestStructuralRules:
    def test_g001_dangling_input(self):
        g = chain_graph()
        g.node("conv2").inputs[0] = "no_such_tensor"
        found = check_graph(g)
        assert rules(found) == ["REPRO-G001"]

    def test_g002_order_not_topological(self):
        g = chain_graph()
        g.nodes.append(g.nodes.pop(0))  # producer now runs last
        found = check_graph(g)
        assert found and set(rules(found)) == {"REPRO-G002"}

    def test_g002_feature_input_without_producer(self):
        g = chain_graph()
        data = g.nodes[0]
        g.nodes.remove(data)
        del g._node_index[data.name]
        for t in data.outputs:
            g._producer.pop(t, None)
        found = check_graph(g)
        assert "REPRO-G002" in rules(found)

    def test_g003_duplicate_node_id(self):
        g = chain_graph()
        g.nodes.append(g.nodes[0])
        found = check_graph(g)
        assert rules(found) == ["REPRO-G003"]

    def test_g004_producer_map_mismatch(self):
        g = chain_graph()
        out = g.node("conv1").outputs[0]
        g._producer[out] = "relu"
        found = check_graph(g)
        assert found and set(rules(found)) == {"REPRO-G004"}

    def test_g005_sweep_unknown_tensor(self):
        g = chain_graph()
        g.node("conv1").fwd_sweeps.append(
            Sweep("ghost_tensor", Direction.READ, "read_x"))
        found = check_graph(g)
        assert rules(found) == ["REPRO-G005"]

    def test_g006_shape_mismatch(self):
        g = chain_graph()
        out = g.node("conv2").outputs[0]
        spec = g.tensors[out]
        g.tensors[out] = TensorSpec(out, (1, 2, 3, 5), kind=spec.kind,
                                    dtype=spec.dtype)
        found = check_graph(g)
        assert "REPRO-G006" in rules(found)
        assert any(f.subject == "conv2" for f in found)

    def test_g007_precision_container_mismatch(self):
        g = chain_graph()
        out = g.node("conv1").outputs[0]
        spec = g.tensors[out]
        g.tensors[out] = TensorSpec(out, spec.shape, kind=spec.kind,
                                    dtype=np.float16, precision="bf16")
        found = check_graph(g)
        assert rules(found) == ["REPRO-G007"]

    def test_g008_ghost_with_sweeps(self):
        g = chain_graph()
        g.node("relu").attrs["fused_into"] = "conv2"
        found = check_graph(g)
        assert rules(found) == ["REPRO-G008"]


class TestSeededMutation:
    def test_dangling_edge_after_fusion_is_exactly_one_g001(self):
        """The acceptance-criteria mutation: break one edge post-BNFF."""
        graph, _ = apply_scenario(chain_graph(), "bnff")
        assert check_graph(graph) == []
        conv2 = graph.node("conv2")
        conv2.inputs[0] = "dangling_after_fusion"
        found = check_graph(graph)
        assert len(found) == 1
        assert found[0].rule == "REPRO-G001"
        assert found[0].subject == "conv2"


class TestVerifyGraph:
    def test_raises_with_findings(self):
        g = chain_graph()
        g.node("conv2").inputs[0] = "nope"
        with pytest.raises(GraphVerificationError) as ei:
            verify_graph(g, context="unit test")
        assert ei.value.findings
        assert ei.value.findings[0].rule == "REPRO-G001"
        assert "unit test" in str(ei.value)

    def test_clean_graph_passes(self):
        verify_graph(chain_graph())

    def test_maybe_verify_respects_switch(self, monkeypatch):
        g = chain_graph()
        g.node("conv2").inputs[0] = "nope"
        monkeypatch.setenv("REPRO_VERIFY_GRAPHS", "0")
        maybe_verify_graph(g)  # off: no raise
        monkeypatch.setenv("REPRO_VERIFY_GRAPHS", "1")
        with pytest.raises(GraphVerificationError):
            maybe_verify_graph(g)

    def test_falsy_spellings(self, monkeypatch):
        from repro.config import verify_graphs_enabled

        for off in ("", "0", "false", "no", "off", " OFF "):
            monkeypatch.setenv("REPRO_VERIFY_GRAPHS", off)
            assert not verify_graphs_enabled()
        for on in ("1", "true", "yes", "on"):
            monkeypatch.setenv("REPRO_VERIFY_GRAPHS", on)
            assert verify_graphs_enabled()


class TestPassHook:
    def test_pass_call_runs_verifier(self, monkeypatch):
        """A pass that corrupts shape metadata (which ``validate`` cannot
        see) is caught by the verifier hook in ``Pass.__call__``."""

        class ShapeBreaker(Pass):
            name = "shape_breaker"

            def run(self, graph):
                out = graph.node("conv2").outputs[0]
                spec = graph.tensors[out]
                graph.tensors[out] = TensorSpec(
                    out, (9, 9, 9, 9), kind=spec.kind, dtype=spec.dtype)
                return PassResult(self.name)

        monkeypatch.setenv("REPRO_VERIFY_GRAPHS", "1")
        with pytest.raises(GraphVerificationError, match="shape_breaker"):
            ShapeBreaker()(chain_graph())

        monkeypatch.setenv("REPRO_VERIFY_GRAPHS", "0")
        ShapeBreaker()(chain_graph())  # switch off: legacy behaviour
