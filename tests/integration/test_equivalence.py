"""Integration: restructured execution == reference execution, end to end.

This is the reproduction's functional correctness claim: for every model
topology the paper touches (straight-line, DenseNet CPL/Concat/Split,
ResNet EWS/shortcut) and every scenario (RCF, RCF+MVF, BNFF, BNFF+ICF),
one full training step produces the same loss, the same parameter
gradients, and the same input gradient as the reference layer-by-layer
execution — while the restructured schedule never materializes normalized
or rectified feature maps.
"""

import numpy as np
import pytest

from repro.kernels import assert_fused_equal
from repro.models import build_model
from repro.passes import apply_scenario
from repro.passes.scenarios import SCENARIO_ORDER
from repro.train import GraphExecutor, synthetic_batch

MODELS = {
    "tiny_cnn": dict(batch=8, image=(3, 16, 16)),
    "tiny_densenet": dict(batch=8, image=(3, 16, 16)),
    "tiny_resnet": dict(batch=6, image=(3, 32, 32)),
    "tiny_mobilenet": dict(batch=6, image=(3, 16, 16)),
    "tiny_inception": dict(batch=4, image=(3, 32, 32)),
}

SCENARIOS = [s for s in SCENARIO_ORDER if s != "baseline"]


@pytest.fixture(scope="module")
def references():
    """One reference forward/backward per model, shared across scenarios."""
    out = {}
    for model, kw in MODELS.items():
        g = build_model(model, **kw)
        x, y = synthetic_batch(kw["batch"], kw["image"], 10, seed=42)
        ex = GraphExecutor(g, seed=7)
        loss = ex.forward(x, y)
        din = ex.backward()
        grads = {
            name: p.grad.copy()
            for name, p in ex.named_parameters()
            if p.grad is not None
        }
        out[model] = (g, x, y, loss, din, grads)
    return out


#: fp32 loss agreement per model: MobileNet's 27 consecutive BNs compound
#: one-pass-statistics rounding harder than branchy topologies (see
#: tests/integration/test_precision.py for the fp64 proof of exactness).
LOSS_ATOL = {"tiny_mobilenet": 5e-4, "tiny_inception": 5e-5}


@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize("scenario", SCENARIOS)
class TestStepEquivalence:
    def test_loss_matches(self, references, model, scenario):
        g, x, y, loss_ref, _, _ = references[model]
        gg, _ = apply_scenario(g, scenario)
        ex = GraphExecutor(gg, seed=7)
        assert ex.forward(x, y) == pytest.approx(
            loss_ref, abs=LOSS_ATOL.get(model, 2e-5)
        )

    def test_all_gradients_match(self, references, model, scenario):
        g, x, y, _, din_ref, grads_ref = references[model]
        gg, _ = apply_scenario(g, scenario)
        ex = GraphExecutor(gg, seed=7)
        ex.forward(x, y)
        din = ex.backward()
        # Gradients through deep unbranched BN chains are chaotic in fp32;
        # relative agreement degrades gracefully with depth (fp64 agreement
        # is exact — see test_precision.py).
        rtol, atol = (6e-2, 6e-3) if model == "tiny_mobilenet" else (2e-4, 3e-5)
        assert_fused_equal(din, din_ref, f"{model}/{scenario}/input-grad",
                           rtol=rtol, atol=atol)
        got = dict(ex.named_parameters())
        # Every reference-graded parameter exists and matches.
        assert set(grads_ref) <= set(got)
        for name, g_ref in grads_ref.items():
            assert got[name].grad is not None, name
            assert_fused_equal(got[name].grad, g_ref,
                               f"{model}/{scenario}/{name}",
                               rtol=rtol, atol=atol)


class TestGhostSemantics:
    def test_ghost_nodes_do_not_execute(self):
        """Restructured graphs must not bind values for ghosted outputs:
        no forward entry of the compiled plan writes one."""
        g = build_model("tiny_densenet", batch=4)
        gg, _ = apply_scenario(g, "bnff")
        ex = GraphExecutor(gg, seed=0)
        ghosts = [n for n in gg.nodes if n.attrs.get("fused_into")]
        ghost_relus = [n.outputs[0] for n in ghosts if n.kind.value == "relu"]
        assert ghost_relus
        written = {t for e in ex.forward_plan for t in e.writes}
        assert not written & {t for n in ghosts for t in n.outputs}
        assert {e.node.name for e in ex.forward_plan}.isdisjoint(
            n.name for n in ghosts)

    def test_normalized_maps_not_materialized_under_full_fusion(self):
        """Interior BN outputs are transient in the restructured schedule."""
        g = build_model("tiny_cnn", batch=4)
        gg, _ = apply_scenario(g, "bnff")
        ex = GraphExecutor(gg, seed=0)
        assert "body/bn1.out" in {t for e in GraphExecutor(g, seed=0).forward_plan
                                  for t in e.writes}
        assert "body/bn1.out" not in {t for e in ex.forward_plan for t in e.writes}
