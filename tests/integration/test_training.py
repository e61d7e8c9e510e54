"""Integration: multi-step training with restructured execution.

fp32 restructuring is numerically equivalent per step (tight tolerance) but
not bit-identical — the one-pass variance and fused accumulation orders
round differently — so multi-step trajectories drift slowly, exactly the
regime the paper's Section 3.2 discusses. These tests pin the *useful*
property: identical start, bounded early drift, and equally successful
optimization.
"""

import numpy as np
import pytest

from repro.models import build_model
from repro.passes import SCENARIOS, apply_scenario
from repro.train import GraphExecutor, SyntheticClassification, Trainer


@pytest.fixture(scope="module")
def task():
    return SyntheticClassification(image=(3, 16, 16), num_classes=10,
                                   noise=0.3, seed=3)


def train(graph, task, steps, seed=7, lr=0.05):
    trainer = Trainer(GraphExecutor(graph, seed=seed), task, lr=lr)
    return [s.loss for s in trainer.run(steps, batch_size=8)]


class TestTrajectories:
    def test_bnff_trajectory_tracks_reference(self, task):
        g = build_model("tiny_densenet", batch=8)
        ref = train(g, task, steps=6)
        fused = train(apply_scenario(g, "bnff")[0], task, steps=6)
        # Identical first step (same weights, same batch, same math).
        assert fused[0] == pytest.approx(ref[0], abs=1e-5)
        # Early steps drift only through fp32 rounding.
        np.testing.assert_allclose(fused[:4], ref[:4], rtol=2e-2, atol=2e-2)

    def test_icf_trajectory_tracks_reference(self, task):
        g = build_model("tiny_densenet", batch=8)
        ref = train(g, task, steps=4)
        fused = train(apply_scenario(g, "bnff_icf")[0], task, steps=4)
        assert fused[0] == pytest.approx(ref[0], abs=1e-5)
        np.testing.assert_allclose(fused, ref, rtol=3e-2, atol=3e-2)

    def test_both_executions_learn(self, task):
        """The end goal: restructured training optimizes just as well."""
        g = build_model("tiny_cnn", batch=8)
        ref = train(g, task, steps=30)
        fused = train(apply_scenario(g, "bnff")[0], task, steps=30)
        assert np.mean(ref[-5:]) < np.mean(ref[:5]) - 0.3
        assert np.mean(fused[-5:]) < np.mean(fused[:5]) - 0.3
        # Final quality comparable.
        assert abs(np.mean(fused[-5:]) - np.mean(ref[-5:])) < 0.5

    def test_resnet_bnff_training(self, task):
        """EWS-fused normalize path survives a few optimization steps."""
        g = build_model("tiny_resnet", batch=6)
        losses = train(apply_scenario(g, "bnff")[0],
                       SyntheticClassification(image=(3, 32, 32),
                                               num_classes=10, seed=5),
                       steps=3, lr=0.01)
        assert all(np.isfinite(l) for l in losses)


class TestRunningStats:
    def test_running_stats_updated_in_fused_execution(self):
        g = build_model("tiny_cnn", batch=8)
        gg, _ = apply_scenario(g, "bnff")
        ex = GraphExecutor(gg, seed=0)
        ds = SyntheticClassification(image=(3, 16, 16), num_classes=10, seed=1)
        x, y = ds.batch(8, seed=0)
        before = ex.bn_params["body/bn1"].running_mean.copy()
        ex.forward(x, y)
        after = ex.bn_params["body/bn1"].running_mean
        assert not np.array_equal(before, after)

    def test_running_stats_updated_in_reference_execution(self):
        ex = GraphExecutor(build_model("tiny_cnn", batch=8), seed=0)
        ds = SyntheticClassification(image=(3, 16, 16), num_classes=10, seed=1)
        x, y = ds.batch(8, seed=0)
        before = {name: (bn.running_mean.copy(), bn.running_var.copy())
                  for name, bn in ex.bn_params.items()}
        assert before
        ex.forward(x, y)
        for name, (mean, var) in before.items():
            assert not np.array_equal(ex.bn_params[name].running_mean, mean)
            assert not np.array_equal(ex.bn_params[name].running_var, var)

    @pytest.mark.parametrize(
        "scenario", [s for s in SCENARIOS if s != "baseline"])
    def test_restructured_running_stats_match_reference(self, scenario):
        """Restructuring moves where the statistics are computed, not the
        running averages inference reads afterwards."""
        g = build_model("tiny_densenet", batch=8)
        ds = SyntheticClassification(image=(3, 16, 16), num_classes=10, seed=1)
        x, y = ds.batch(8, seed=0)
        ref = GraphExecutor(g, seed=0)
        ex = GraphExecutor(apply_scenario(g, scenario)[0], seed=0)
        ref.forward(x, y)
        ex.forward(x, y)
        assert ex.bn_params.keys() == ref.bn_params.keys()
        for name, bn in ref.bn_params.items():
            np.testing.assert_allclose(ex.bn_params[name].running_mean,
                                       bn.running_mean, rtol=1e-6, atol=1e-6)
            np.testing.assert_allclose(ex.bn_params[name].running_var,
                                       bn.running_var, rtol=1e-6, atol=1e-6)
