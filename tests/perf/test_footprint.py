"""Training-footprint analysis: restructuring's side benefit."""

import pytest

from repro.models import build_model
from repro.passes import apply_scenario
from repro.perf import footprint_savings, training_footprint
from repro.perf.footprint import retained_tensors


class TestBaselineFootprint:
    def test_retained_subset_of_materialized(self):
        g = build_model("densenet121", batch=8)
        r = training_footprint(g)
        assert 0 < r.retained_bytes <= r.materialized_bytes
        assert 0 < r.retained_tensors <= r.materialized_tensors

    def test_scales_with_batch(self):
        small = training_footprint(build_model("tiny_cnn", batch=4))
        large = training_footprint(build_model("tiny_cnn", batch=8))
        assert large.retained_bytes == 2 * small.retained_bytes

    def test_baseline_retains_bn_outputs(self):
        """Reference training keeps normalized maps for BN/ReLU backward."""
        g = build_model("tiny_cnn", batch=4)
        r = training_footprint(g)
        # conv outputs + bn outputs + relu outputs + pool caches...
        assert r.retained_tensors >= 6

    def test_retained_bytes_sum_over_retained_tensors(self):
        g = build_model("tiny_densenet", batch=4)
        names = retained_tensors(g)
        r = training_footprint(g)
        assert r.retained_tensors == len(names)
        assert r.retained_bytes == sum(g.tensor(t).size_bytes for t in names)


class TestRestructuredFootprint:
    def test_bnff_reduces_retained_footprint(self):
        """Normalized/rectified maps are never materialized under BNFF, so
        they drop out of the retained set — a Gist-style side benefit the
        paper does not quantify."""
        g = build_model("densenet121", batch=8)
        gb, _ = apply_scenario(g, "bnff")
        saving = footprint_savings(g, gb)
        assert 0.3 < saving < 0.9

    def test_icf_saves_at_least_as_much(self):
        g = build_model("densenet121", batch=8)
        bnff, _ = apply_scenario(g, "bnff")
        icf, _ = apply_scenario(g, "bnff_icf")
        assert (training_footprint(icf).retained_bytes
                <= training_footprint(bnff).retained_bytes)

    def test_rcf_swaps_but_does_not_shrink_retained(self):
        """RCF keeps the pre-ReLU tensor (mask + weights re-read) instead of
        the rectified one — same bytes retained, but the rectified maps are
        no longer materialized at all."""
        g = build_model("densenet121", batch=8)
        rcf, _ = apply_scenario(g, "rcf")
        assert footprint_savings(g, rcf) == pytest.approx(0.0, abs=0.02)
        assert (training_footprint(rcf).materialized_bytes
                < training_footprint(g).materialized_bytes)

    def test_mobilenet_savings(self):
        g = build_model("mobilenet_v1", batch=8)
        gb, _ = apply_scenario(g, "bnff")
        assert footprint_savings(g, gb) == pytest.approx(0.49, abs=0.1)

    def test_alexnet_unchanged(self):
        """No BN layers, ReLUs feed pools/FCs mostly — tiny effect."""
        g = build_model("alexnet", batch=8)
        ga, _ = apply_scenario(g, "bnff")
        assert footprint_savings(g, ga) < 0.35
