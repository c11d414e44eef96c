"""Robust-plan selection tests, including the planner top-K plumbing."""

import pytest

from repro.core import Planner, PlannerConfig, profile_model
from repro.faults import ComputeJitter, SlowDevice, robust_plan
from repro.models import get_model

from tests.faults.test_inject import small_setup


def vgg_setup():
    from repro.cluster import config_b

    prof = profile_model(get_model("vgg19"))
    return prof, config_b(4), 64


class TestPlannerTopK:
    def test_top_plans_off_by_default(self):
        prof, cluster, gbs = vgg_setup()
        assert Planner(prof, cluster, gbs).search().top_plans == []

    def test_top_plans_sorted_distinct_and_include_winner(self):
        prof, cluster, gbs = vgg_setup()
        cfg = PlannerConfig(keep_top_k=4)
        result = Planner(prof, cluster, gbs, cfg).search()
        top = result.top_plans
        assert 1 <= len(top) <= 4
        lats = [lat for lat, _ in top]
        assert lats == sorted(lats)
        keys = [
            (p.notation, p.split_notation, p.num_micro_batches) for _, p in top
        ]
        assert len(set(keys)) == len(keys)
        best = result.plan
        assert (best.notation, best.split_notation, best.num_micro_batches) in keys


class TestRobustPlan:
    MODELS = (SlowDevice(factor=2.0), ComputeJitter(sigma=0.05))

    def test_candidates_sorted_by_quantile(self):
        prof, cluster, gbs = vgg_setup()
        rob = robust_plan(
            prof, cluster, gbs, self.MODELS, range(3), top_k=3
        )
        assert len(rob.candidates) >= 1
        qs = [c.quantile for c in rob.candidates]
        assert qs == sorted(qs)
        assert rob.robust is rob.candidates[0]
        assert rob.clean_optimal.clean == min(c.clean for c in rob.candidates)
        assert rob.selection_changed == (
            rob.robust.notation != rob.clean_optimal.notation
        )

    def test_validation(self):
        prof, cluster, plan = small_setup()
        with pytest.raises(ValueError, match="quantile"):
            robust_plan(prof, cluster, 16, self.MODELS, [0], q=1.5)
        with pytest.raises(ValueError, match="top_k"):
            robust_plan(prof, cluster, 16, self.MODELS, [0], top_k=0)


@pytest.mark.slow
class TestRobustSelectionShift:
    def test_straggler_flips_the_selection_somewhere(self):
        # Acceptance criterion: at least one regime where the p95-robust
        # plan differs from the clean-optimal one.
        from repro.experiments.common import cluster, profile
        from repro.models import PAPER_FIGURES

        models = (SlowDevice(factor=2.0), ComputeJitter(sigma=0.05))
        flipped = []
        for name, cfg in (("gnmt16", "A"), ("gnmt16", "B"), ("vgg19", "A")):
            rob = robust_plan(
                profile(name), cluster(cfg),
                PAPER_FIGURES[name].global_batch_size,
                models, range(8), top_k=4,
            )
            flipped.append(rob.selection_changed)
        assert any(flipped)
