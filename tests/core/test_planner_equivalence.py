"""The level-batched planner must be *bit-identical* to the scalar oracle.

This is the contract of :class:`repro.core.fast_scan.CompletionScanner`:
not approximate agreement but the same winning plan, the same latency float,
and the same search trajectory (states explored, plans evaluated, plans
rejected for memory, the top-K beam) for every zoo model × hardware config
× GBS point, against :class:`repro.check.ScalarPlanner`.  A reduced beam
keeps the cross-product affordable; both searches share the frontier and
beam code, so the beam setting doesn't weaken the equivalence claim.
"""

import numpy as np

import pytest

from repro.check import ScalarPlanner, planner_diffs
from repro.cluster import config_by_name
from repro.core import CompletionScanner, ParallelPlan, Stage, profile_model
from repro.core.latency import evaluate_plan
from repro.core.planner import Planner, PlannerConfig
from repro.models import PAPER_FIGURES, get_model

#: Two GBS points per model: the paper's figure setting plus a second point
#: exercising a different micro-batch count.
GBS_POINTS = {
    "gnmt16": (1024, 256),
    "bert48": (64, 256),
    "xlnet36": (128, 32),
    "resnet50": (1024, 256),
    "vgg19": (2048, 512),
    "amoebanet36": (128, 512),
}

ZOO = sorted(PAPER_FIGURES)
CONFIGS = ["A", "B", "C"]


def scan(prof, cluster, specs, gbs, m, enforce_memory):
    return CompletionScanner(prof, cluster).scan_level(
        specs,
        global_batch_size=gbs,
        num_micro_batches=m,
        enforce_memory=enforce_memory,
    )


class TestSearchEquivalence:
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("model", ZOO)
    def test_vectorized_matches_scalar(self, model, config):
        """Level-batched search vs the scalar oracle, whole beam included."""
        prof = profile_model(get_model(model))
        cluster = config_by_name(config, 16)
        cfg = PlannerConfig(beam_width=8, keep_top_k=4)
        for gbs in GBS_POINTS[model]:
            level = Planner(prof, cluster, gbs, cfg).search()
            slow = ScalarPlanner(prof, cluster, gbs, cfg).search()
            # Bit-identical, not allclose: both run the same IEEE-754
            # operation sequence.
            assert planner_diffs(level, slow) == []
            assert level.top_plans


class TestMemoryFeasibilityEquivalence:
    @pytest.mark.parametrize(
        "model,config,devices,gbs",
        [
            ("amoebanet36", "A", 16, 128),  # many memory-infeasible splits
            ("bert48", "A", 8, 64),  # tight single-machine memory
            ("vgg19", "C", 16, 2048),  # everything fits
        ],
    )
    def test_scan_mask_matches_plan_fits_memory(self, model, config, devices, gbs):
        """The scan's memory mask (finite vs ``inf`` latency) equals scalar
        ``plan_fits_memory`` on the corresponding completion plans, split
        by split."""
        prof = profile_model(get_model(model))
        cluster = config_by_name(config, devices)
        planner = Planner(prof, cluster, gbs)
        n = prof.num_layers
        m = planner._m_multi

        half = devices // 2
        groups = [tuple(cluster.devices[:half]), tuple(cluster.devices[:1])]
        tails = [tuple(cluster.devices[half:]), tuple(cluster.devices[1:])]
        res = scan(prof, cluster, [(0, (), groups, tails)], gbs, m, True)
        infeasible = 0
        for r, (g, t) in enumerate(zip(groups, tails)):
            for k, j2 in enumerate(res.splits):
                plan = ParallelPlan(
                    prof.graph,
                    [Stage(0, int(j2), g), Stage(int(j2), n, t)],
                    gbs,
                    m,
                )
                fits = planner.plan_fits_memory(plan)
                infeasible += not fits
                assert bool(np.isfinite(res.latency[r, k])) == fits, (r, int(j2))
        assert res.infeasible == infeasible
        assert res.evaluated == len(groups) * (n - 1)


class TestScanLatencyValues:
    def test_finite_entries_match_evaluate_plan(self):
        """Spot-check the scan matrix against scalar evaluate_plan on a
        mixed-``j_lo`` level of three-stage completions."""
        prof = profile_model(get_model("gnmt16"))
        cluster = config_by_name("C", 16)
        gbs = 1024
        m = Planner(prof, cluster, gbs)._m_multi
        n = prof.num_layers
        devs = cluster.devices

        specs = [
            (4, (Stage(0, 4, tuple(devs[:4])),), [tuple(devs[4:10])], [tuple(devs[10:])]),
            (6, (Stage(0, 6, tuple(devs[:2])),), [tuple(devs[2:5])], [tuple(devs[5:])]),
        ]
        res = scan(prof, cluster, specs, gbs, m, False)
        assert list(res.splits) == list(range(5, n))
        for t, (j_lo, prefix, groups, tails) in enumerate(specs):
            for k, j2 in enumerate(res.splits):
                if j2 <= j_lo:
                    assert res.latency[t, k] == np.inf
                    continue
                plan = ParallelPlan(
                    prof.graph,
                    [*prefix, Stage(j_lo, int(j2), groups[0]),
                     Stage(int(j2), n, tails[0])],
                    gbs,
                    m,
                )
                ref = evaluate_plan(prof, cluster, plan).latency
                assert res.latency[t, k] == ref  # bit-identical

    def test_empty_scan(self):
        prof = profile_model(get_model("gnmt16"))
        cluster = config_by_name("A", 16)
        res = scan(prof, cluster, [(prof.num_layers - 1, (), [], [])], 64, 4, True)
        assert res.evaluated == 0 and res.latency.size == 0
