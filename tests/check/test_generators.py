"""Seeded generators: reproducible, always-valid instances."""

import random

import pytest
from hypothesis import given, settings

from repro.check import generate_cases, random_case, verify_execution
from repro.check.generators import case_strategy, random_schedule, schedule_strategy
from repro.schedules import validate_schedule


class TestRandomCase:
    def test_same_seed_same_case(self):
        a, b = random_case(42), random_case(42)
        assert a.plan.notation == b.plan.notation
        assert a.plan.split_notation == b.plan.split_notation
        assert a.plan.num_micro_batches == b.plan.num_micro_batches
        assert a.warmup_policy == b.warmup_policy
        assert a.plan.model.num_layers == b.plan.model.num_layers

    def test_different_seeds_vary(self):
        cases = generate_cases(30)
        assert len({c.plan.notation for c in cases}) > 3
        assert {c.warmup_policy for c in cases} == {"PA", "PB"}

    def test_generated_plans_are_feasible_and_conformant(self):
        for case in generate_cases(8, base_seed=100):
            report = verify_execution(
                case.profile, case.cluster, case.plan,
                warmup_policy=case.warmup_policy,
            )
            assert report.ok, f"{case}: {report.render()}"


class TestRandomSchedule:
    @pytest.mark.parametrize("m", [1, 2, 5, 9])
    def test_always_valid(self, m):
        for seed in range(10):
            tasks = random_schedule(m, random.Random(seed))
            validate_schedule([tasks], m)
            assert len(tasks) == 2 * m

    def test_deterministic_per_seed(self):
        a = random_schedule(6, random.Random(7))
        b = random_schedule(6, random.Random(7))
        assert a == b


class TestHypothesisStrategies:
    @given(case=case_strategy(max_seed=200))
    @settings(max_examples=10, deadline=None)
    def test_case_strategy_yields_valid_plans(self, case):
        case.plan.validate()
        assert case.cluster.num_devices >= case.plan.num_devices

    @given(tasks=schedule_strategy(max_micro_batches=8))
    @settings(max_examples=25, deadline=None)
    def test_schedule_strategy_yields_valid_schedules(self, tasks):
        m = sum(1 for t in tasks if t.kind == "F")
        validate_schedule([tasks], m)
