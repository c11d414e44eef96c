"""Differential conformance: the IR against a closed-form reference and
the full invariant battery, over seeded random pipeline instances.

Two properties, each run over :mod:`repro.check.generators` cases:

1. **Bit-identity** — ``Dapple1F1BSchedule`` and ``GPipeSchedule`` emit
   exactly the task streams of the closed-form reference below (paper
   Fig. 3), for every random ``(S, M, policy, D)`` tuple.  The executor
   lowers these streams directly, so any drift here would change every
   committed result table.
2. **Battery** — every registered schedule, executed on a generated case,
   passes ``check_execution`` with zero violations on both simulation
   engines.

The tier-1 leg samples a small fixed seed range; the ``slow`` leg widens
it and adds hypothesis-driven search with shrinking.
"""

import pytest

from repro.check import verify_execution
from repro.check.generators import generate_cases, random_case
from repro.schedules import (
    Backward,
    Dapple1F1BSchedule,
    Forward,
    GPipeSchedule,
    schedule_names,
)

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    HAVE_HYPOTHESIS = False

needs_hypothesis = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed"
)


def one_f_one_b(m, k):
    """One stage's 1F1B stream: K warm-up forwards, B/F pairs, B tail."""
    return (
        [Forward(mb) for mb in range(k)]
        + [t for mb in range(m - k) for t in (Backward(mb), Forward(mb + k))]
        + [Backward(mb) for mb in range(m - k, m)]
    )


def reference_1f1b(s, m, policy="PA", cap=None):
    """Closed-form DAPPLE streams (paper Fig. 3b, §V-C): stage ``i`` warms
    up with ``Ki = min(S-i, D)`` (PA) or ``min(2(S-i)-1, D)`` (PB)
    forwards, clamped to ``[1, M]``."""
    d = m if cap is None else cap
    depth = (lambda i: s - i) if policy == "PA" else (lambda i: 2 * (s - i) - 1)
    return [one_f_one_b(m, max(1, min(depth(i), d, m))) for i in range(s)]


def reference_gpipe(s, m):
    """Closed-form GPipe streams (paper Fig. 3a): all F, then B reversed."""
    return [
        [Forward(mb) for mb in range(m)] + [Backward(mb) for mb in reversed(range(m))]
        for _ in range(s)
    ]


def _ir_equals_reference(s, m, policy, cap):
    ir = Dapple1F1BSchedule(s, m, warmup_policy=policy, max_in_memory=cap)
    assert ir.streams() == reference_1f1b(s, m, policy, cap), (
        f"IR stream diverged from the closed-form 1F1B reference at "
        f"S={s} M={m} policy={policy} D={cap}"
    )
    assert GPipeSchedule(s, m).streams() == reference_gpipe(s, m)


class TestDappleBitIdentity:
    @pytest.mark.parametrize("policy", ["PA", "PB"])
    def test_exhaustive_small(self, policy):
        for s in range(1, 7):
            for m in range(1, 13):
                for cap in (None, 1, 2, s, m):
                    _ir_equals_reference(s, m, policy, cap)

    def test_generated_cases(self):
        for case in generate_cases(25, base_seed=100):
            plan = case.plan
            _ir_equals_reference(
                plan.num_stages, plan.num_micro_batches, case.warmup_policy, None
            )

    @needs_hypothesis
    def test_property(self):
        @settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(
            s=st.integers(min_value=1, max_value=10),
            m=st.integers(min_value=1, max_value=24),
            policy=st.sampled_from(["PA", "PB"]),
            cap=st.one_of(st.none(), st.integers(min_value=1, max_value=24)),
        )
        def prop(s, m, policy, cap):
            _ir_equals_reference(s, m, policy, cap)

        prop()

    @pytest.mark.slow
    @needs_hypothesis
    def test_property_wide(self):
        @settings(max_examples=400, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(
            s=st.integers(min_value=1, max_value=24),
            m=st.integers(min_value=1, max_value=64),
            policy=st.sampled_from(["PA", "PB"]),
            cap=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
        )
        def prop(s, m, policy, cap):
            _ir_equals_reference(s, m, policy, cap)

        prop()


def _specs_for(case):
    """Registry specs executable on this generated case's plan."""
    specs = []
    for name in schedule_names():
        if name == "interleaved":
            # Generated plans are not interleaved-placed; the interleaved
            # battery runs on purpose-built plans in the executor tests.
            continue
        specs.append(name)
    return specs


def _battery(case, spec, engine):
    report = verify_execution(
        case.profile, case.cluster, case.plan,
        schedule=spec, warmup_policy=case.warmup_policy, engine=engine,
    )
    assert report.ok, f"{spec} on {case!r}:\n{report.render()}"
    assert "bw-order" in report.checks
    assert "ir-high-water" in report.checks


class TestRegisteredSchedulesConform:
    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_generated_cases_all_schedules(self, engine):
        for case in generate_cases(6, base_seed=0):
            for spec in _specs_for(case):
                _battery(case, spec, engine)

    def test_zb2bp_fraction_sweep(self):
        case = random_case(3)
        for w in (0.25, 0.5, 0.75):
            _battery(case, f"zb2bp:w={w}", "compiled")

    @pytest.mark.slow
    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_generated_cases_wide(self, engine):
        for case in generate_cases(40, base_seed=1000):
            for spec in _specs_for(case):
                _battery(case, spec, engine)

    @pytest.mark.slow
    @needs_hypothesis
    def test_property_battery(self):
        from repro.check.generators import case_strategy

        @settings(max_examples=30, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow,
                                         HealthCheck.data_too_large])
        @given(case=case_strategy(max_seed=5000))
        def prop(case):
            for spec in _specs_for(case):
                _battery(case, spec, "compiled")

        prop()
