"""Fig. 4: warm-up / steady / ending phase decomposition."""

import pytest

from repro.experiments import run_experiment


def test_fig4_phase_decomposition(once):
    r = once(run_experiment, "fig4")
    # The analytic eq. 1 decomposition tracks the simulated phases.
    assert r.analytic_total == pytest.approx(r.measured_total, rel=0.15)
    assert r.analytic_steady == pytest.approx(r.measured_steady, rel=0.15)
    # Steady dominates at M=8 (the trapezoid of the paper's figure).
    assert r.measured_steady > r.measured_warmup
    assert r.measured_steady > r.measured_ending
