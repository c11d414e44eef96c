"""Convergence preservation: the paper's §VI-A equivalence claim."""

from repro.experiments import run_experiment


def test_convergence_equivalence(once):
    r = once(run_experiment, "convergence")
    # All three training modes follow the *same* loss trajectory...
    for a, b, c in zip(r.losses_sequential, r.losses_pipeline, r.losses_dp):
        assert abs(a - b) < 1e-9
        assert abs(a - c) < 1e-9
    # ...and actually learn something.
    assert r.losses_sequential[-1] < r.losses_sequential[0] * 0.5
    # Parameters agree to float64 epsilon scale.
    assert r.max_param_deviation < 1e-10
