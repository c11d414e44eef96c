"""Table I: activation-vs-gradient traffic volume."""

from repro.experiments import run_experiment


def test_table1_traffic(once):
    rows = once(run_experiment, "table1")
    for r in rows:
        # The paper's central asymmetry: gradients dwarf boundary
        # activations by orders of magnitude for every benchmark.
        assert r.gradient_bytes > 20 * r.activation_bytes
        if r.paper_gradient_bytes:
            assert abs(r.gradient_bytes - r.paper_gradient_bytes) / r.paper_gradient_bytes < 0.2
