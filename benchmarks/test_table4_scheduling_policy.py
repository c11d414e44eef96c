"""Table IV: warm-up policy PB vs PA throughput on Config-A."""

from repro.experiments import run_experiment


def test_table4_scheduling_policy(once):
    rows = once(run_experiment, "table4")
    by_model = {r.model: r for r in rows}
    # PB never loses (it only adds warm-up depth).
    for r in rows:
        assert r.speedup >= 0.99
    # The high-ACR model (GNMT) gains the most, the low-ACR transformers
    # the least — the paper's Table IV ordering.
    assert by_model["GNMT-16"].speedup >= by_model["BERT-48"].speedup
    assert by_model["GNMT-16"].speedup > 1.1
