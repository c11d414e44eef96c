"""Table II: benchmark model inventory and profiling memory cost."""

from repro.experiments import run_experiment


def test_table2_models(once):
    rows = once(run_experiment, "table2")
    for r in rows:
        assert abs(r.params - r.paper_params) / r.paper_params < 0.10
        assert abs(r.memory_bytes - r.paper_memory_bytes) / r.paper_memory_bytes < 0.30
