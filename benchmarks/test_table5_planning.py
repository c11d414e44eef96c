"""Table V: DAPPLE planning results for all six models on configs A/B/C."""

from repro.experiments import run_experiment


def test_table5_planning(once):
    rows = once(run_experiment, "table5")

    by_key = {(r.model, r.config): r for r in rows}

    # ResNet-50: DP everywhere (small gradients, dense compute).
    for cfg in "ABC":
        assert by_key[("ResNet-50", cfg)].free_plan == "DP"

    # Big language models on Config-A land on the hierarchical two-stage
    # 8:8-style hybrid in the paper family.
    for model in ("GNMT-16", "BERT-48", "XLNet-36"):
        fam = by_key[(model, "A")].family_plan
        assert fam not in ("DP", "straight")

    # AmoebaNet cannot run data-parallel (OOM on one device).
    for cfg in "ABC":
        assert by_key[("AmoebaNet-36", cfg)].free_plan != "DP"

    # Overall agreement with the paper's published plans.
    matches = sum(r.matches_paper for r in rows)
    assert matches >= 10, f"only {matches}/18 plans match the paper"


def test_planner_search_speed(benchmark):
    """The paper claims planning is 'offline … within a few seconds'."""
    from repro.core import Planner
    from repro.experiments.common import cluster, profile

    prof = profile("gnmt16")
    clu = cluster("A")
    result = benchmark(lambda: Planner(prof, clu, 1024).search())
    assert result.plan is not None
