"""Table VII / Fig. 13: DAPPLE planner vs PipeDream planner on 2x8 and 4x8.

The ``advantage`` column is Fig. 13's number: DAPPLE-plan throughput
normalized to the PipeDream plan, both executed on the DAPPLE runtime.
"""

from repro.experiments import run_experiment


def test_table7_strategy_comparison(once):
    rows = once(run_experiment, "table7")

    # Table VII (2x8): DAPPLE's strategies win under synchronous
    # evaluation (§VI-F), and by a meaningful margin somewhere (paper:
    # up to 3.23x).
    two = [r for r in rows if r.machines == 2]
    for r in two:
        assert r.advantage >= 1.0, f"{r.model}: PipeDream won ({r.advantage:.2f}x)"
    assert max(r.advantage for r in two) > 1.3

    # Fig. 13: DAPPLE's strategy wins (or ties within noise) on every
    # model and both cluster sizes, and wins clearly somewhere.
    for r in rows:
        assert r.advantage >= 0.97
    assert max(r.advantage for r in rows) > 1.2

    # Larger clusters give DAPPLE at least comparable absolute speedups.
    by_model: dict = {}
    for r in rows:
        by_model.setdefault(r.model, {})[r.machines] = r
    for model, per in by_model.items():
        if model == "AmoebaNet-36":
            # Comm-bound at 1-sample micro-batches: 11.2 MB boundary per
            # micro-batch saturates 25 GbE regardless of cluster size.
            continue
        if 2 in per and 4 in per:
            assert per[4].dapple_speedup >= per[2].dapple_speedup * 0.9
