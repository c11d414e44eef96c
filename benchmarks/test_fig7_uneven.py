"""Fig. 7: slightly uneven partitions beat the even split at small M."""

from repro.experiments import fig7, run_experiment


def test_fig7_uneven_partitioning(once):
    rows = once(run_experiment, "fig7")
    best = fig7.best_split(rows)
    even = min(rows, key=lambda r: abs(r.layers_stage0 - r.layers_stage1))
    # The winner is an uneven split, strictly faster than the even one.
    assert best.layers_stage0 != best.layers_stage1
    assert best.latency < even.latency

    # At larger M the steady phase dominates and the even split recovers.
    rows_big_m = fig7.run(num_micro_batches=16)
    best_big = fig7.best_split(rows_big_m)
    assert abs(best_big.layers_stage0 - best_big.layers_stage1) <= 1
