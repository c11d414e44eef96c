"""Table VIII: weak scaling — maximum BERT depth per pipeline size."""

from repro.experiments import run_experiment


def test_table8_weak_scaling(once):
    rows = once(run_experiment, "table8")
    by_p = {r.pipeline_devices: r for r in rows}

    # Depth grows monotonically with pipeline size...
    depths = [by_p[p].max_layers for p in (1, 2, 4, 8)]
    assert depths == sorted(depths)

    # ...approximately linearly (BERT's params distribute evenly).
    per_dev = [by_p[p].max_layers / p for p in (1, 2, 4, 8)]
    assert max(per_dev) / min(per_dev) < 1.15

    # Within 30 % of the paper's absolute depths (48/106/215/428) — our
    # stored-activation calibration is slightly lighter, so all pipeline
    # sizes fit ~13 % more layers, uniformly.
    for p, r in by_p.items():
        assert abs(r.max_layers - r.paper_max_layers) / r.paper_max_layers <= 0.30

    # Multi-billion-parameter models fit an 8-GPU pipeline (paper: 5.5B).
    assert by_p[8].params > 4e9

    # Utilization dips only slightly as the pipeline deepens.
    assert by_p[8].avg_gpu_utilization > 0.8
    assert by_p[1].avg_gpu_utilization >= by_p[8].avg_gpu_utilization
