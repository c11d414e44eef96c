"""Table III: the calibrated hardware configurations."""

from repro.experiments import run_experiment


def test_table3_configs(once):
    rows = once(run_experiment, "table3")
    by = {r.config: r for r in rows}
    # Paper's Table III shape: A = 8 GPUs/server + NVLink + 25GbE;
    # B = 1 GPU/server + 25GbE; C = 1 GPU/server + 10GbE.
    assert by["A"].gpus_per_machine == 8
    assert by["B"].gpus_per_machine == 1
    assert by["C"].gpus_per_machine == 1
    assert by["A"].intra_bandwidth > 40 * by["A"].inter_bandwidth
    assert by["B"].inter_bandwidth == by["A"].inter_bandwidth
    assert by["C"].inter_bandwidth < by["B"].inter_bandwidth
    # All three expose the paper's 16 GB V100.
    for r in rows:
        assert r.gpu == "V100"
        assert r.gpu_memory_bytes == 16 * 2**30
