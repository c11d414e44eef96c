"""Table VI: DAPPLE vs GPipe throughput and peak memory on BERT-48."""

from repro.experiments import run_experiment


def test_table6_gpipe_comparison(once):
    rows = once(run_experiment, "table6")

    def pick(system, m):
        return next(r for r in rows if r.system == system and r.num_micro_batches == m)

    # GPipe peak memory grows with M and eventually OOMs.
    assert pick("GPipe", 2).avg_peak_memory < pick("GPipe", 5).avg_peak_memory
    assert pick("GPipe", 8).oom

    # DAPPLE's peak memory is independent of M (early backward bound).
    da = [pick("DAPPLE", m) for m in (2, 8, 16)]
    assert max(r.avg_peak_memory for r in da) - min(r.avg_peak_memory for r in da) < 1e6

    # DAPPLE at M=16 beats every GPipe point on throughput with less memory
    # than GPipe's last non-OOM point (paper: 1.6x speedup at 0.88x memory
    # vs GPipe's M=2 ceiling; our calibrated activations let GPipe survive
    # to M=5, so the margin over *best* GPipe is smaller but still strict).
    best_gpipe = max((r for r in rows if r.system == "GPipe" and not r.oom),
                     key=lambda r: r.throughput)
    assert pick("DAPPLE", 16).throughput > 1.3 * pick("GPipe", 2).throughput
    assert pick("DAPPLE", 16).throughput > 1.05 * best_gpipe.throughput
    assert pick("DAPPLE", 16).avg_peak_memory < best_gpipe.avg_peak_memory

    # Re-computation costs ~20-30 % throughput on either schedule.
    for system in ("GPipe", "DAPPLE"):
        base = pick(system, 2)
        rc = pick(f"{system}+RC", 2)
        assert 0.6 < rc.throughput / base.throughput < 0.9

    # DAPPLE+RC is the smallest footprint of all configurations.
    smallest = min(r.avg_peak_memory for r in rows if not r.oom)
    assert pick("DAPPLE+RC", 16).avg_peak_memory == smallest
