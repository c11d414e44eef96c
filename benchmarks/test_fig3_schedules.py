"""Fig. 3: GPipe vs DAPPLE schedule shapes and memory-over-time curves."""

import pytest

from repro.experiments import fig3, run_experiment


def test_fig3_schedules(once):
    res = once(run_experiment, "fig3")

    # Same bubbles: identical makespans under the PB warm-up (paper §III-B
    # "DAPPLE introduces the exact same bubble time as GPipe").
    assert res.dapple.iteration_time == pytest.approx(
        res.gpipe.iteration_time, rel=0.02
    )

    # But a much lower first-stage memory peak (Fig. 3c).
    assert res.memory_saving < 0.8

    # GPipe's peak occurs mid-iteration after all forwards; DAPPLE's
    # plateau is reached during warm-up and never grows.
    gp_t, gp_u = res.gpipe.memory.curve("gpu:0", num_points=100)
    da_t, da_u = res.dapple.memory.curve("gpu:0", num_points=100)
    assert gp_u.max() > da_u.max()


def test_fig3_memory_flat_vs_m(once):
    def peaks():
        out = []
        for m in (5, 7, 11):
            r = fig3.run(num_micro_batches=m)
            out.append((r.gpipe.memory.peak("gpu:0"), r.dapple.memory.peak("gpu:0")))
        return out

    rows = once(peaks)
    gpipe_peaks = [g for g, _ in rows]
    dapple_peaks = [d for _, d in rows]
    assert gpipe_peaks == sorted(gpipe_peaks) and gpipe_peaks[0] < gpipe_peaks[-1]
    assert max(dapple_peaks) == pytest.approx(min(dapple_peaks), rel=1e-9)
