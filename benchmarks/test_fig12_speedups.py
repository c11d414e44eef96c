"""Fig. 12: training speedup vs global batch size, 5 models x 3 configs."""

import math

from repro.experiments import run_experiment


def test_fig12_speedups(once):
    points = once(run_experiment, "fig12")

    def pick(model, cfg, gbs):
        return next(
            p for p in points if (p.model, p.config, p.gbs) == (model, cfg, gbs)
        )

    # Speedups grow with GBS for every (model, config) series.
    by_series: dict = {}
    for p in points:
        by_series.setdefault((p.model, p.config), []).append(p)
    for series in by_series.values():
        series.sort(key=lambda p: p.gbs)
        hybrids = [p.best_hybrid for p in series]
        assert hybrids[-1] >= hybrids[0] * 0.95

    # The hybrid never loses badly to the best DP arm, and wins big on the
    # slow flat network (paper: up to 2.32x for GNMT on config C).
    for p in points:
        best_dp = max(
            (x for x in (p.dp_no_overlap, p.dp_overlap) if not math.isnan(x)),
            default=float("nan"),
        )
        if not math.isnan(best_dp):
            assert p.best_hybrid > 0.9 * best_dp
    gnmt_c = pick("gnmt16", "C", 1024)
    assert gnmt_c.best_hybrid / gnmt_c.dp_overlap > 1.8

    # AmoebaNet-36 cannot run data parallel at all (OOM on one device).
    for p in points:
        if p.model == "amoebanet36":
            assert math.isnan(p.dp_no_overlap) and math.isnan(p.dp_overlap)

    # DP-with-overlap is never slower than DP-without.
    for p in points:
        if not math.isnan(p.dp_no_overlap):
            assert p.dp_overlap >= p.dp_no_overlap - 1e-9
