"""Interconnect sweep: DP↔pipeline crossovers vs network speed."""

from repro.experiments import run_experiment


def test_bandwidth_sweep(once):
    points = once(run_experiment, "bandwidth_sweep")

    def kinds(model):
        return {p.gbps: p.kind for p in points if p.model == model}

    # ResNet-50: tiny gradients + heavy compute -> DP at every speed
    # (generalizes Table V's DP/DP/DP row).
    assert set(kinds("ResNet-50").values()) == {"DP"}

    # VGG-19 and GNMT-16: pipelines on slow networks, DP once the network
    # is fast enough (the Config B->C flip, extended).
    for model in ("VGG-19", "GNMT-16"):
        k = kinds(model)
        assert k[1.0] != "DP", f"{model} should pipeline at 1 Gbps"
        assert k[100.0] == "DP", f"{model} should go DP at 100 Gbps"

    # Hybrid advantage shrinks monotonically-ish as bandwidth grows.
    for model in ("VGG-19", "GNMT-16"):
        adv = [
            p.hybrid_advantage
            for p in sorted(
                (p for p in points if p.model == model), key=lambda p: p.gbps
            )
            if p.hybrid_advantage is not None
        ]
        assert adv[0] > adv[-1]
        assert adv[0] > 1.5
