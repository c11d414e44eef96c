"""Fig. 14: strong scaling on Config-A with fixed global batch size."""

import math

from repro.experiments import run_experiment


def test_fig14_strong_scaling(once):
    points = once(run_experiment, "fig14")

    by_model: dict = {}
    for p in points:
        by_model.setdefault(p.model, {})[p.num_gpus] = p

    for model in ("gnmt16", "bert48", "xlnet36"):
        per = by_model[model]
        counts = sorted(per)
        hybrids = [per[n].best_hybrid for n in counts]
        # Hybrid speedup grows with device count for the language models.
        # (AmoebaNet is exempt: its 11.2 MB/sample boundary activations at
        # 1-sample micro-batches make the single-NVLink-machine 8-GPU point
        # a local optimum before crossing to 25 GbE.)
        assert hybrids == sorted(hybrids), f"{model}: hybrid not monotone {hybrids}"

    # The paper's §VI-G kink: DP scalability stalls crossing the machine
    # boundary (8 -> 12 GPUs) while the hybrid keeps scaling.
    for model in ("bert48", "xlnet36", "gnmt16"):
        per = by_model[model]
        dp_gain = per[12].dp_overlap / per[8].dp_overlap
        hybrid_gain = per[12].best_hybrid / per[8].best_hybrid
        assert hybrid_gain > dp_gain

    # AmoebaNet has no DP arm at any scale.
    for p in points:
        if p.model == "amoebanet36":
            assert math.isnan(p.dp_overlap)

    # Hybrid is at least competitive with DP everywhere, and strictly
    # better at 16 GPUs for the big language models.
    for model in ("bert48", "xlnet36"):
        per = by_model[model]
        assert per[16].best_hybrid > per[16].dp_overlap
