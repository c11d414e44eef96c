"""Seeded random pipeline/cluster instance generators.

The differential oracles and property tests should not only run over the
nine zoo models — those share one construction idiom and would miss whole
classes of bugs (odd layer counts, tiny device sets, non-uniform stage
cuts, M=1 pipelines).  This module derives a full random test case —
synthetic uniform-layer model, hierarchical cluster, hand-cut hybrid plan
— from a single integer seed, so every generated instance is reproducible
from the seed alone.

Two entry styles:

* :func:`random_case` / :func:`generate_cases` — plain ``random.Random``
  generation, no third-party dependency, used by the ``repro check
  --generated N`` CLI path.
* :func:`case_strategy` / :func:`schedule_strategy` — hypothesis
  strategies (seeds mapped through the same generators, so hypothesis
  shrinks to the smallest failing *seed*); importing them raises only
  when hypothesis is genuinely missing.

Hand-built task lists run through the executor wrapped in an
:class:`ExplicitSchedule`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cluster.configs import config_by_name
from repro.core.plan import ParallelPlan, Stage
from repro.core.profiler import profile_model
from repro.models.graph import uniform_model
from repro.schedules import Backward, Forward, PipeSchedule, PipeTask

__all__ = [
    "GeneratedCase",
    "ExplicitSchedule",
    "random_case",
    "generate_cases",
    "random_schedule",
    "case_strategy",
    "schedule_strategy",
]

#: Cluster flavours the generator samples from.
CONFIG_NAMES = ("A", "B", "C")


@dataclass
class GeneratedCase:
    """One reproducible random pipeline instance."""

    seed: int
    profile: object
    cluster: object
    plan: ParallelPlan
    warmup_policy: str = "PA"
    meta: dict = field(default_factory=dict)

    def __repr__(self) -> str:
        return (
            f"GeneratedCase(seed={self.seed}, "
            f"model={self.plan.model.name}, plan={self.plan.notation}, "
            f"M={self.plan.num_micro_batches}, policy={self.warmup_policy})"
        )


def _random_plan(rng: random.Random, model, cluster) -> ParallelPlan:
    devices = cluster.devices
    n_dev = len(devices)
    n_layers = model.num_layers
    s = rng.randint(1, min(4, n_layers, n_dev))
    # Contiguous layer cuts: S-1 distinct interior boundaries.
    cuts = sorted(rng.sample(range(1, n_layers), s - 1)) if s > 1 else []
    bounds = [0, *cuts, n_layers]
    # Device split: every stage gets >=1 device, leftovers to early stages.
    sizes = [1] * s
    for _ in range(n_dev - s):
        if rng.random() < 0.7:  # leave some devices idle sometimes
            sizes[rng.randrange(s)] += 1
    offsets = [0]
    for sz in sizes:
        offsets.append(offsets[-1] + sz)
    stages = [
        Stage(bounds[i], bounds[i + 1],
              tuple(devices[offsets[i]:offsets[i + 1]]))
        for i in range(s)
    ]
    m = rng.choice((1, 2, 3, 4, 6, 8))
    mbs = rng.choice((1, 2, 4))
    return ParallelPlan(
        model=model,
        stages=stages,
        global_batch_size=m * mbs,
        num_micro_batches=m,
    )


def random_case(seed: int) -> GeneratedCase:
    """Derive one model+cluster+plan instance from ``seed``.

    Byte sizes are kept far below device capacity so every generated case
    is memory-feasible under the default ``enforce_memory=True`` path —
    the point is schedule/graph diversity, not OOM testing.
    """
    rng = random.Random(seed)
    n_layers = rng.randint(2, 12)
    model = uniform_model(
        name=f"gen{seed}",
        num_layers=n_layers,
        flops_per_layer=rng.uniform(1e9, 5e10),
        params_per_layer=rng.randint(10_000, 2_000_000),
        activation_bytes=rng.uniform(1e5, 1e7),
        profile_batch=1,
        optimizer=rng.choice(("adam", "sgd")),
    )
    config = rng.choice(CONFIG_NAMES)
    # Config A packs 8 GPUs per server; B/C take any device count.
    n_dev = 8 if config == "A" else rng.choice((2, 4, 8))
    cluster = config_by_name(config, num_devices=n_dev)
    profile = profile_model(model, cluster.devices[0].spec)
    plan = _random_plan(rng, model, cluster)
    return GeneratedCase(
        seed=seed,
        profile=profile,
        cluster=cluster,
        plan=plan,
        warmup_policy=rng.choice(("PA", "PB")),
    )


def generate_cases(n: int, base_seed: int = 0) -> list[GeneratedCase]:
    """``n`` reproducible cases: seeds ``base_seed .. base_seed+n-1``."""
    return [random_case(base_seed + i) for i in range(n)]


class ExplicitSchedule(PipeSchedule):
    """A :class:`PipeSchedule` over caller-given per-stage task lists."""

    name = "explicit"

    def __init__(self, streams, num_micro_batches: int):
        super().__init__(len(streams), num_micro_batches)
        self._given = [list(tasks) for tasks in streams]

    def stage_stream(self, stage: int):
        return iter(self._given[stage])


def random_schedule(num_micro_batches: int, rng: random.Random) -> list[PipeTask]:
    """A random *valid* single-stage schedule over ``num_micro_batches``.

    Uniformly interleaves forwards and backwards subject to the stage-local
    causality rule (``validate_schedule``): each micro-batch's B follows its
    F, forwards issue in FIFO order.  Cross-stage deadlock-freedom is NOT
    guaranteed — use per stage (memory property tests), not as a full
    executor schedule.
    """
    tasks: list[PipeTask] = []
    next_f = 0
    pending_b: list[int] = []
    while next_f < num_micro_batches or pending_b:
        can_f = next_f < num_micro_batches
        if can_f and (not pending_b or rng.random() < 0.5):
            tasks.append(Forward(next_f))
            pending_b.append(next_f)
            next_f += 1
        else:
            tasks.append(Backward(pending_b.pop(0)))
    return tasks


# --------------------------------------------------------------------- #
# Hypothesis strategies (optional dependency, resolved at call time)
# --------------------------------------------------------------------- #
def case_strategy(max_seed: int = 10_000):
    """Hypothesis strategy over :func:`random_case` instances.

    Seeds are the search space, so hypothesis shrinks a failure to the
    smallest failing seed — directly reusable via ``random_case(seed)``.
    """
    from hypothesis import strategies as st

    return st.integers(min_value=0, max_value=max_seed).map(random_case)


def schedule_strategy(max_micro_batches: int = 12):
    """Hypothesis strategy over random valid single-stage schedules."""
    from hypothesis import strategies as st

    return st.tuples(
        st.integers(min_value=1, max_value=max_micro_batches),
        st.integers(min_value=0, max_value=2**32 - 1),
    ).map(lambda t: random_schedule(t[0], random.Random(t[1])))
