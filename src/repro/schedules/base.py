"""`PipeSchedule` — the abstract schedule IR the runtime consumes.

A :class:`PipeSchedule` describes *one training iteration* of an
``S``-stage pipeline over ``M`` micro-batches as ``S`` ordered streams of
typed :class:`~repro.schedules.tasks.PipeTask` objects (generator-style,
after neuronx-distributed's ``PipeSchedule`` ABC).  The runtime
(:class:`~repro.runtime.executor.PipelineExecutor`) lowers the compute
tasks of each stream into simulator ops and control-dependency chains;
everything else — conformance checking, memory prediction, bubble
accounting — queries the IR directly:

* :meth:`steps` — generator of one stage's full stream, communication
  markers included;
* :meth:`stage_tasks` / :meth:`streams` — the cached compute-task list per
  stage (what the executor lowers);
* :meth:`num_virtual_stages` — total stages the schedule addresses (for
  interleaved schedules this counts virtual stages, i.e. chunks x devices);
* :meth:`memory_high_water` — per-stage peak count of concurrently
  resident micro-batches, *declared by the IR*; the conformance battery
  cross-checks it against the simulated
  :class:`~repro.sim.trace.MemoryTimeline` so IR and runtime cannot drift.

Subclasses implement :meth:`stage_stream` (and optionally
:meth:`stage_priorities` to impose a device-level order across virtual
stages sharing a device).

The module also holds the helpers that check and measure one stage's
stream: stage-local legality (:func:`validate_schedule`), the warm-up
prefix, and the peak number of resident micro-batches.  Warm-up counts
(:func:`warmup_counts`) implement the paper's two early-backward policies
(§V-C):

* **PA**: ``Ki = min(S − i, D)`` — for workloads with negligible
  cross-stage communication (low ACR);
* **PB**: ``Ki = min(2·(S − i) − 1, D)`` — twice the in-flight forwards, to
  saturate pipelines whose cross-stage communication is comparable to
  compute (high ACR).

``D`` is the device-memory cap on concurrently-resident micro-batches.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, Sequence

from repro.schedules.tasks import PipeTask, RecvAct, RecvGrad, SendAct, SendGrad

__all__ = [
    "PipeSchedule",
    "warmup_counts",
    "validate_schedule",
    "warmup_prefix_length",
    "max_resident_micro_batches",
]


class PipeSchedule(ABC):
    """Directs pipeline execution by generating per-stage task streams.

    Parameters
    ----------
    num_stages:
        Number of (virtual) pipeline stages the schedule addresses.
    num_micro_batches:
        Micro-batches ``M`` in one training iteration.
    """

    #: Registry name of the schedule family (set by subclasses).
    name: str = "?"
    #: Fraction of the combined backward spent in the grad-weight phase —
    #: only consulted for schedules that emit split BI/BW tasks.
    backward_weight_fraction: float = 0.5

    def __init__(self, num_stages: int, num_micro_batches: int):
        if num_stages < 1:
            raise ValueError(f"need >=1 stage, got {num_stages}")
        if num_micro_batches < 1:
            raise ValueError(f"need >=1 micro-batch, got {num_micro_batches}")
        self.num_stages = num_stages
        self.num_micro_batches = num_micro_batches
        self._streams: dict[int, list[PipeTask]] = {}

    # ------------------------------------------------------------------ #
    # The abstract core
    # ------------------------------------------------------------------ #
    @abstractmethod
    def stage_stream(self, stage: int) -> Iterator[PipeTask]:
        """Yield the ordered compute tasks of ``stage`` (F/B/BI/BW only)."""

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def stage_tasks(self, stage: int) -> list[PipeTask]:
        """The (cached) compute-task list of one stage's stream."""
        if stage not in self._streams:
            if not 0 <= stage < self.num_stages:
                raise ValueError(
                    f"stage {stage} out of range [0, {self.num_stages})"
                )
            self._streams[stage] = list(self.stage_stream(stage))
        return self._streams[stage]

    def streams(self) -> list[list[PipeTask]]:
        """Every stage's compute-task list, in stage order."""
        return [self.stage_tasks(i) for i in range(self.num_stages)]

    def steps(self, stage: int) -> Iterator[PipeTask]:
        """Generate one stage's full stream, communication markers included.

        Around every compute task the generator interpolates the transfer
        markers that stage position implies: interior stages receive
        activations before each F and send them on after, receive output
        gradients before each backward(-input) and send input gradients
        upstream after.  The runtime derives real transfer ops from data
        dependencies instead; this view exists for analysis and rendering.
        """
        first, last = stage == 0, stage == self.num_stages - 1
        for t in self.stage_tasks(stage):
            if t.kind == "F":
                if not first:
                    yield RecvAct(t.micro_batch)
                yield t
                if not last:
                    yield SendAct(t.micro_batch)
            elif t.kind in ("B", "BI"):
                if not last:
                    yield RecvGrad(t.micro_batch)
                yield t
                if not first and t.kind == "B":
                    yield SendGrad(t.micro_batch)
            else:  # BW — local to the stage
                yield t
            if t.kind == "BI" and not first:
                yield SendGrad(t.micro_batch)

    def num_virtual_stages(self) -> int:
        """Total (virtual) stages addressed — chunks x devices if interleaved."""
        return self.num_stages

    def memory_high_water(self) -> list[int]:
        """Per-stage peak count of concurrently resident micro-batches.

        A micro-batch is resident from its F until its releasing backward
        (B, or BW for split backwards).  The conformance battery checks
        the simulated memory timeline against the bound this declares.
        """
        return [max_resident_micro_batches(t) for t in self.streams()]

    def stage_priorities(self, stage: int) -> Sequence[float] | None:
        """Optional dispatch priorities per task of one stage's stream.

        ``None`` (the default) means "stream position" — correct whenever
        each stage owns its devices.  Interleaved schedules override this
        with device-level positions so virtual stages sharing a device
        interleave in the intended global order.
        """
        return None

    def validate(self) -> None:
        """Raise ``ValueError`` on an illegal stream (see ``validate_schedule``)."""
        validate_schedule(self.streams(), self.num_micro_batches)

    def describe(self) -> str:
        """One-line human description for CLI/help output."""
        return (
            f"{self.name}: S={self.num_stages} stages, "
            f"M={self.num_micro_batches} micro-batches, "
            f"high-water {self.memory_high_water()}"
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(num_stages={self.num_stages}, "
            f"num_micro_batches={self.num_micro_batches})"
        )


# --------------------------------------------------------------------- #
# Helpers over per-stage task streams
# --------------------------------------------------------------------- #
def warmup_counts(
    num_stages: int,
    num_micro_batches: int,
    policy: str = "PA",
    max_in_memory: int | None = None,
) -> list[int]:
    """Per-stage warm-up forward counts ``Ki`` (paper §V-C policies PA/PB)."""
    if num_stages < 1:
        raise ValueError(f"need >=1 stage, got {num_stages}")
    if num_micro_batches < 1:
        raise ValueError(f"need >=1 micro-batch, got {num_micro_batches}")
    d = max_in_memory if max_in_memory is not None else num_micro_batches
    if d < 1:
        raise ValueError(f"memory cap D must be >=1, got {d}")
    out = []
    for i in range(num_stages):
        if policy == "PA":
            k = num_stages - i
        elif policy == "PB":
            k = 2 * (num_stages - i) - 1
        else:
            raise ValueError(f"unknown warm-up policy {policy!r} (PA or PB)")
        out.append(max(1, min(k, d, num_micro_batches)))
    return out


def validate_schedule(
    streams: Sequence[Sequence[PipeTask]], num_micro_batches: int
) -> None:
    """Check per-stage streams are complete and stage-locally causal.

    Every stage must run F of every micro-batch exactly once, plus either
    one combined backward B or a split BI→BW pair; a micro-batch's
    backward (phase) may not precede its forward on the same stage, nor
    its BW precede its BI, and a stage may not mix B with BI/BW for the
    same micro-batch.

    Raises
    ------
    ValueError
        On any violation.
    """
    want = set(range(num_micro_batches))
    for sid, tasks in enumerate(streams):
        seen: dict[str, set[int]] = {"F": set(), "B": set(), "BI": set(), "BW": set()}
        for t in tasks:
            kind, mb = t.kind, t.micro_batch
            if kind not in seen:
                raise ValueError(f"stage {sid}: unknown task kind {kind!r}")
            if mb in seen[kind]:
                raise ValueError(f"stage {sid}: duplicate {t!r}")
            if kind != "F":
                mixed = (
                    (mb in seen["BI"] or mb in seen["BW"]) if kind == "B"
                    else mb in seen["B"]
                )
                if mixed:
                    raise ValueError(
                        f"stage {sid}: {t!r} mixes combined and split backward"
                    )
                if kind == "BW" and mb not in seen["BI"]:
                    raise ValueError(
                        f"stage {sid}: {t!r} before its grad-input phase BI{mb}"
                    )
                if kind != "BW" and mb not in seen["F"]:
                    raise ValueError(f"stage {sid}: {t!r} before its forward")
            seen[kind].add(mb)
        if seen["BI"] != seen["BW"]:
            raise ValueError(
                f"stage {sid}: split backward incomplete "
                f"(BI={sorted(seen['BI'])}, BW={sorted(seen['BW'])})"
            )
        done_b = seen["B"] | seen["BI"]
        if seen["F"] != want or done_b != want:
            raise ValueError(
                f"stage {sid}: incomplete schedule (F={sorted(seen['F'])}, "
                f"B={sorted(done_b)}, expected {num_micro_batches})"
            )


def warmup_prefix_length(tasks: Sequence[PipeTask]) -> int:
    """Number of forwards injected before the first backward.

    For a 1F1B schedule this is the stage's warm-up depth ``Ki``; the
    conformance checker (:mod:`repro.check.invariants`) compares it against
    the policy formula ``min(S−i, D)`` / ``min(2(S−i)−1, D)``.
    """
    k = 0
    for t in tasks:
        if t.kind != "F":
            break
        k += 1
    return k


def max_resident_micro_batches(tasks: Sequence[PipeTask]) -> int:
    """Peak number of micro-batches whose activations are live at once.

    A micro-batch's activations go live at its F and are released at its
    releasing backward — the combined B, or the grad-weight phase BW when
    the backward is split (2BP): BI still *reads* the activations, so only
    BW frees them.  This is the quantity DAPPLE's early-backward
    scheduling bounds by ``Ki``.
    """
    live = 0
    peak = 0
    for t in tasks:
        if t.kind == "F":
            live += 1
            peak = max(peak, live)
        elif t.kind in ("B", "BW"):
            live -= 1
    return peak
