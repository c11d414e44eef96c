"""Typed pipeline-schedule IR and the schedule registry.

``repro.schedules`` is the single place schedules live: the task
vocabulary (:mod:`~repro.schedules.tasks`), the :class:`PipeSchedule`
abstract IR and the helpers over its per-stage task streams
(:mod:`~repro.schedules.base`), four concrete schedules
(:mod:`~repro.schedules.library`), and the name registry every CLI/serve
surface resolves ``--schedule`` specs through
(:mod:`~repro.schedules.registry`).
"""

from repro.schedules.base import (
    PipeSchedule,
    max_resident_micro_batches,
    validate_schedule,
    warmup_counts,
    warmup_prefix_length,
)
from repro.schedules.library import (
    Dapple1F1BSchedule,
    GPipeSchedule,
    Interleaved1F1BSchedule,
    ZeroBubble2BPSchedule,
)
from repro.schedules.registry import (
    UnknownScheduleError,
    build_schedule,
    parse_schedule_spec,
    register_schedule,
    schedule_help,
    schedule_names,
)
from repro.schedules.tasks import (
    COMM_KINDS,
    COMPUTE_KINDS,
    RELEASE_KINDS,
    Backward,
    BackwardInput,
    BackwardWeight,
    Forward,
    PipeTask,
    RecvAct,
    RecvGrad,
    SendAct,
    SendGrad,
)

__all__ = [
    "PipeSchedule",
    "GPipeSchedule",
    "Dapple1F1BSchedule",
    "Interleaved1F1BSchedule",
    "ZeroBubble2BPSchedule",
    "UnknownScheduleError",
    "register_schedule",
    "schedule_names",
    "schedule_help",
    "parse_schedule_spec",
    "build_schedule",
    "PipeTask",
    "Forward",
    "Backward",
    "BackwardInput",
    "BackwardWeight",
    "RecvAct",
    "SendAct",
    "RecvGrad",
    "SendGrad",
    "COMPUTE_KINDS",
    "COMM_KINDS",
    "RELEASE_KINDS",
    "warmup_counts",
    "validate_schedule",
    "warmup_prefix_length",
    "max_resident_micro_batches",
]
