"""Typed pipeline-schedule tasks — the vocabulary of the schedule IR.

A schedule is, per (virtual) stage, an ordered stream of :class:`PipeTask`
objects.  Compute tasks occupy the stage's devices:

* :class:`Forward` — forward pass of one micro-batch (allocates its
  resident activations);
* :class:`Backward` — the classic *combined* backward (grad-input and
  grad-weight fused, as in GPipe/DAPPLE; releases the activations);
* :class:`BackwardInput` / :class:`BackwardWeight` — the 2BP split
  (PAPERS.md: "2BP: 2-Stage Backpropagation"): ``BackwardInput`` computes
  dL/d(input) and is the only task on the cross-stage gradient chain;
  ``BackwardWeight`` computes dL/d(weights) off the critical path and is
  what finally releases the micro-batch's activations.

Communication markers (:class:`RecvAct`, :class:`SendAct`,
:class:`RecvGrad`, :class:`SendGrad`) annotate where a stream touches its
neighbours; the runtime derives the actual transfer ops from data
dependencies, so the markers exist for analysis and documentation of a
stream (see :meth:`~repro.schedules.base.PipeSchedule.steps`).

Every task is a frozen value object keyed by ``micro_batch``; ``kind`` is
a short class-level code (``"F"``, ``"B"``, ``"BI"``, ``"BW"``, ...) that
doubles as the op-kind tag the runtime attaches to simulated ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

__all__ = [
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
]


@dataclass(frozen=True)
class PipeTask:
    """One schedule step of one micro-batch on one (virtual) stage."""

    micro_batch: int
    #: Short kind code, set per subclass (``"F"``, ``"BI"``, ...).
    kind: ClassVar[str] = "?"
    #: True for tasks that occupy the stage's devices (F/B/BI/BW).
    compute: ClassVar[bool] = False

    def __repr__(self) -> str:
        return f"{self.kind}{self.micro_batch}"


class Forward(PipeTask):
    """Forward pass; allocates the micro-batch's resident activations."""

    kind = "F"
    compute = True


class Backward(PipeTask):
    """Combined backward (grad-input + grad-weight); releases activations."""

    kind = "B"
    compute = True


class BackwardInput(PipeTask):
    """Grad-input half of a split backward — the cross-stage grad chain."""

    kind = "BI"
    compute = True


class BackwardWeight(PipeTask):
    """Grad-weight half of a split backward; releases the activations."""

    kind = "BW"
    compute = True


class RecvAct(PipeTask):
    """Marker: activations of this micro-batch arrive from the upstream stage."""

    kind = "recv_act"


class SendAct(PipeTask):
    """Marker: activations of this micro-batch leave for the downstream stage."""

    kind = "send_act"


class RecvGrad(PipeTask):
    """Marker: output gradients arrive from the downstream stage."""

    kind = "recv_grad"


class SendGrad(PipeTask):
    """Marker: input gradients leave for the upstream stage."""

    kind = "send_grad"


#: Kinds that occupy stage devices and become simulated compute ops.
COMPUTE_KINDS = frozenset({"F", "B", "BI", "BW"})
#: Marker kinds describing cross-stage traffic around a stream.
COMM_KINDS = frozenset({"recv_act", "send_act", "recv_grad", "send_grad"})
#: Kinds whose completion releases a micro-batch's resident activations.
RELEASE_KINDS = frozenset({"B", "BW"})
