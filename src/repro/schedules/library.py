"""The concrete schedule library: GPipe, DAPPLE 1F1B, interleaved, ZB-2BP.

Four :class:`~repro.schedules.base.PipeSchedule` implementations:

* :class:`GPipeSchedule` — all forwards, then all backwards in reverse
  (paper Fig. 3a); peak residency grows with ``M``.
* :class:`Dapple1F1BSchedule` — the paper's early-backward 1F1B schedule
  (Fig. 3b): ``Ki`` warm-up forwards on stage ``i``, then strictly one
  backward per forward, then the backward tail.  Peak residency is
  bounded by ``Ki``, *independent of M*.
* :class:`Interleaved1F1BSchedule` — Megatron-style interleaved 1F1B over
  virtual stages: each of ``P`` devices hosts ``v`` layer chunks, shrinking
  the per-chunk pipeline fill so bubbles drop at small ``M``.  Requires an
  interleaved plan (``v`` stages per device, round-robin) and ``M`` a
  multiple of ``P``.
* :class:`ZeroBubble2BPSchedule` — 2BP-style zero-bubble scheduling
  (PAPERS.md: "2BP: 2-Stage Backpropagation"): backward splits into a
  grad-input phase ``BI`` (the only task on the cross-stage gradient
  chain) and a grad-weight phase ``BW`` that runs off the critical path.
  The cooldown drains through the shorter BI-only chain while the
  deferred ``BW`` tasks fill the tail bubbles; steady-state ``BW`` runs
  inline so the activation high-water mark stays at the 1F1B bound
  ``Ki`` (the memory-neutral ZB-H1 flavour).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.schedules.base import PipeSchedule, warmup_counts
from repro.schedules.tasks import (
    Backward,
    BackwardInput,
    BackwardWeight,
    Forward,
    PipeTask,
)

__all__ = [
    "GPipeSchedule",
    "Dapple1F1BSchedule",
    "Interleaved1F1BSchedule",
    "ZeroBubble2BPSchedule",
]


class GPipeSchedule(PipeSchedule):
    """All-forwards-then-all-backwards flush schedule (paper Fig. 3a)."""

    name = "gpipe"

    def stage_stream(self, stage: int) -> Iterator[PipeTask]:
        m = self.num_micro_batches
        for mb in range(m):
            yield Forward(mb)
        for mb in reversed(range(m)):
            yield Backward(mb)


class _WarmupSchedule(PipeSchedule):
    """A schedule whose stage ``i`` opens with ``Ki`` warm-up forwards."""

    def __init__(
        self,
        num_stages: int,
        num_micro_batches: int,
        warmup_policy: str = "PA",
        max_in_memory: int | None = None,
    ):
        super().__init__(num_stages, num_micro_batches)
        self.warmup_policy = warmup_policy
        self.max_in_memory = max_in_memory
        self._ks = warmup_counts(
            num_stages, num_micro_batches,
            policy=warmup_policy, max_in_memory=max_in_memory,
        )

    def warmup_counts(self) -> list[int]:
        """Per-stage warm-up depths ``Ki`` this schedule was built with."""
        return list(self._ks)


class Dapple1F1BSchedule(_WarmupSchedule):
    """DAPPLE early-backward 1F1B (paper Fig. 3b)."""

    name = "dapple"

    def stage_stream(self, stage: int) -> Iterator[PipeTask]:
        m = self.num_micro_batches
        k = self._ks[stage]
        for mb in range(k):
            yield Forward(mb)
        for mb in range(m - k):
            yield Backward(mb)
            yield Forward(mb + k)
        for mb in range(m - k, m):
            yield Backward(mb)


class Interleaved1F1BSchedule(PipeSchedule):
    """Megatron-style interleaved 1F1B over ``v`` virtual stages per device.

    Virtual stage ``s`` lives on device ``s % P`` as chunk ``s // P``.
    Each device's stream processes micro-batches in groups of ``P`` per
    chunk: warm-up injects ``min(2(P-r-1) + (v-1)P, Mv)`` forwards on
    device ``r``, the steady state alternates one forward with one
    backward, and the cooldown drains the remaining backwards with chunks
    in reverse order.  Per-virtual-stage streams are projections of the
    device stream; :meth:`stage_priorities` exposes the device-level
    positions so the runtime preserves the intended cross-chunk interleave
    on the shared device.
    """

    name = "interleaved"

    def __init__(
        self,
        num_devices: int,
        num_micro_batches: int,
        chunks: int = 2,
    ):
        if num_devices < 1:
            raise ValueError(f"need >=1 device, got {num_devices}")
        if chunks < 1:
            raise ValueError(f"need >=1 chunk per device, got {chunks}")
        if num_micro_batches % num_devices != 0:
            raise ValueError(
                f"interleaved 1F1B needs M divisible by the device count: "
                f"M={num_micro_batches}, P={num_devices}"
            )
        super().__init__(num_devices * chunks, num_micro_batches)
        self.num_devices = num_devices
        self.chunks = chunks
        self._device_streams: dict[int, list[tuple[int, PipeTask]]] = {}

    # ------------------------------------------------------------------ #
    # Device-level order (the Megatron interleaved schedule)
    # ------------------------------------------------------------------ #
    def _forward_unit(self, k: int) -> tuple[int, int]:
        """(chunk, micro_batch) of the k-th forward unit on any device."""
        p, v = self.num_devices, self.chunks
        cycle = k % (p * v)
        return cycle // p, (k // (p * v)) * p + k % p

    def _backward_unit(self, k: int) -> tuple[int, int]:
        """(chunk, micro_batch) of the k-th backward unit (chunks reversed)."""
        p, v = self.num_devices, self.chunks
        cycle = k % (p * v)
        return self.chunks - 1 - cycle // p, (k // (p * v)) * p + k % p

    def device_stream(self, device: int) -> list[tuple[int, PipeTask]]:
        """Ordered ``(virtual_stage, task)`` pairs executed by one device."""
        if device in self._device_streams:
            return self._device_streams[device]
        if not 0 <= device < self.num_devices:
            raise ValueError(
                f"device {device} out of range [0, {self.num_devices})"
            )
        p, v, m = self.num_devices, self.chunks, self.num_micro_batches
        total = m * v
        warmup = min(total, 2 * (p - device - 1) + (v - 1) * p)
        out: list[tuple[int, PipeTask]] = []

        def fwd(k: int) -> tuple[int, PipeTask]:
            chunk, mb = self._forward_unit(k)
            return chunk * p + device, Forward(mb)

        def bwd(k: int) -> tuple[int, PipeTask]:
            chunk, mb = self._backward_unit(k)
            return chunk * p + device, Backward(mb)

        out.extend(fwd(k) for k in range(warmup))
        for k in range(total - warmup):
            out.append(fwd(warmup + k))
            out.append(bwd(k))
        out.extend(bwd(k) for k in range(total - warmup, total))
        self._device_streams[device] = out
        return out

    # ------------------------------------------------------------------ #
    # PipeSchedule interface
    # ------------------------------------------------------------------ #
    def stage_stream(self, stage: int) -> Iterator[PipeTask]:
        device = stage % self.num_devices
        for s, task in self.device_stream(device):
            if s == stage:
                yield task

    def stage_priorities(self, stage: int) -> Sequence[float]:
        """Device-level positions of this virtual stage's tasks."""
        device = stage % self.num_devices
        return [
            pos for pos, (s, _t) in enumerate(self.device_stream(device))
            if s == stage
        ]

    def describe(self) -> str:
        return (
            f"{self.name}: P={self.num_devices} devices x v={self.chunks} "
            f"chunks = {self.num_stages} virtual stages, "
            f"M={self.num_micro_batches}"
        )


class ZeroBubble2BPSchedule(_WarmupSchedule):
    """Zero-bubble 1F1B with the backward split into BI and BW phases.

    Per stage ``i`` with warm-up depth ``Ki`` (same PA/PB policies as
    DAPPLE): inject ``Ki`` forwards, then in steady state run
    ``BI(mb), BW(mb), F(mb+Ki)`` — the inline ``BW`` keeps residency at
    the 1F1B bound — and in the cooldown run the remaining grad-input
    phases *first* (they alone gate the upstream sendback chain) with the
    deferred grad-weight phases after them, filling the tail bubble.
    """

    name = "zb2bp"

    def __init__(
        self,
        num_stages: int,
        num_micro_batches: int,
        warmup_policy: str = "PA",
        max_in_memory: int | None = None,
        weight_fraction: float = 0.5,
    ):
        super().__init__(num_stages, num_micro_batches, warmup_policy, max_in_memory)
        if not 0.0 < weight_fraction < 1.0:
            raise ValueError(
                f"weight_fraction must be in (0, 1), got {weight_fraction}"
            )
        self.backward_weight_fraction = weight_fraction

    def stage_stream(self, stage: int) -> Iterator[PipeTask]:
        m = self.num_micro_batches
        k = self._ks[stage]
        for mb in range(k):
            yield Forward(mb)
        for mb in range(m - k):
            yield BackwardInput(mb)
            yield BackwardWeight(mb)
            yield Forward(mb + k)
        for mb in range(m - k, m):
            yield BackwardInput(mb)
        for mb in range(m - k, m):
            yield BackwardWeight(mb)

    def describe(self) -> str:
        return (
            f"{self.name}: S={self.num_stages} stages, "
            f"M={self.num_micro_batches}, BI/BW split "
            f"{1 - self.backward_weight_fraction:.2f}/"
            f"{self.backward_weight_fraction:.2f}"
        )
