"""DAPPLE-scheduled pipelined training with exact gradient equivalence.

Implements the paper's execution semantics numerically, in one process:

* the global batch is split into ``M`` micro-batches (paper §II-A);
* the model is partitioned into contiguous stages; each stage may be
  *replicated*, in which case every micro-batch is split into even slices
  across the replicas (paper Fig. 8a) — each replica holds its own
  parameter copy;
* tasks run in the early-backward (1F1B) order of
  :class:`repro.schedules.Dapple1F1BSchedule`, respecting the same
  data dependencies the runtime simulator enforces;
* per-replica gradients accumulate over micro-batches, are AllReduced
  (summed) across replicas, and applied once per global batch
  (paper Fig. 10).

Because micro-batch losses are normalized by the *global* batch size, the
accumulated+reduced gradients are numerically equal to single-device
full-batch gradients — the paper's convergence-preservation claim, which
:mod:`tests.training.test_equivalence` asserts to float64 precision.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.schedules import Dapple1F1BSchedule
from repro.training.autograd import Tensor
from repro.training.layers import Module, Sequential
from repro.training.optim import Optimizer

#: loss_fn(predictions, target_slice, normalizer) -> scalar Tensor.
LossFn = Callable[[Tensor, np.ndarray, float], Tensor]


def gradients_of(model: Module) -> list[np.ndarray]:
    """Copies of the model's current parameter gradients."""
    out = []
    for p in model.parameters():
        if p.grad is None:
            raise ValueError("parameter has no gradient; run backward first")
        out.append(p.grad.copy())
    return out


def sequential_step_gradients(
    model: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    loss_fn: LossFn,
) -> tuple[float, list[np.ndarray]]:
    """Reference: full-batch forward/backward on a single device."""
    model.zero_grad()
    pred = model(Tensor(x))
    loss = loss_fn(pred, y, float(len(x)))
    loss.backward()
    return float(loss.data), gradients_of(model)


@dataclass
class _MicroBatchState:
    """Per-(stage, micro-batch) bookkeeping during one pipeline step."""

    leaves: list[Tensor]  # per-replica input leaf tensors
    outputs: list[Tensor]  # per-replica outputs (or losses on last stage)
    done_forward: bool = False
    done_backward: bool = False


class PipelineTrainer:
    """Runs DAPPLE-scheduled training steps over a partitioned model."""

    def __init__(
        self,
        model: Sequential,
        split_points: Sequence[int],
        num_micro_batches: int,
        replicas: Sequence[int] | None = None,
        warmup_policy: str = "PA",
    ):
        self.model = model
        bounds = [0, *split_points, len(model)]
        if sorted(bounds) != bounds or len(set(bounds)) != len(bounds):
            raise ValueError(f"split points must be strictly increasing, got {split_points}")
        self.bounds = bounds
        self.num_stages = len(bounds) - 1
        self.num_micro_batches = num_micro_batches
        self.replicas = list(replicas) if replicas is not None else [1] * self.num_stages
        if len(self.replicas) != self.num_stages:
            raise ValueError(
                f"{len(self.replicas)} replica counts for {self.num_stages} stages"
            )
        if any(r < 1 for r in self.replicas):
            raise ValueError("replica counts must be >= 1")

        # Deep-copied per-replica stage modules (distinct parameter Tensors,
        # identical values) — real replicas, so the AllReduce below is a
        # genuine cross-worker reduction, not an artifact of sharing.
        self.stage_replicas: list[list[Sequential]] = []
        for s in range(self.num_stages):
            stage = model.slice(bounds[s], bounds[s + 1])
            self.stage_replicas.append(
                [copy.deepcopy(stage) for _ in range(self.replicas[s])]
            )

        self.schedule = Dapple1F1BSchedule(
            self.num_stages, num_micro_batches, warmup_policy=warmup_policy
        )
        self.schedule.validate()

    # ------------------------------------------------------------------ #
    # One pipelined step
    # ------------------------------------------------------------------ #
    def step_gradients(
        self, x: np.ndarray, y: np.ndarray, loss_fn: LossFn
    ) -> tuple[float, list[np.ndarray]]:
        """Run one global batch; return (loss, reduced gradients).

        Gradients are returned in ``model.parameters()`` order and equal
        the full-batch gradients of ``loss_fn`` on ``(x, y)``.
        """
        m = self.num_micro_batches
        if len(x) % m != 0:
            raise ValueError(f"batch of {len(x)} not divisible into {m} micro-batches")
        xs = np.split(np.asarray(x, dtype=np.float64), m)
        ys = np.split(np.asarray(y), m)
        gbs = float(len(x))

        for reps in self.stage_replicas:
            for rep in reps:
                rep.zero_grad()

        state: dict[tuple[int, int], _MicroBatchState] = {}
        stage_inputs: dict[tuple[int, int], np.ndarray] = {
            (0, mb): xs[mb] for mb in range(m)
        }
        upstream_grads: dict[tuple[int, int], np.ndarray] = {}
        total_loss = 0.0

        streams = self.schedule.streams()
        cursors = [0] * self.num_stages
        progressed = True
        while progressed:
            progressed = False
            for s in range(self.num_stages):
                while cursors[s] < len(streams[s]):
                    task = streams[s][cursors[s]]
                    if task.kind == "F":
                        if (s, task.micro_batch) not in stage_inputs:
                            break  # upstream forward not done yet
                        self._forward(s, task.micro_batch, stage_inputs, state, ys, loss_fn)
                        if s == self.num_stages - 1:
                            total_loss += sum(
                                float(o.data) for o in state[(s, task.micro_batch)].outputs
                            )
                    else:
                        if s < self.num_stages - 1 and (s, task.micro_batch) not in upstream_grads:
                            break  # downstream backward not done yet
                        self._backward(s, task.micro_batch, state, upstream_grads)
                    cursors[s] += 1
                    progressed = True

        if any(c < len(streams[s]) for s, c in enumerate(cursors)):
            raise RuntimeError("pipeline schedule deadlocked (dependency bug)")

        grads = self._allreduce()
        return total_loss, grads

    def _forward(self, s, mb, stage_inputs, state, ys, loss_fn) -> None:
        full = stage_inputs[(s, mb)]
        slices = np.array_split(full, self.replicas[s])
        leaves = [Tensor(sl, requires_grad=True) for sl in slices]
        outs = [rep(leaf) for rep, leaf in zip(self.stage_replicas[s], leaves)]
        if s == self.num_stages - 1:
            y_slices = np.array_split(ys[mb], self.replicas[s])
            # Normalize every slice loss by the GLOBAL batch size so that
            # micro-batch losses sum exactly to the full-batch loss.
            global_batch = float(len(ys[0])) * self.num_micro_batches
            outs = [
                loss_fn(out, ysl, global_batch) for out, ysl in zip(outs, y_slices)
            ]
        else:
            stage_inputs[(s + 1, mb)] = np.concatenate([o.data for o in outs])
        state[(s, mb)] = _MicroBatchState(leaves=leaves, outputs=outs)
        state[(s, mb)].done_forward = True

    def _backward(self, s, mb, state, upstream_grads) -> None:
        st = state[(s, mb)]
        if s == self.num_stages - 1:
            for out in st.outputs:
                out.backward()
        else:
            grad_full = upstream_grads[(s, mb)]
            # Output slice sizes mirror this stage's replica input slices.
            out_sizes = [len(o.data) for o in st.outputs]
            grad_slices = np.split(grad_full, np.cumsum(out_sizes)[:-1])
            for out, g in zip(st.outputs, grad_slices):
                out.backward(g)
        if s > 0:
            upstream_grads[(s - 1, mb)] = np.concatenate(
                [leaf.grad for leaf in st.leaves]
            )
        st.done_backward = True
        # Release activations — mirrors DAPPLE's early memory reclamation.
        st.leaves = []
        st.outputs = []

    def _allreduce(self) -> list[np.ndarray]:
        """Sum replica gradients per stage; return in model-parameter order."""
        grads: list[np.ndarray] = []
        for s in range(self.num_stages):
            reps = self.stage_replicas[s]
            per_param = [p.grad for p in reps[0].parameters()]
            for rep in reps[1:]:
                for acc, p in zip(per_param, rep.parameters()):
                    acc += p.grad
            grads.extend(per_param)
        return [g.copy() for g in grads]

    # ------------------------------------------------------------------ #
    # Full training step (AllReduce -> apply -> broadcast, paper Fig. 10)
    # ------------------------------------------------------------------ #
    def train_step(
        self, x: np.ndarray, y: np.ndarray, loss_fn: LossFn, optimizer: Optimizer
    ) -> float:
        """One synchronous global-batch update; returns the loss."""
        loss, grads = self.step_gradients(x, y, loss_fn)
        optimizer.step(grads)
        self._broadcast()
        return loss

    def _broadcast(self) -> None:
        """Re-sync every stage replica from the master model's weights."""
        for s in range(self.num_stages):
            master = self.model.slice(self.bounds[s], self.bounds[s + 1])
            values = master.state()
            for rep in self.stage_replicas[s]:
                rep.load_state(values)
