"""Pipelined execution of a plan on the simulated cluster.

Compiles (plan, schedule) into a :class:`~repro.sim.engine.TaskGraph` —
forward/backward ops per stage replica, cross-stage transfers holding NIC
resources, per-stage gradient AllReduce — and runs it on the deterministic
simulator.  The construction mirrors the paper's TF graph (§V-B):

* data edges: ``F(s, m) → send(s→s+1, m) → F(s+1, m)`` and the mirrored
  backward chain, plus ``F(last, m) → B(last, m)``;
* control edges: consecutive tasks of a stage's schedule are chained per
  replica, exactly like the paper's control-dependency construction
  (Fig. 11) that enforces early-backward order;
* weights update: each stage's AllReduce waits on all its backwards
  (gradient accumulation, Fig. 10).

Memory effects implement §III-B: a forward allocates the micro-batch's
resident activations; the matching backward releases them (and, with
re-computation, transiently rematerializes the discarded intermediates,
paying the forward's compute time again).
"""

from __future__ import annotations

from dataclasses import dataclass

import repro.obs as obs
from repro.cluster.collectives import allreduce_time
from repro.cluster.topology import Cluster
from repro.cluster.transfer import transfer_time
from repro.core.plan import ParallelPlan
from repro.core.profiler import ModelProfile
from repro.runtime.memory import MemoryModel, OutOfMemoryError
from repro.schedules.base import PipeSchedule
from repro.schedules.registry import build_schedule
from repro.sim.engine import MemEffect, Op, Simulator, TaskGraph
from repro.sim.trace import MemoryTimeline, Trace


@dataclass
class IterationOps:
    """Per-stage head/tail op names of one emitted iteration.

    ``first_ops[stage]`` are the first scheduled ops of each replica (what a
    subsequent iteration must wait behind); ``final_ops[stage]`` is the
    stage's weights-update dependency (its AllReduce, or the last backward
    when the stage is not replicated).
    """

    first_ops: dict[int, list[str]]
    final_ops: dict[int, list[str]]
    #: Last *forward* op per replica — what an asynchronous next iteration
    #: chains behind (async pipelines keep forwards flowing while the
    #: previous batch's backwards drain).
    last_forward_ops: dict[int, list[str]]


@dataclass
class ExecutionResult:
    """Outcome of one simulated training iteration."""

    plan: ParallelPlan
    iteration_time: float
    trace: Trace
    memory: MemoryTimeline
    #: The schedule IR the iteration was built from.
    schedule: PipeSchedule
    recompute: bool

    @property
    def throughput(self) -> float:
        """Samples per second."""
        return self.plan.global_batch_size / self.iteration_time

    def peak_memory_per_device(self) -> dict[str, float]:
        """Peak live bytes per device resource key."""
        return self.memory.peak_all()

    def max_peak_memory(self) -> float:
        """Largest per-device peak (the OOM-relevant number)."""
        peaks = self.memory.peak_all()
        return max(peaks.values()) if peaks else 0.0

    def average_peak_memory(self) -> float:
        """Mean of per-device peaks — the paper's Table VI metric."""
        peaks = [
            v for k, v in self.memory.peak_all().items() if str(k).startswith("gpu")
        ]
        return sum(peaks) / len(peaks) if peaks else 0.0

    def device_utilization(self) -> dict[str, float]:
        """Busy fraction of each device over the iteration."""
        out = {}
        for stage in self.plan.stages:
            for d in stage.devices:
                out[d.resource_key] = self.trace.utilization(d.resource_key)
        return out


class PipelineExecutor:
    """Builds and runs the task graph for one training iteration."""

    def __init__(
        self,
        profile: ModelProfile,
        cluster: Cluster,
        plan: ParallelPlan,
        schedule: str | PipeSchedule = "dapple",
        warmup_policy: str = "PA",
        recompute: bool = False,
        enforce_memory: bool = True,
        device_slowdown: dict | None = None,
        sim_engine: str | None = None,
    ):
        from repro.runtime.checkpointing import normalize_strategy, stage_checkpointing

        self.profile = profile
        self.cluster = cluster
        self.plan = plan
        #: Simulator event loop: "compiled" (default), "reference" (oracle),
        #: or None to defer to the REPRO_SIM_ENGINE environment variable.
        self.sim_engine = sim_engine
        self.checkpoint_strategy = normalize_strategy(recompute)
        self.recompute = self.checkpoint_strategy != "none"
        self.memory_model = MemoryModel(profile, plan, recompute=recompute)
        self._stage_ckpt = [
            stage_checkpointing(profile, plan, i, self.checkpoint_strategy)
            for i in range(plan.num_stages)
        ]
        # Fault/straggler injection: per-device compute-time multipliers
        # (global id -> factor >= 1). Synchronous micro-batch slicing means
        # one slow replica delays every micro-batch of its stage — the
        # "tail effect" sensitivity of synchronous training.
        self.device_slowdown = dict(device_slowdown or {})
        for gid, factor in self.device_slowdown.items():
            if factor < 1.0:
                raise ValueError(f"slowdown factor for device {gid} must be >=1, got {factor}")
        self.stage_mem = self.memory_model.all_stages()

        m = plan.num_micro_batches
        s = plan.num_stages
        if enforce_memory:
            d_caps = self.memory_model.max_in_flight()  # raises on OOM
        else:
            d_caps = [m] * s

        if isinstance(schedule, str):
            # Resolve any registry spec ("dapple", "gpipe", "interleaved:v=2",
            # "zb2bp:w=0.4", ...).  Unknown names raise a ValueError listing
            # the registered names.  One global cap (not per-stage): warm-up
            # depths must be non-increasing along the pipeline or the control
            # chains form a cross-stage cycle (an upstream stage waiting on a
            # backward its downstream neighbour schedules after a forward the
            # upstream has not released yet).
            schedule = build_schedule(
                schedule,
                plan=plan,
                num_micro_batches=m,
                warmup_policy=warmup_policy,
                max_in_memory=min(d_caps),
            )
        if schedule.num_stages != s:
            raise ValueError(
                f"schedule addresses {schedule.num_stages} "
                f"stages but the plan has {s}"
            )
        if schedule.num_micro_batches != m:
            raise ValueError(
                f"schedule covers {schedule.num_micro_batches} "
                f"micro-batches but the plan has {m}"
            )
        if enforce_memory:
            # The IR declares its per-stage residency high-water mark;
            # reject schedules whose peak cannot fit the stage's devices
            # (GPipe at large M, interleaved at large v, a too-deep PB
            # warm-up, ...) before building the graph.
            for i, hw in enumerate(schedule.memory_high_water()):
                sm = self.stage_mem[i]
                if sm.peak_bytes(hw) > sm.capacity_bytes:
                    raise OutOfMemoryError(
                        f"{schedule.name} schedule stage {i}: "
                        f"{hw} resident micro-batches need "
                        f"{sm.peak_bytes(hw) / 2**30:.1f} GiB > "
                        f"{sm.capacity_bytes / 2**30:.1f} GiB"
                    )
        schedule.validate()
        self.schedule = schedule

    # ------------------------------------------------------------------ #
    # Graph construction
    # ------------------------------------------------------------------ #
    def _comm_resources(self, senders, receivers) -> tuple:
        keys = set()
        for s in senders:
            for r in receivers:
                if s.global_id != r.global_id:
                    keys.update(self.cluster.transfer_resources(s, r))
        return tuple(sorted(keys))

    def build_graph(self) -> TaskGraph:
        """Compile one training iteration into a fresh task graph."""
        g = TaskGraph()
        with obs.span("runtime.build_graph", plan=self.plan.notation) as sp:
            self.build_into(g)
            sp.set(ops=len(g))
        return g

    def build_into(
        self, g: TaskGraph, prefix: str = "", include_init: bool = True,
        priority_base: float = 0.0,
    ) -> "IterationOps":
        """Emit one iteration's ops into ``g`` with names under ``prefix``.

        Returns the per-stage first/last op names so callers can chain
        multiple iterations (see :mod:`repro.runtime.steady_state`).
        """
        plan = self.plan
        prof = self.profile
        m = plan.num_micro_batches
        mbs = plan.micro_batch_size
        streams = self.schedule.streams()
        first_ops: dict[int, list[str]] = {}
        final_ops: dict[int, list[str]] = {}
        last_forward_ops: dict[int, list[str]] = {}

        # Persistent memory (weights, optimizer states, grad buffers).
        if include_init:
            for i, stage in enumerate(plan.stages):
                for d in stage.devices:
                    op = Op(f"{prefix}init/s{i}/{d.resource_key}", 0.0, priority=-1e9)
                    op.mem_effects.append(
                        MemEffect(d.resource_key, self.stage_mem[i].persistent_bytes)
                    )
                    g.add(op)

        # Backward split: BI carries this fraction of the combined backward
        # time, BW the rest (only consulted for schedules emitting BI/BW).
        w_frac = self.schedule.backward_weight_fraction

        # Compute ops per stage replica.  A schedule may impose its own
        # dispatch priorities (interleaved schedules order virtual stages
        # sharing a device); the default is stream position.
        for i, stage in enumerate(plan.stages):
            b = plan.device_batch(i)
            fwd = prof.fwd_time(stage.layer_lo, stage.layer_hi, b)
            bwd = prof.bwd_time(stage.layer_lo, stage.layer_hi, b)
            sm = self.stage_mem[i]
            resident = sm.per_microbatch_bytes
            transient = sm.transient_backward_bytes
            prios = self.schedule.stage_priorities(i)
            for pos, task in enumerate(streams[i]):
                prio = priority_base + (prios[pos] if prios is not None else pos)
                for r, d in enumerate(stage.devices):
                    slow = self.device_slowdown.get(d.global_id, 1.0)
                    if task.kind == "F":
                        op = Op(
                            f"{prefix}F/s{i}/m{task.micro_batch}/r{r}",
                            fwd * slow,
                            resources=(d.resource_key,),
                            priority=prio,
                            tags={"kind": "F", "stage": i, "mb": task.micro_batch},
                        )
                        op.mem_effects.append(MemEffect(d.resource_key, resident))
                    elif task.kind == "B":
                        dur = (bwd + self._stage_ckpt[i].extra_backward_time) * slow
                        op = Op(
                            f"{prefix}B/s{i}/m{task.micro_batch}/r{r}",
                            dur,
                            resources=(d.resource_key,),
                            priority=prio,
                            tags={"kind": "B", "stage": i, "mb": task.micro_batch},
                        )
                        if transient > 0:
                            op.mem_effects.append(MemEffect(d.resource_key, transient))
                            op.mem_effects.append(
                                MemEffect(d.resource_key, -transient, at_end=True)
                            )
                        op.mem_effects.append(
                            MemEffect(d.resource_key, -resident, at_end=True)
                        )
                    elif task.kind == "BI":
                        # Grad-input phase: on the cross-stage gradient
                        # chain; reads the activations (re-materializing
                        # them first under checkpointing) but does not
                        # release them.
                        dur = (
                            bwd * (1.0 - w_frac)
                            + self._stage_ckpt[i].extra_backward_time
                        ) * slow
                        op = Op(
                            f"{prefix}BI/s{i}/m{task.micro_batch}/r{r}",
                            dur,
                            resources=(d.resource_key,),
                            priority=prio,
                            tags={"kind": "BI", "stage": i, "mb": task.micro_batch},
                        )
                        if transient > 0:
                            op.mem_effects.append(MemEffect(d.resource_key, transient))
                            op.mem_effects.append(
                                MemEffect(d.resource_key, -transient, at_end=True)
                            )
                    else:  # BW — grad-weight phase, releases the activations.
                        op = Op(
                            f"{prefix}BW/s{i}/m{task.micro_batch}/r{r}",
                            bwd * w_frac * slow,
                            resources=(d.resource_key,),
                            priority=prio,
                            tags={"kind": "BW", "stage": i, "mb": task.micro_batch},
                        )
                        op.mem_effects.append(
                            MemEffect(d.resource_key, -resident, at_end=True)
                        )
                    g.add(op)

        # Control chains: schedule order per replica (paper Fig. 11).
        for i, stage in enumerate(plan.stages):
            heads = []
            for r in range(stage.replicas):
                prev = None
                for task in streams[i]:
                    name = f"{prefix}{task.kind}/s{i}/m{task.micro_batch}/r{r}"
                    if prev is not None:
                        g.add_dep(prev, name)
                    else:
                        heads.append(name)
                    prev = name
            first_ops[i] = heads

        # Which backward flavour each stage runs per micro-batch: the
        # grad-chain op ("B", or "BI" when split) carries the cross-stage
        # gradient; the releasing op ("B", or "BW" when split) frees the
        # activations and contributes the weight gradients.
        split = [
            {t.micro_batch for t in streams[i] if t.kind == "BI"}
            for i in range(plan.num_stages)
        ]

        def grad_op(i: int, mb: int) -> str:
            return "BI" if mb in split[i] else "B"

        def release_op(i: int, mb: int) -> str:
            return "BW" if mb in split[i] else "B"

        # F->backward on the same stage (stored activations are the data
        # dep); split backwards add F->BI and BI->BW (BW consumes both the
        # activations and the output gradient BI received).
        for i, stage in enumerate(plan.stages):
            for mb in range(m):
                gk = grad_op(i, mb)
                for r in range(stage.replicas):
                    g.add_dep(
                        f"{prefix}F/s{i}/m{mb}/r{r}", f"{prefix}{gk}/s{i}/m{mb}/r{r}"
                    )
                    if gk == "BI":
                        g.add_dep(
                            f"{prefix}BI/s{i}/m{mb}/r{r}",
                            f"{prefix}BW/s{i}/m{mb}/r{r}",
                        )

        # Cross-stage transfers.
        for i in range(plan.num_stages - 1):
            src, dst = plan.stages[i], plan.stages[i + 1]
            nbytes = prof.boundary_bytes(src.layer_hi, mbs)
            t_fwd = transfer_time(self.cluster, nbytes, src.devices, dst.devices)
            t_bwd = transfer_time(self.cluster, nbytes, dst.devices, src.devices)
            res_fwd = self._comm_resources(src.devices, dst.devices)
            res_bwd = self._comm_resources(dst.devices, src.devices)
            for mb in range(m):
                op = Op(
                    f"{prefix}send/s{i}/m{mb}",
                    t_fwd,
                    resources=res_fwd,
                    priority=priority_base + mb,
                    tags={"kind": "send", "stage": i, "mb": mb},
                )
                g.add(op)
                for r in range(src.replicas):
                    g.add_dep(f"{prefix}F/s{i}/m{mb}/r{r}", f"{prefix}send/s{i}/m{mb}")
                for r in range(dst.replicas):
                    g.add_dep(f"{prefix}send/s{i}/m{mb}", f"{prefix}F/s{i+1}/m{mb}/r{r}")
                op = Op(
                    f"{prefix}sendback/s{i}/m{mb}",
                    t_bwd,
                    resources=res_bwd,
                    priority=priority_base + mb,
                    tags={"kind": "sendback", "stage": i, "mb": mb},
                )
                g.add(op)
                for r in range(dst.replicas):
                    g.add_dep(
                        f"{prefix}{grad_op(i + 1, mb)}/s{i+1}/m{mb}/r{r}",
                        f"{prefix}sendback/s{i}/m{mb}",
                    )
                for r in range(src.replicas):
                    g.add_dep(
                        f"{prefix}sendback/s{i}/m{mb}",
                        f"{prefix}{grad_op(i, mb)}/s{i}/m{mb}/r{r}",
                    )

        # Gradient AllReduce per replicated stage, after all its backwards
        # (for split backwards: the weight gradient exists only once BW ran).
        for i, stage in enumerate(plan.stages):
            last_rel = next(
                t for t in reversed(streams[i]) if t.kind in ("B", "BW")
            )
            last_backwards = [
                f"{prefix}{last_rel.kind}/s{i}/m{last_rel.micro_batch}/r{r}"
                for r in range(stage.replicas)
            ]
            last_fwd_mb = max(t.micro_batch for t in streams[i] if t.kind == "F")
            last_forward_ops[i] = [
                f"{prefix}F/s{i}/m{last_fwd_mb}/r{r}" for r in range(stage.replicas)
            ]
            if stage.replicas < 2:
                final_ops[i] = last_backwards
                continue
            params = prof.param_bytes(stage.layer_lo, stage.layer_hi)
            dur = allreduce_time(params, self.cluster, stage.devices)
            op = Op(
                f"{prefix}allreduce/s{i}",
                dur,
                resources=(f"ar:{i}",),
                priority=priority_base + 10**6,
                tags={"kind": "AR", "stage": i},
            )
            g.add(op)
            for mb in range(m):
                for r in range(stage.replicas):
                    g.add_dep(
                        f"{prefix}{release_op(i, mb)}/s{i}/m{mb}/r{r}",
                        f"{prefix}allreduce/s{i}",
                    )
            final_ops[i] = [f"{prefix}allreduce/s{i}"]
        return IterationOps(
            first_ops=first_ops,
            final_ops=final_ops,
            last_forward_ops=last_forward_ops,
        )

    def run(self) -> ExecutionResult:
        """Simulate the compiled iteration and package the outcome."""
        with obs.span("runtime.execute", plan=self.plan.notation) as sp:
            graph = self.build_graph()
            res = Simulator(graph, engine=self.sim_engine).run()
            sp.set(iteration_time=res.makespan)
        return ExecutionResult(
            plan=self.plan,
            iteration_time=res.makespan,
            trace=res.trace,
            memory=res.memory,
            schedule=self.schedule,
            recompute=self.recompute,
        )


def execute_plan(
    profile: ModelProfile,
    cluster: Cluster,
    plan: ParallelPlan,
    schedule: str | PipeSchedule = "dapple",
    warmup_policy: str = "PA",
    recompute: bool = False,
    enforce_memory: bool = True,
    device_slowdown: dict | None = None,
    sim_engine: str | None = None,
) -> ExecutionResult:
    """One-call façade: build the task graph, simulate, return the result."""
    return PipelineExecutor(
        profile,
        cluster,
        plan,
        schedule=schedule,
        warmup_policy=warmup_policy,
        recompute=recompute,
        enforce_memory=enforce_memory,
        device_slowdown=device_slowdown,
        sim_engine=sim_engine,
    ).run()
