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
from repro.sim.engine import MemEffect, Op, Replicas, Simulator, TaskGraph
from repro.sim.trace import MemoryTimeline, Trace


@dataclass
class IterationOps:
    """Per-stage head/tail op names of one emitted iteration.

    ``first_ops[stage]`` are the first scheduled ops of each replica class
    (what a subsequent iteration must wait behind); ``final_ops[stage]`` is
    the stage's weights-update dependency (its AllReduce, or the last
    backward when the stage is not replicated).
    """

    first_ops: dict[int, list[str]]
    final_ops: dict[int, list[str]]
    #: Last *forward* op per replica class — what an asynchronous next
    #: iteration chains behind (async pipelines keep forwards flowing
    #: while the previous batch's backwards drain).
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
        sim_engine: str = "compiled",
    ):
        from repro.runtime.checkpointing import normalize_strategy, stage_checkpointing

        self.profile = profile
        self.cluster = cluster
        self.plan = plan
        #: Simulator event loop: "compiled" (default) or "reference" (oracle).
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
    def replica_classes(self, stage, slots: int | None) -> list[list[int]]:
        """``stage``'s replica indices grouped into lock-step classes.

        Each micro-batch is sliced evenly over the replicas (paper §V-B2),
        so replicas with the same slowdown factor run bit-for-bit alike and
        one op chain can simulate them all.  Replicas ``1..slots`` keep a
        class of their own: the *victim slots* a fault ensemble maps each
        seed's victims onto (:mod:`repro.faults.models`).  ``slots=None``
        keeps every replica in its own class, and so do interleaved plans,
        whose devices host several stages.  Classes are ordered by their
        lowest replica index, which names the class.
        """
        if slots is None or self.plan.meta.get("interleaved"):
            return [[r] for r in range(stage.replicas)]
        classes: dict[tuple, list[int]] = {}
        for r, d in enumerate(stage.devices):
            if 1 <= r <= slots:
                key = ("slot", r)
            else:
                key = ("factor", self.device_slowdown.get(d.global_id, 1.0))
            classes.setdefault(key, []).append(r)
        return sorted(classes.values())

    def build_graph(self, slots: int | None = 0) -> TaskGraph:
        """Compile one training iteration into a fresh task graph.

        ``slots`` victim slots per stage (:meth:`replica_classes`) stay
        unfolded; the default folds every class of lock-step replicas.
        ``slots=None`` emits one op chain per replica — the graph the
        conformance checks and the per-op fault models run on.
        """
        g = TaskGraph()
        with obs.span("runtime.build_graph", plan=self.plan.notation) as sp:
            self.build_into(g, slots=slots)
            sp.set(ops=len(g), rows=g.num_rows)
        return g

    def build_into(
        self, g: TaskGraph, prefix: str = "", include_init: bool = True,
        priority_base: float = 0.0, slots: int | None = 0,
    ) -> "IterationOps":
        """Emit one iteration's ops into ``g`` with names under ``prefix``.

        Each stage emits one op chain per replica class
        (:meth:`replica_classes`), named after the class's lowest replica
        and carrying the class as its :class:`~repro.sim.engine.Replicas`,
        and one init op whose rows cover every replica.  Each folded
        class's victim slots — the single-replica classes of its stage
        with its slowdown factor — go to ``g.victim_slots``.  Returns the
        per-stage first/last op names so callers can chain multiple
        iterations (see :mod:`repro.runtime.steady_state`).
        """
        plan = self.plan
        prof = self.profile
        m = plan.num_micro_batches
        mbs = plan.micro_batch_size
        streams = self.schedule.streams()
        first_ops: dict[int, list[str]] = {}
        final_ops: dict[int, list[str]] = {}
        last_forward_ops: dict[int, list[str]] = {}

        # Per stage and class: the class's lowest replica, its device key,
        # the Replicas its ops carry (None for a one-replica class) and its
        # slowdown factor.
        classes = []
        for stage in plan.stages:
            rows = []
            for cls in self.replica_classes(stage, slots):
                keys = tuple(stage.devices[r].resource_key for r in cls)
                rep = Replicas(tuple(f"r{r}" for r in cls), keys) if cls[1:] else None
                slow = self.device_slowdown.get(stage.devices[cls[0]].global_id, 1.0)
                rows.append((cls[0], keys[0], rep, slow))
            classes.append(rows)
            # A folded class's victim slots run at its own factor.
            for _r, key, rep, slow in rows:
                if rep is not None:
                    free = tuple(k for _q, k, p, f in rows if p is None and f == slow)
                    if free:
                        g.victim_slots[key] = free

        # Persistent memory (weights, optimizer states, grad buffers).  A
        # folded stage initializes all its replicas in one op, in device
        # order, charging each class key once.
        if include_init:
            for i, stage in enumerate(plan.stages):
                persistent = self.stage_mem[i].persistent_bytes
                keys = tuple(d.resource_key for d in stage.devices)
                if any(rep for _r, _key, rep, _slow in classes[i]):
                    g.add(Op(
                        f"{prefix}init/s{i}/{keys[0]}", 0.0, priority=-1e9,
                        mem_effects=[
                            MemEffect(key, persistent)
                            for _r, key, _rep, _slow in classes[i]
                        ],
                        replicas=Replicas(keys, keys),
                    ))
                    continue
                for key in keys:
                    g.add(Op(
                        f"{prefix}init/s{i}/{key}", 0.0, priority=-1e9,
                        mem_effects=[MemEffect(key, persistent)],
                    ))

        # Backward split: BI carries this fraction of the combined backward
        # time, BW the rest (only consulted for schedules emitting BI/BW).
        w_frac = self.schedule.backward_weight_fraction

        # Compute ops per replica class, emitted in stream order and chained
        # per class in that order (paper Fig. 11).  A schedule may impose
        # its own dispatch priorities (interleaved schedules order virtual
        # stages sharing a device); the default is stream position.
        # names[i][(kind, mb)] lists the op names of stage i, one per class.
        names: list[dict] = []
        for i, stage in enumerate(plan.stages):
            b = plan.device_batch(i)
            fwd = prof.fwd_time(stage.layer_lo, stage.layer_hi, b)
            bwd = prof.bwd_time(stage.layer_lo, stage.layer_hi, b)
            extra = self._stage_ckpt[i].extra_backward_time
            sm = self.stage_mem[i]
            resident = sm.per_microbatch_bytes
            transient = sm.transient_backward_bytes
            # Re-materialized intermediates live while a backward runs.
            remat = ((transient, False), (-transient, True)) if transient > 0 else ()
            # kind -> (duration before the replica's slowdown, memory effects
            # as (delta, at_end)).  A forward allocates the micro-batch's
            # activations and the backward (B, or BW when split) releases
            # them; the split grad-input phase BI only reads them.
            emit = {
                "F": (fwd, ((resident, False),)),
                "B": (bwd + extra, remat + ((-resident, True),)),
                "BI": (bwd * (1.0 - w_frac) + extra, remat),
                "BW": (bwd * w_frac, ((-resident, True),)),
            }
            stage_names: dict = {}
            names.append(stage_names)
            prios = self.schedule.stage_priorities(i)
            for pos, task in enumerate(streams[i]):
                prio = priority_base + (prios[pos] if prios is not None else pos)
                kind, mb = task.kind, task.micro_batch
                base, effects = emit[kind]
                tags = {"kind": kind, "stage": i, "mb": mb}
                row = stage_names[kind, mb] = []
                for r, key, rep, slow in classes[i]:
                    name = f"{prefix}{kind}/s{i}/m{mb}/r{r}"
                    g.add(Op(
                        name,
                        base * slow,
                        resources=(key,),
                        priority=prio,
                        tags=tags,
                        mem_effects=[MemEffect(key, v, e) for v, e in effects],
                        replicas=rep,
                    ))
                    row.append(name)
            rows = [stage_names[t.kind, t.micro_batch] for t in streams[i]]
            first_ops[i] = rows[0] if rows else []
            for c in range(len(classes[i])):
                for before, after in zip(rows, rows[1:]):
                    g.add_dep(before[c], after[c])

        # Which backward flavour each stage runs per micro-batch: the
        # grad-chain op ("B", or "BI" when split) carries the cross-stage
        # gradient; the releasing op ("B", or "BW" when split) frees the
        # activations and contributes the weight gradients.
        split = [
            {t.micro_batch for t in streams[i] if t.kind == "BI"}
            for i in range(plan.num_stages)
        ]

        def grad_ops(i: int, mb: int) -> list[str]:
            return names[i]["BI" if mb in split[i] else "B", mb]

        def release_ops(i: int, mb: int) -> list[str]:
            return names[i]["BW" if mb in split[i] else "B", mb]

        # F->backward on the same stage (stored activations are the data
        # dep); split backwards add F->BI and BI->BW (BW consumes both the
        # activations and the output gradient BI received).
        for i in range(plan.num_stages):
            for mb in range(m):
                for f, b in zip(names[i]["F", mb], grad_ops(i, mb)):
                    g.add_dep(f, b)
                if mb in split[i]:
                    for bi, bw in zip(names[i]["BI", mb], names[i]["BW", mb]):
                        g.add_dep(bi, bw)

        # Cross-stage transfers.
        for i in range(plan.num_stages - 1):
            src, dst = plan.stages[i], plan.stages[i + 1]
            nbytes = prof.boundary_bytes(src.layer_hi, mbs)
            t_fwd = transfer_time(self.cluster, nbytes, src.devices, dst.devices)
            t_bwd = transfer_time(self.cluster, nbytes, dst.devices, src.devices)
            res_fwd = self.cluster.group_transfer_resources(src.devices, dst.devices)
            res_bwd = self.cluster.group_transfer_resources(dst.devices, src.devices)
            for mb in range(m):
                send = f"{prefix}send/s{i}/m{mb}"
                g.add(Op(
                    send,
                    t_fwd,
                    resources=res_fwd,
                    priority=priority_base + mb,
                    tags={"kind": "send", "stage": i, "mb": mb},
                ))
                for f in names[i]["F", mb]:
                    g.add_dep(f, send)
                for f in names[i + 1]["F", mb]:
                    g.add_dep(send, f)
                back = f"{prefix}sendback/s{i}/m{mb}"
                g.add(Op(
                    back,
                    t_bwd,
                    resources=res_bwd,
                    priority=priority_base + mb,
                    tags={"kind": "sendback", "stage": i, "mb": mb},
                ))
                for op in grad_ops(i + 1, mb):
                    g.add_dep(op, back)
                for op in grad_ops(i, mb):
                    g.add_dep(back, op)

        # Gradient AllReduce per replicated stage, after all its backwards
        # (for split backwards: the weight gradient exists only once BW ran).
        for i, stage in enumerate(plan.stages):
            last_rel = next(
                t for t in reversed(streams[i]) if t.kind in ("B", "BW")
            )
            last_backwards = names[i][last_rel.kind, last_rel.micro_batch]
            last_fwd_mb = max(t.micro_batch for t in streams[i] if t.kind == "F")
            last_forward_ops[i] = names[i]["F", last_fwd_mb]
            if stage.replicas < 2:
                final_ops[i] = last_backwards
                continue
            params = prof.param_bytes(stage.layer_lo, stage.layer_hi)
            dur = allreduce_time(params, self.cluster, stage.devices)
            ar = f"{prefix}allreduce/s{i}"
            g.add(Op(
                ar,
                dur,
                resources=(f"ar:{i}",),
                priority=priority_base + 10**6,
                tags={"kind": "AR", "stage": i},
            ))
            for mb in range(m):
                for op in release_ops(i, mb):
                    g.add_dep(op, ar)
            final_ops[i] = [ar]
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
    sim_engine: str = "compiled",
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
