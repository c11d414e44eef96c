"""Deterministic perturbation models for simulated executions.

DAPPLE's synchronous hybrid scheme has latency ``L = Tw + Ts + Te`` that is
hostage to the slowest replica and the slowest stage: one delayed micro-batch
delays every micro-batch behind it, and a persistent straggler gates its whole
stage on every tick.  The models here quantify that sensitivity by perturbing
the *durations* of an already-built :class:`~repro.sim.engine.TaskGraph`
before simulation — the graph's structure (dependencies, resources,
priorities, memory effects) is never touched, only how long each op holds its
resources.

Determinism contract
--------------------
Every model is a pure function of ``(ops, durations, rng)``:

* ops are visited in **submission order**, and random draws are consumed in
  that order, so the perturbed duration column is a deterministic function of
  the graph and the generator state;
* models never construct their own generators — the injection layer
  (:mod:`repro.faults.inject`) derives one child generator per model from a
  single explicit seed via :class:`numpy.random.SeedSequence`;
* because perturbation happens *before* the simulator runs, the reference and
  compiled engines see the same graph and therefore produce bit-identical
  perturbed traces (enforced by ``tests/sim/test_compiled_equivalence.py``).

Victim slots
------------
The scalar :meth:`PerturbationModel.perturb` runs on the per-replica graph
(``build_graph(slots=None)``).  The batched :func:`perturb_durations` also
runs on a graph in which each stage keeps only ``k`` replicas unfolded
(``build_graph(slots=k)``), where ``k`` is :func:`required_slots` of the
model set: a model that only slows or stalls whole devices touches at
most :meth:`~PerturbationModel.slots_needed` replicas per stage, and the
rest of each stage still runs in lock-step (paper §V-B2).  Victims are
still drawn from every replica's device key, so the rng is consumed
exactly as on the per-replica graph; each row then places its victims on
its stage's free slots (:meth:`_GraphIndex.place`), whose op chains equal
the victims' op for op.  :func:`require_slots` refuses a graph without
enough slots.  A model that draws per compute op (jitter), or that does
not override :meth:`~PerturbationModel.slots_needed`, needs every
replica: the per-replica graph.

Four failure modes from the pipeline-parallel literature are modelled:
per-op compute jitter (OS/clock noise), persistent slow devices (PipeDream's
straggler motivation), degraded or flaky links, and transient device failures
with stall-and-recover semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.schedules.tasks import COMPUTE_KINDS

__all__ = [
    "PerturbationModel",
    "ComputeJitter",
    "SlowDevice",
    "DegradedLink",
    "TransientFailure",
    "perturb_durations",
    "required_slots",
    "require_slots",
    "COMPUTE_KINDS",
    "COMM_KINDS",
]


#: Tag values marking communication ops in executor-built graphs.
COMM_KINDS = ("send", "sendback")


def _compute_resource_keys(ops) -> list:
    """Device-like resource keys: held by ops tagged as compute.

    Executor-built graphs tag forwards/backwards with ``kind`` in
    :data:`COMPUTE_KINDS`; their (single) resource is the GPU.  Graphs
    without tags fall back to every resource key, so the models stay usable
    on synthetic test DAGs.  Keys are sorted for seed-stable selection.
    """
    keys = {
        r
        for op in ops
        if op.tags.get("kind") in COMPUTE_KINDS
        for r in op.resources
    }
    if not keys:
        keys = {r for op in ops for r in op.resources}
    return sorted(keys, key=str)


def _comm_resource_keys(ops) -> list:
    """Link-like resource keys: held by ops tagged as transfers."""
    keys = {
        r
        for op in ops
        if op.tags.get("kind") in COMM_KINDS
        for r in op.resources
    }
    return sorted(keys, key=str)


class _GraphIndex:
    """Graph-derived selection caches shared across seeds and models, and
    the current row's victim placement.

    :func:`perturb_durations` applies the same models to the same op list
    once per seed; everything that depends only on the graph — kind masks,
    per-resource-key membership, the sorted candidate key lists the victim
    draws index into — is computed once here instead of S times.  All
    arrays preserve submission order, so vectorized draws consume the rng
    in exactly the order the scalar :meth:`PerturbationModel.perturb` loops
    do.

    On a graph with victim slots (``build_graph(slots=k)``) the candidate
    lists still hold every replica's device key, as on the per-replica
    graph, and :meth:`place` puts each victim a row draws on a chain of
    its own.
    """

    def __init__(self, graph):
        self.graph = graph
        self.ops = graph.ops()
        self._kind_idx: dict = {}
        self._key_mask: dict = {}
        self._key_ops: dict = {}
        self._ops_by_key: dict | None = None
        self._compute_keys: list | None = None
        self._comm_keys: list | None = None
        self._comm_ids: np.ndarray | None = None
        self._comm_key_mask: dict = {}
        #: victim slot key -> the folded class key it runs like.
        self._slot_class = {
            slot: cls
            for cls, slots in graph.victim_slots.items() for slot in slots
        }
        self.new_row()

    def new_row(self) -> None:
        """Start a row: no victim placed yet."""
        #: victim key -> the key whose ops simulate it in this row.
        self.placed: dict = {}

    def place(self, key):
        """The key whose ops simulate victim ``key`` in the current row.

        A key with a class of its own — an unfolded replica, a free victim
        slot, or a key no op holds — is its own place.  A member of a
        folded class, or a slot another victim took, takes its class's
        next free victim slot.  So each victim of a row gets its own chain,
        and models that draw the same victim share it.
        """
        got = self.placed.get(key)
        if got is None:
            taken = self.placed.values()
            cls = self.graph.key_class.get(key)
            if cls is None and key not in taken:
                got = key
            else:
                base = cls[0] if cls else self._slot_class[key]
                free = [
                    s for s in self.graph.victim_slots.get(base, ())
                    if s not in taken
                ]
                if not free:
                    raise ValueError(
                        f"victim {key!r} does not fit the victim slots of "
                        f"its class: build the graph with more slots"
                    )
                got = free[0]
            self.placed[key] = got
        return got

    def placement(self) -> dict:
        """Device key -> the key whose chain ran it in the current row, for
        every device whose own class's chain did not: a victim placed on a
        slot, and that slot's own replica (which ran like its class)."""
        out = {}
        for key, got in self.placed.items():
            if got != key:
                out[key] = got
                if got not in self.placed:
                    out[got] = self._slot_class[got]
        return out

    def compute_keys(self) -> list:
        if self._compute_keys is None:
            self._compute_keys = sorted(
                self.graph.expand_keys(_compute_resource_keys(self.ops)),
                key=str,
            )
        return self._compute_keys

    def comm_keys(self) -> list:
        if self._comm_keys is None:
            self._comm_keys = _comm_resource_keys(self.ops)
        return self._comm_keys

    def jitter_indices(self, kinds) -> np.ndarray:
        """Indices of ops a :class:`ComputeJitter` with ``kinds`` matches."""
        got = self._kind_idx.get(kinds)
        if got is None:
            if kinds is None:
                hit = [i for i, op in enumerate(self.ops) if op.duration > 0]
            else:
                hit = [
                    i for i, op in enumerate(self.ops)
                    if op.tags.get("kind") in kinds
                ]
            got = self._kind_idx[kinds] = np.array(hit, dtype=np.int64)
        return got

    def _incidence(self) -> dict:
        """resource key -> op indices holding it, submission order.

        Built in ONE pass over the op list; per-key masks and membership
        lists derive from it, so an ensemble whose seeds each draw a fresh
        victim (e.g. 32 stragglers over 128 devices) pays O(incidence)
        once instead of an O(ops) scan per distinct victim."""
        by = self._ops_by_key
        if by is None:
            by = {}
            for i, op in enumerate(self.ops):
                for r in op.resources:
                    lst = by.get(r)
                    if lst is None:
                        by[r] = [i]
                    elif lst[-1] != i:  # once per op, even if a key repeats
                        lst.append(i)
            self._ops_by_key = by
        return by

    def _mask_for(self, key) -> np.ndarray:
        m = self._key_mask.get(key)
        if m is None:
            m = np.zeros(len(self.ops), dtype=bool)
            # An int array: indexing with an empty tuple would set every op.
            m[np.array(self._incidence().get(key, ()), dtype=np.int64)] = True
            self._key_mask[key] = m
        return m

    def holding_any(self, keys) -> np.ndarray:
        """Boolean mask of ops holding any of ``keys``."""
        out = np.zeros(len(self.ops), dtype=bool)
        for key in keys:
            out |= self._mask_for(key)
        return out

    def ops_holding(self, key) -> list:
        """Op indices holding ``key``, submission order."""
        got = self._key_ops.get(key)
        if got is None:
            got = self._key_ops[key] = list(self._incidence().get(key, ()))
        return got

    def comm_ids(self) -> np.ndarray:
        if self._comm_ids is None:
            self._comm_ids = np.array(
                [
                    i for i, op in enumerate(self.ops)
                    if op.tags.get("kind") in COMM_KINDS
                ],
                dtype=np.int64,
            )
        return self._comm_ids

    def comm_indices_on(self, keys) -> np.ndarray:
        """Comm-kind op indices holding any of ``keys``, submission order."""
        ids = self.comm_ids()
        if ids.size == 0:
            return ids
        hit = np.zeros(ids.size, dtype=bool)
        for key in keys:
            m = self._comm_key_mask.get(key)
            if m is None:
                ops = self.ops
                m = np.fromiter(
                    (key in ops[i].resources for i in ids),
                    dtype=bool, count=ids.size,
                )
                self._comm_key_mask[key] = m
            hit |= m
        return ids[hit]


def _draw_victims(candidates, k: int, rng) -> tuple:
    """The shared victim draw: ``rng.choice`` without replacement over the
    sorted candidate list, victims in candidate order.  Must consume the rng
    exactly like the scalar ``pick_victims`` implementations."""
    if not candidates:
        return ()
    k = min(k, len(candidates))
    idx = rng.choice(len(candidates), size=k, replace=False)
    return tuple(candidates[int(i)] for i in sorted(idx))


class PerturbationModel:
    """Base class: a seeded duration transform over a task graph.

    Subclasses implement :meth:`perturb`, mapping the op list (submission
    order) and the current duration column to a new duration column,
    consuming ``rng`` deterministically.  Models must not mutate ``ops`` or
    the input list.

    :meth:`perturb_row` is the batched equivalent — same transform over a
    numpy row, **consuming the rng stream identically** (numpy's sized
    draws produce the same values as the equivalent sequence of scalar
    draws), so ``perturb_durations`` rows are bit-equal to per-seed
    :meth:`perturb` output.  The base implementation round-trips through
    :meth:`perturb`, so third-party models stay correct without a
    vectorized override.
    """

    def perturb(self, ops, durations: list[float], rng: np.random.Generator) -> list[float]:
        raise NotImplementedError

    def slots_needed(self) -> int | None:
        """How many victims per stage a row of this model sets apart from
        their replica class: the victim slots its graph needs
        (``build_graph(slots=k)``).  ``None``, the default, means every
        replica — a model that draws per op needs the per-replica graph.
        A model that returns a count must reach its victims' ops in
        :meth:`perturb_row` through ``index.place(victim)``.
        """
        return None

    def perturb_row(self, ops, row: np.ndarray, rng: np.random.Generator,
                    index: _GraphIndex) -> np.ndarray:
        out = np.asarray(
            self.perturb(ops, row.tolist(), rng), dtype=np.float64
        )
        if out.shape != row.shape:
            raise ValueError(
                f"{type(self).__name__}.perturb returned {out.size} "
                f"durations for {row.size} ops"
            )
        return out


@dataclass(frozen=True)
class ComputeJitter(PerturbationModel):
    """Per-op multiplicative compute jitter.

    Each matching op's duration is scaled by an i.i.d. draw:

    * ``distribution="lognormal"`` — factor ``exp(sigma·Z)``, median 1.0;
      right-skewed, matching observed kernel-time noise;
    * ``distribution="uniform"`` — factor uniform in
      ``[1 - sigma, 1 + sigma]`` (``sigma < 1``), symmetric noise.

    ``kinds`` selects ops by their ``kind`` tag (default: compute ops);
    ``kinds=None`` jitters every op with positive duration, which makes the
    model applicable to untagged synthetic DAGs.
    """

    sigma: float = 0.1
    distribution: str = "lognormal"
    kinds: frozenset | tuple | None = COMPUTE_KINDS

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(
                f"jitter sigma must be finite and >= 0, got {self.sigma}"
            )
        if self.distribution not in ("lognormal", "uniform"):
            raise ValueError(
                f"unknown jitter distribution {self.distribution!r} "
                "(lognormal or uniform)"
            )
        if self.distribution == "uniform" and self.sigma >= 1.0:
            raise ValueError(
                f"uniform jitter needs sigma < 1 (factor stays positive), "
                f"got {self.sigma}"
            )

    def _matches(self, op) -> bool:
        if self.kinds is None:
            return op.duration > 0
        return op.tags.get("kind") in self.kinds

    def perturb(self, ops, durations, rng):
        out = list(durations)
        sigma = self.sigma
        lognormal = self.distribution == "lognormal"
        for i, op in enumerate(ops):
            if not self._matches(op):
                continue
            if lognormal:
                factor = float(np.exp(sigma * rng.standard_normal()))
            else:
                factor = float(rng.uniform(1.0 - sigma, 1.0 + sigma))
            out[i] = durations[i] * factor
        return out

    def perturb_row(self, ops, row, rng, index):
        idx = index.jitter_indices(self.kinds)
        out = row.copy()
        if idx.size:
            # Sized draws consume the generator exactly like one scalar
            # draw per matching op, in submission order.
            if self.distribution == "lognormal":
                factors = np.exp(self.sigma * rng.standard_normal(idx.size))
            else:
                factors = rng.uniform(
                    1.0 - self.sigma, 1.0 + self.sigma, idx.size
                )
            out[idx] = row[idx] * factors
        return out


@dataclass(frozen=True)
class SlowDevice(PerturbationModel):
    """Persistent straggler: every op on the victim device(s) runs slower.

    ``num_devices`` victims are drawn (without replacement, seed-stable)
    from the graph's compute resource keys, unless ``devices`` pins them
    explicitly.  Models a thermally-throttled or contended GPU; under
    synchronous micro-batch slicing one slow replica gates its entire
    stage — the paper's tail-effect sensitivity.
    """

    factor: float = 1.5
    num_devices: int = 1
    devices: tuple = ()

    def __post_init__(self) -> None:
        if not 1.0 <= self.factor < math.inf:
            raise ValueError(
                f"straggler factor must be finite and >= 1, got {self.factor}"
            )
        if self.num_devices < 1 and not self.devices:
            raise ValueError("need num_devices >= 1 or explicit devices")

    def slots_needed(self) -> int:
        return len(self.devices) or self.num_devices

    def pick_victims(self, ops, rng) -> tuple:
        if self.devices:
            return tuple(self.devices)
        candidates = _compute_resource_keys(ops)
        if not candidates:
            return ()
        k = min(self.num_devices, len(candidates))
        idx = rng.choice(len(candidates), size=k, replace=False)
        return tuple(candidates[int(i)] for i in sorted(idx))

    def perturb(self, ops, durations, rng):
        victims = set(self.pick_victims(ops, rng))
        if not victims:
            return list(durations)
        out = list(durations)
        for i, op in enumerate(ops):
            if any(r in victims for r in op.resources):
                out[i] = durations[i] * self.factor
        return out

    def perturb_row(self, ops, row, rng, index):
        if self.devices:
            victims = tuple(self.devices)
        else:
            victims = _draw_victims(index.compute_keys(), self.num_devices, rng)
        out = row.copy()
        if victims:
            mask = index.holding_any(index.place(v) for v in victims)
            out[mask] = row[mask] * self.factor
        return out


@dataclass(frozen=True)
class DegradedLink(PerturbationModel):
    """Degraded or flaky communication links.

    ``num_links`` victim links are drawn from the resource keys held by
    transfer ops (``send``/``sendback`` tags), unless pinned via ``links``.
    With ``flaky_prob=None`` every transfer over a victim link is slowed by
    ``factor`` (persistent congestion); with ``flaky_prob=p`` each transfer
    independently hits the slow path with probability ``p`` (intermittent
    packet loss / retransmits).  Draws are consumed for every transfer op on
    a victim link, in submission order.
    """

    factor: float = 2.0
    num_links: int = 1
    flaky_prob: float | None = None
    links: tuple = ()

    def __post_init__(self) -> None:
        if not 1.0 <= self.factor < math.inf:
            raise ValueError(
                f"link degradation factor must be finite and >= 1, "
                f"got {self.factor}"
            )
        if self.flaky_prob is not None and not 0.0 <= self.flaky_prob <= 1.0:
            raise ValueError(f"flaky_prob must be in [0, 1], got {self.flaky_prob}")

    def slots_needed(self) -> int:
        # Transfers are group-level ops, alike in every graph.
        return 0

    def pick_victims(self, ops, rng) -> tuple:
        if self.links:
            return tuple(self.links)
        candidates = _comm_resource_keys(ops)
        if not candidates:
            return ()
        k = min(self.num_links, len(candidates))
        idx = rng.choice(len(candidates), size=k, replace=False)
        return tuple(candidates[int(i)] for i in sorted(idx))

    def perturb(self, ops, durations, rng):
        victims = set(self.pick_victims(ops, rng))
        if not victims:
            return list(durations)
        out = list(durations)
        for i, op in enumerate(ops):
            if op.tags.get("kind") not in COMM_KINDS:
                continue
            if not any(r in victims for r in op.resources):
                continue
            if self.flaky_prob is None or rng.random() < self.flaky_prob:
                out[i] = durations[i] * self.factor
        return out

    def perturb_row(self, ops, row, rng, index):
        if self.links:
            victims = tuple(self.links)
        else:
            victims = _draw_victims(index.comm_keys(), self.num_links, rng)
        out = row.copy()
        if not victims:
            return out
        idx = index.comm_indices_on(victims)
        if idx.size == 0:
            return out
        if self.flaky_prob is None:
            out[idx] = row[idx] * self.factor
        else:
            # One uniform draw per candidate transfer, submission order —
            # the same stream the scalar loop consumes.
            hit = idx[rng.random(idx.size) < self.flaky_prob]
            out[hit] = row[hit] * self.factor
        return out


@dataclass(frozen=True)
class TransientFailure(PerturbationModel):
    """Transient device failure with stall-and-recover semantics.

    The victim device freezes for ``stall`` seconds at some point during the
    iteration and then resumes: the op running when the failure strikes
    holds its resources for its own duration *plus* the stall (checkpoint
    reload / NCCL re-establish / driver reset), and everything scheduled
    behind it waits — exactly how a synchronous pipeline experiences a
    recoverable fault.

    ``position=None`` picks the stalled op uniformly among the victim
    device's ops; ``position=q`` (in ``[0, 1]``) pins it at that quantile of
    the device's submission-ordered op list (0 = first op, 1 = last), which
    makes "failure during warm-up" vs "failure during drain" scriptable.
    """

    stall: float = 1.0
    num_failures: int = 1
    devices: tuple = ()
    position: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.stall < math.inf:
            raise ValueError(f"stall must be finite and >= 0, got {self.stall}")
        if self.position is not None and not 0.0 <= self.position <= 1.0:
            raise ValueError(f"position must be in [0, 1], got {self.position}")
        if self.num_failures < 1 and not self.devices:
            raise ValueError("need num_failures >= 1 or explicit devices")

    def slots_needed(self) -> int:
        return len(self.devices) or self.num_failures

    def pick_victims(self, ops, rng) -> tuple:
        if self.devices:
            return tuple(self.devices)
        candidates = _compute_resource_keys(ops)
        if not candidates:
            return ()
        k = min(self.num_failures, len(candidates))
        idx = rng.choice(len(candidates), size=k, replace=False)
        return tuple(candidates[int(i)] for i in sorted(idx))

    def perturb(self, ops, durations, rng):
        victims = self.pick_victims(ops, rng)
        if not victims or self.stall == 0.0:
            return list(durations)
        out = list(durations)
        for victim in victims:
            device_ops = [
                i for i, op in enumerate(ops) if victim in op.resources
            ]
            if not device_ops:
                continue
            if self.position is None:
                k = int(rng.integers(len(device_ops)))
            else:
                k = min(
                    int(self.position * len(device_ops)), len(device_ops) - 1
                )
            out[device_ops[k]] += self.stall
        return out

    def perturb_row(self, ops, row, rng, index):
        if self.devices:
            victims = tuple(self.devices)
        else:
            victims = _draw_victims(
                index.compute_keys(), self.num_failures, rng
            )
        out = row.copy()
        if not victims or self.stall == 0.0:
            return out
        for victim in victims:
            device_ops = index.ops_holding(index.place(victim))
            if not device_ops:
                continue
            if self.position is None:
                k = int(rng.integers(len(device_ops)))
            else:
                k = min(
                    int(self.position * len(device_ops)), len(device_ops) - 1
                )
            out[device_ops[k]] += self.stall
        return out


def required_slots(models) -> int | None:
    """Victim slots per stage a model set needs: the sum of its models'
    :meth:`~PerturbationModel.slots_needed`, or ``None`` (every replica)
    when any model needs every replica."""
    total = 0
    for model in models:
        k = model.slots_needed()
        if k is None:
            return None
        total += k
    return total


def require_slots(graph, need: int | None) -> None:
    """Refuse a graph whose victim slots cannot hold ``need`` victims of
    each folded class (``need=None``: a graph with no folded class)."""
    short = [
        c for c in graph.members
        if need is None or len(graph.victim_slots.get(c, ())) < need
    ]
    if short:
        want = "the per-replica graph" if need is None else (
            f"{need} victim slot{'s' * (need != 1)} per folded class"
        )
        raise ValueError(
            f"the fault models need {want}, but class {short[0]!r} has "
            f"{len(graph.victim_slots.get(short[0], ()))}: build the graph "
            f"with build_graph(slots={need})"
        )


def perturb_durations(graph, models, seeds, placements=None) -> np.ndarray:
    """Perturbed duration matrix: one row per seed, one column per op.

    On the per-replica graph, row ``s`` is bit-identical to the duration
    column that :func:`repro.faults.inject.perturb_graph` would bake into
    its rebuilt graph for ``seeds[s]`` — same
    ``SeedSequence(seed).spawn(len(models))`` child-generator layout, same
    draw order within each model — but without rebuilding ``len(seeds)``
    graphs.  The batched simulation engine
    (:func:`repro.sim.batched.run_batched`) consumes this matrix directly.

    One :class:`_GraphIndex` is built up front and shared across all rows,
    so per-seed cost is just the random draws plus a few vectorized
    multiplies rather than repeated O(ops) python scans.

    ``graph`` may fold replicas if it has the victim slots the models need
    (:func:`required_slots`): each row then places its victims on slots,
    and ``placements``, when given a list, receives each row's
    :meth:`_GraphIndex.placement` — which device ran on which chain.
    """
    ops = graph.ops()
    models = list(models)
    if models:
        require_slots(graph, required_slots(models))
    seeds = [int(s) for s in seeds]
    base = np.array(graph.duration_list, dtype=np.float64)
    out = np.empty((len(seeds), base.size), dtype=np.float64)
    if not models or not ops:
        out[:] = base
        if placements is not None:
            placements.extend({} for _ in seeds)
        return out
    index = _GraphIndex(graph)
    for s, seed in enumerate(seeds):
        index.new_row()
        row = base
        children = np.random.SeedSequence(seed).spawn(len(models))
        for model, child in zip(models, children):
            row = model.perturb_row(
                ops, row, np.random.default_rng(child), index
            )
            if row.shape != base.shape:
                raise ValueError(
                    f"{type(model).__name__}.perturb_row returned "
                    f"{row.shape[0]} durations for {len(ops)} ops"
                )
        out[s] = row
        if placements is not None:
            placements.append(index.placement())
    return out
