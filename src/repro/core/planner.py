"""DAPPLE planner: dynamic programming over splits, replication, placement.

Implements the paper's §IV-C formulation.  A search state ``TPL(j, used)``
means: the first ``j`` layers are partitioned into concrete stages placed on
the GPUs recorded in the per-machine occupancy vector ``used``; the
remaining layers form one last stage replicated over every free GPU.  Every
state therefore *is* a complete plan whose latency (eq. 1–2) scores it.

Transitions refine the tail: pick the next split ``j'``, a GPU count ``m'``
and one of the three placement policies for the new stage, yielding state
``TPL(j', used + alloc)``.  States are deduplicated on
``(j, sorted(used), gpus_in_use)`` — machines are homogeneous so sorted
occupancy is cost-equivalent — keeping the lowest-latency prefix
(memoized search, paper Fig. 6).  A configurable beam per layer-depth keeps
the search "offline … within a few seconds" for 50-layer models; setting
``beam_width=None`` disables pruning for exhaustive search on small models.

Micro-batching: the global micro-batch equals the model's profiling batch
``b`` (Table II), so the pipeline runs ``M = GBS / b`` micro-batches; a
stage replicated ``r``-ways splits each micro-batch into ``b/r``-sample
slices per device (paper Fig. 8a).  A pure-DP plan then degenerates to
``M`` gradient-accumulation steps with per-device slices of ``b/G`` —
exactly the DP-with-local-accumulation baseline of §II.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace

import numpy as np

import repro.obs as obs

from repro.cluster.topology import Cluster
from repro.core.fast_scan import shared_scanner
from repro.core.latency import PlanEstimate, evaluate_plan
from repro.core.placement import allocate
from repro.core.plan import ParallelPlan, Stage
from repro.core.profiler import ModelProfile
from repro.models.graph import GRAD_BYTES_PER_PARAM, FP32


@dataclass(frozen=True)
class PlannerConfig:
    """Search knobs.

    Attributes
    ----------
    micro_batch_size:
        Per-device micro-batch; defaults to the model's profiling batch.
    beam_width:
        States kept per layer depth (None = exhaustive).
    policies:
        Placement policies to enumerate for each new stage.
    max_stages:
        Optional cap on computation-stage count.
    enforce_memory:
        Drop plans whose estimated per-device peak memory exceeds capacity.
    """

    micro_batch_size: int | None = None
    beam_width: int | None = 48
    policies: tuple[str, ...] = ("fresh_first", "append_first", "scatter_first")
    max_stages: int | None = None
    #: Minimum computation-stage count (2 = force a pipeline, exclude DP).
    min_stages: int = 1
    enforce_memory: bool = True
    #: Relative latency penalty per extra computation stage, modelling
    #: per-stage runtime overheads the analytical model omits (split/concat
    #: kernels, pipeline management).  0.0 = pure analytical comparison;
    #: the ablation bench sweeps this.
    stage_overhead_frac: float = 0.0
    #: Also consider Megatron-style interleaved virtual-stage candidates
    #: (an extension beyond the paper's single-chunk stages).
    consider_interleaved: bool = False
    #: Also collect the K best distinct complete plans seen during the
    #: search into :attr:`PlanResult.top_plans` (0 = don't).  Robust
    #: planning (:mod:`repro.faults.robust`) re-scores these runners-up
    #: under perturbation ensembles.
    keep_top_k: int = 0


@dataclass
class PlanResult:
    """Planner output: the winning plan plus search metadata."""

    plan: ParallelPlan
    estimate: PlanEstimate
    states_explored: int
    plans_evaluated: int
    infeasible_plans: int
    #: ``(analytical latency, plan)`` pairs for the best distinct plans seen
    #: during the search, ascending by latency (the winner included first).
    #: Populated only with ``PlannerConfig.keep_top_k > 0``.
    top_plans: list = field(default_factory=list)


@dataclass(order=True)
class _State:
    latency: float
    j: int = field(compare=False)
    used: tuple = field(compare=False)
    stages: tuple = field(compare=False)


def _largest_divisor_leq(n: int, cap: int) -> int:
    """Largest divisor of ``n`` that is ≤ ``cap`` (≥ 1).

    Enumerates divisor *pairs* ``(d, n // d)`` up to √n — O(√n) instead of
    the naïve descending scan, which is O(n) when ``cap`` sits just below a
    large prime gap in the divisor lattice (e.g. ``n = 2·p``).
    """
    cap = max(1, min(cap, n))
    best = 1
    d = 1
    while d * d <= n:
        if n % d == 0:
            if best < d <= cap:
                best = d
            e = n // d
            if best < e <= cap:
                best = e
        d += 1
    return best


class Planner:
    """Searches for the minimum-latency hybrid plan on a cluster."""

    def __init__(
        self,
        profile: ModelProfile,
        cluster: Cluster,
        global_batch_size: int,
        config: PlannerConfig | None = None,
    ):
        self.profile = profile
        self.cluster = cluster
        self.gbs = int(global_batch_size)
        self.config = config or PlannerConfig()
        if self.gbs < 1:
            raise ValueError(f"global batch size must be >=1, got {global_batch_size}")
        self._mbs_dev = self.config.micro_batch_size or profile.graph.profile_batch
        self._plans_evaluated = 0
        self._infeasible = 0
        # M is split-independent for multi-stage plans, so the scan kernel
        # can share it across a whole state's transition batch.
        self._m_multi = _largest_divisor_leq(
            self.gbs, max(1, self.gbs // self._mbs_dev)
        )
        # Bounded worst-at-root heap of top-K candidates: entries are
        # (-latency, seq, payload) where payload is either a finished plan
        # or a (j, used, stages) state to complete lazily.  Oversized vs
        # keep_top_k so post-hoc dedupe still yields K distinct plans.
        self._topk_cap = max(4 * self.config.keep_top_k, 0)
        self._topk: list = []
        self._topk_seq = 0
        # (split j', replication m') -> number of candidate scorings, filled
        # only while observability is enabled (see _flush_obs).
        self._score_counts: dict[tuple[int, int], int] = {}
        # Per-occupancy memoization: allocation rows are a function of
        # (used,) only, and the free-device tuple of each resulting
        # occupancy recurs across states and levels.
        self._rows_cache: dict[tuple, tuple] = {}
        self._free_cache: dict[tuple, tuple] = {}
        self._sig_cache: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------ #
    # Plan completion & evaluation
    # ------------------------------------------------------------------ #
    def _free_devices(self, used: tuple) -> list:
        out = []
        for mid, machine in enumerate(self.cluster.machines):
            out.extend(machine.devices[used[mid] :])
        return out

    def _free_tuple(self, used: tuple) -> tuple:
        """Memoized tuple of free devices for one occupancy signature."""
        out = self._free_cache.get(used)
        if out is None:
            out = tuple(self._free_devices(used))
            self._free_cache[used] = out
        return out

    def _alloc_rows(self, used: tuple) -> tuple:
        """Memoized ``(rows, groups, tails, row_key)`` for one occupancy.

        The rows are every replication count × every policy allocation of
        the free devices.  Occupancy signatures recur heavily across states
        and levels, so the rows, their device/tail tuples, and a hashable
        row_key under which the scanner memoizes per-row coefficient
        bundles are cached per occupancy.
        """
        entry = self._rows_cache.get(used)
        if entry is None:
            free_total = self.cluster.num_devices - sum(used)
            rows = []
            for m2 in range(1, free_total):
                rows.extend(allocate(self.cluster, used, m2, self.config.policies))
            entry = (
                rows,
                [p.devices for p in rows],
                [self._free_tuple(p.new_used) for p in rows],
                (self.config.policies, used),
            )
            self._rows_cache[used] = entry
        return entry

    def _num_micro_batches(self, stages: list[Stage]) -> int:
        # Global micro-batch = the profiling batch (Table II); replicated
        # stages each process an even slice of it (paper Fig. 8a).  So
        # M = GBS / micro_batch for pipelines.  A single-stage (pure DP)
        # plan instead runs gradient accumulation with the *per-device*
        # micro-batch at the profiling size: M = GBS / (b · G).
        if len(stages) == 1:
            target = max(1, self.gbs // (self._mbs_dev * stages[0].replicas))
        else:
            target = max(1, self.gbs // self._mbs_dev)
        return _largest_divisor_leq(self.gbs, target)

    def complete(self, j: int, used: tuple, prefix: tuple) -> ParallelPlan | None:
        """Close a state into a full plan: layers [j, N) on all free GPUs."""
        free = self._free_devices(used)
        if not free:
            return None
        n = self.profile.num_layers
        stages = list(prefix)
        if j < n:
            stages.append(Stage(j, n, tuple(free)))
        if self.config.max_stages is not None and len(stages) > self.config.max_stages:
            return None
        m = self._num_micro_batches(stages)
        return ParallelPlan(
            model=self.profile.graph,
            stages=stages,
            global_batch_size=self.gbs,
            num_micro_batches=m,
        )

    def plan_fits_memory(self, plan: ParallelPlan) -> bool:
        """Conservative per-device peak-memory feasibility check.

        Persistent optimizer state + gradient buffer + up to
        ``min(S−i, M)`` resident micro-batch activations per stage (the
        early-backward bound, paper §V-C), without re-computation.
        Demands are aggregated per *device*, so interleaved plans placing
        several stages on one device are checked correctly.
        """
        s_count = plan.num_stages
        demand: dict[int, float] = {}
        caps: dict[int, float] = {}
        for i, stage in enumerate(plan.stages):
            params = self.profile.param_bytes(stage.layer_lo, stage.layer_hi)
            persistent = (
                self.profile.state_bytes(stage.layer_lo, stage.layer_hi)
                + params / FP32 * GRAD_BYTES_PER_PARAM
            )
            act_per_mb = self.profile.stored_bytes(
                stage.layer_lo, stage.layer_hi, plan.device_batch(i)
            )
            in_flight = min(s_count - i, plan.num_micro_batches)
            stage_demand = persistent + in_flight * act_per_mb
            for d in stage.devices:
                demand[d.global_id] = demand.get(d.global_id, 0.0) + stage_demand
                caps[d.global_id] = d.spec.memory_bytes
        return all(demand[g] <= caps[g] for g in demand)

    def _score(self, plan: ParallelPlan | None) -> tuple[float, PlanEstimate | None]:
        if plan is None:
            return float("inf"), None
        self._plans_evaluated += 1
        if plan.num_stages < self.config.min_stages:
            return float("inf"), None
        if self.config.enforce_memory and not self.plan_fits_memory(plan):
            self._infeasible += 1
            return float("inf"), None
        est = evaluate_plan(self.profile, self.cluster, plan)
        penalty = 1.0 + self.config.stage_overhead_frac * (plan.num_stages - 1)
        return est.latency * penalty, est

    # ------------------------------------------------------------------ #
    # Top-K candidate collection
    # ------------------------------------------------------------------ #
    def _note_candidate(self, latency: float, payload) -> None:
        """Offer one finite-latency candidate to the bounded top-K heap."""
        if not self._topk_cap:
            return
        heap = self._topk
        if len(heap) < self._topk_cap:
            self._topk_seq += 1
            heapq.heappush(heap, (-latency, self._topk_seq, payload))
        elif latency < -heap[0][0]:
            self._topk_seq += 1
            heapq.heapreplace(heap, (-latency, self._topk_seq, payload))

    def _topk_accepts(self, latency: float) -> bool:
        """Would :meth:`_note_candidate` keep a candidate at ``latency``?"""
        return bool(self._topk_cap) and (
            len(self._topk) < self._topk_cap or latency < -self._topk[0][0]
        )

    def _materialize_top_plans(self) -> list:
        """Resolve heap payloads into ≤ K distinct (latency, plan) pairs."""
        out: list = []
        seen: set[tuple] = set()
        k = self.config.keep_top_k
        for neg_lat, seq, payload in sorted(self._topk, key=lambda t: (-t[0], t[1])):
            if len(out) >= k:
                break
            if isinstance(payload, ParallelPlan):
                plan = payload
            else:
                j, used, stages = payload
                plan = self.complete(j, used, stages)
                if plan is None:
                    continue
            sig = (plan.notation, plan.split_notation, plan.num_micro_batches)
            if sig in seen:
                continue
            seen.add(sig)
            out.append((-neg_lat, plan))
        return out

    # ------------------------------------------------------------------ #
    # Canonical candidates
    # ------------------------------------------------------------------ #
    def straight_plan(self) -> ParallelPlan | None:
        """Balanced straight pipeline: one stage per device, no replication.

        Layers are assigned greedily so each stage's forward compute stays
        close to ``total / G`` — the paper's "straight" plan family
        (Table V), e.g. GNMT-16 with one LSTM layer per device on Config C.
        """
        n = self.profile.num_layers
        g = self.cluster.num_devices
        if g > n or g < 2:
            return None
        total = self.profile.fwd_prefix[-1]
        bounds = [0]
        for k in range(1, g):
            target = total * k / g
            idx = int(np.searchsorted(self.profile.fwd_prefix, target))
            idx = max(bounds[-1] + 1, min(idx, n - (g - k)))
            bounds.append(idx)
        bounds.append(n)
        devices = self.cluster.devices
        stages = [Stage(bounds[i], bounds[i + 1], (devices[i],)) for i in range(g)]
        m = self._num_micro_batches(stages)
        return ParallelPlan(
            model=self.profile.graph,
            stages=stages,
            global_batch_size=self.gbs,
            num_micro_batches=m,
        )

    def interleaved_plans(self, virtual_depths: tuple[int, ...] = (2, 3)) -> list:
        """Interleaved virtual-stage candidates (extension beyond the paper)."""
        from repro.core.plan import interleaved_straight_plan

        n = self.profile.num_layers
        g = self.cluster.num_devices
        out = []
        for v in virtual_depths:
            if g * v > n or g < 2:
                continue
            target = max(1, self.gbs // self._mbs_dev)
            m = _largest_divisor_leq(self.gbs, target)
            out.append(
                interleaved_straight_plan(
                    self.profile.graph, self.cluster.devices, self.gbs, m, v
                )
            )
        return out

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def search(self) -> PlanResult:
        with obs.span(
            "planner.search",
            model=self.profile.graph.name,
            gbs=self.gbs,
            devices=self.cluster.num_devices,
        ) as sp:
            result = self._search()
            sp.set(
                plan=result.plan.notation,
                plans_evaluated=result.plans_evaluated,
            )
        if obs.enabled():
            self._flush_obs(result)
        return result

    def _flush_obs(self, result: PlanResult) -> None:
        """Publish search counters to the metrics registry (enabled only)."""
        obs.counter("planner.states_expanded").inc(result.states_explored)
        obs.counter("planner.plans_evaluated").inc(result.plans_evaluated)
        obs.counter("planner.infeasible_plans").inc(result.infeasible_plans)
        obs.counter("planner.topk_kept").inc(len(result.top_plans))
        for (split, repl), cnt in sorted(self._score_counts.items()):
            obs.counter("planner.scored", split=split, repl=repl).inc(cnt)

    def _replay_level(self, specs: list, res, next_level: dict):
        """Vectorized replay of the scalar beam loop over one level's scores.

        The scalar loop (the oracle :class:`repro.check.oracles.ScalarPlanner`)
        iterates candidates in (state, split, row) order and, per dedup key
        ``(j2, sorted occupancy, gpus)``: inserts the key at its first finite
        candidate, keeps the lowest-latency candidate with ties broken by
        arrival, and updates the global best on strict improvement.  All three reduce to lexsorts over a rank array encoding
        that iteration order, so ``next_level`` ends up with identical
        contents *and* insertion order (``heapq.nsmallest`` is stable, so
        dict order feeds beam tie-breaking).  Top-K collection depends on
        evolving heap state, so with ``keep_top_k`` it replays sequentially
        in rank order over candidates prefiltered by the entry threshold
        (which never rises while the heap is full).

        Returns ``(latency, j2, new_used, stages)`` for the level's winning
        candidate (lowest latency, earliest arrival) or ``None``.
        """
        lat = res.latency
        finite = np.isfinite(lat)
        if not finite.any():
            return None
        t_idx, k_idx = np.nonzero(finite)
        lats = lat[finite]
        n = self.profile.num_layers
        spec_of = res.row_state
        r_within = res.row_index
        j2s = res.splits[k_idx]
        J = res.splits.size
        r_max = int(r_within.max()) + 1
        # Scalar iteration order: state asc, split asc, row asc.
        rank = (spec_of[t_idx] * J + k_idx) * r_max + r_within[t_idx]

        # Dedup-key codes: occupancy signatures shared across states.
        sig_cache = self._sig_cache
        code_of: dict[tuple, int] = {}
        row_code = np.empty(lat.shape[0], dtype=np.int64)
        for t in range(lat.shape[0]):
            placed = specs[spec_of[t]][1][r_within[t]]
            sig = sig_cache.get(placed.new_used)
            if sig is None:
                sig = tuple(sorted(placed.new_used))
                sig_cache[placed.new_used] = sig
            c = code_of.get(sig)
            if c is None:
                c = len(code_of)
                code_of[sig] = c
            row_code[t] = c
        keys = row_code[t_idx] * (n + 1) + j2s

        def materialize(pos: int):
            t = t_idx[pos]
            state, rows = specs[spec_of[t]]
            placed = rows[r_within[t]]
            j2 = int(j2s[pos])
            stages = state.stages + (Stage(state.j, j2, placed.devices),)
            return state, placed, j2, stages

        # Top-K heap replay (heap state evolves with arrival order).
        if self._topk_cap:
            order = np.argsort(rank)
            if len(self._topk) >= self._topk_cap:
                order = order[lats[order] < -self._topk[0][0]]
            for pos in order:
                lat_v = float(lats[pos])
                if not self._topk_accepts(lat_v):
                    continue
                _state, placed, j2, stages = materialize(pos)
                self._note_candidate(lat_v, (j2, placed.new_used, stages))

        # Per-key winners: lowest latency, ties to the earliest candidate.
        order_win = np.lexsort((rank, lats, keys))
        kw = keys[order_win]
        first_w = np.ones(kw.size, dtype=bool)
        first_w[1:] = kw[1:] != kw[:-1]
        winners = order_win[first_w]  # one per distinct key, keys ascending
        # Insertion order: each key enters the dict at its first finite
        # candidate, so order keys by their minimum rank.
        order_ins = np.lexsort((rank, keys))
        ki = keys[order_ins]
        first_i = np.ones(ki.size, dtype=bool)
        first_i[1:] = ki[1:] != ki[:-1]
        touch_rank = rank[order_ins[first_i]]  # aligned with winners
        for pos in winners[np.argsort(touch_rank)]:
            _state, placed, j2, stages = materialize(pos)
            key = (j2, sig_cache[placed.new_used], sum(placed.new_used))
            next_level[key] = _State(float(lats[pos]), j2, placed.new_used, stages)

        best_pos = int(np.lexsort((rank, lats))[0])
        _state, placed, j2, stages = materialize(best_pos)
        return float(lats[best_pos]), j2, placed.new_used, stages

    def _consider(self, plan: ParallelPlan | None) -> float:
        """Score one complete plan; keep it if it beats the best so far."""
        lat, est = self._score(plan)
        if lat < self._best_latency:
            self._best_plan, self._best_est, self._best_latency = plan, est, lat
        if est is not None:
            self._note_candidate(lat, plan)
        return lat

    def _expand_level(self, frontier: list, next_level: dict, track: bool) -> None:
        """Score every transition of one frontier level into ``next_level``.

        Collects every state's allocation rows (memoized per occupancy),
        scores the whole level in one
        :meth:`~repro.core.fast_scan.CompletionScanner.scan_level` call, then
        replays the scalar insertion order over the latency matrix.
        """
        n = self.profile.num_layers
        max_stages = self.config.max_stages
        specs: list[tuple[_State, list]] = []
        level: list[tuple] = []
        for state in frontier:
            if max_stages is not None and len(state.stages) + 2 > max_stages:
                continue
            rows, groups, tails, row_key = self._alloc_rows(state.used)
            if not rows or state.j + 1 >= n:
                continue
            if track:
                per_repl: dict[int, int] = {}
                for placed in rows:
                    r_count = len(placed.devices)
                    per_repl[r_count] = per_repl.get(r_count, 0) + 1
                sc = self._score_counts
                for j2 in range(state.j + 1, n):
                    for r_count, cnt in per_repl.items():
                        key = (j2, r_count)
                        sc[key] = sc.get(key, 0) + cnt
            specs.append((state, rows))
            level.append((state.j, state.stages, groups, tails, row_key))
        if not specs:
            return
        res = shared_scanner(self.profile, self.cluster).scan_level(
            level,
            global_batch_size=self.gbs,
            num_micro_batches=self._m_multi,
            enforce_memory=self.config.enforce_memory,
            min_stages=self.config.min_stages,
            stage_overhead_frac=self.config.stage_overhead_frac,
        )
        self._plans_evaluated += res.evaluated
        self._infeasible += res.infeasible
        if track:
            obs.histogram(
                "planner.level_batch", buckets=(1, 4, 16, 64, 256, 1024)
            ).observe(res.latency.shape[0])
        winner = self._replay_level(specs, res, next_level)
        if winner is not None and winner[0] < self._best_latency:
            lat_v, j2, new_used, stages = winner
            self._best_plan = self.complete(j2, new_used, stages)
            self._best_est = evaluate_plan(self.profile, self.cluster, self._best_plan)
            self._best_latency = lat_v

    def _search(self) -> PlanResult:
        g_total = self.cluster.num_devices
        zeros = tuple(0 for _ in range(self.cluster.num_machines))
        self._best_plan: ParallelPlan | None = None
        self._best_est: PlanEstimate | None = None
        self._best_latency = float("inf")
        states_explored = 0

        # Level 0: the pure-DP completion of the empty prefix, plus the
        # canonical balanced straight pipeline (beam search would otherwise
        # prune straight prefixes, whose early completions score poorly).
        root_latency = self._consider(self.complete(0, zeros, ()))
        if self.config.max_stages is None or self.config.max_stages >= g_total:
            self._consider(self.straight_plan())
        if self.config.consider_interleaved:
            for plan in self.interleaved_plans():
                self._consider(plan)
        frontier: list[_State] = [_State(root_latency, 0, zeros, ())]
        # Hoisted enabled-check: scoring-count bookkeeping touches the
        # innermost loops, so the disabled path must skip it entirely.
        track = obs.enabled()

        # Levels advance in j; dedupe on (sorted occupancy, gpus used).
        while frontier:
            if track:
                obs.histogram(
                    "planner.frontier_size", buckets=(1, 4, 16, 64, 256, 1024)
                ).observe(len(frontier))
            states_explored += len(frontier)
            next_level: dict[tuple, _State] = {}
            self._expand_level(frontier, next_level, track)
            candidates = list(next_level.values())
            if self.config.beam_width is not None and len(candidates) > self.config.beam_width:
                if track:
                    obs.counter("planner.beam_pruned").inc(
                        len(candidates) - self.config.beam_width
                    )
                candidates = heapq.nsmallest(self.config.beam_width, candidates)
            frontier = candidates

        if self._best_plan is None or self._best_est is None:
            raise RuntimeError(
                f"no feasible plan found for {self.profile.graph.name} on "
                f"{self.cluster!r} at GBS={self.gbs} (all candidates exceed "
                f"device memory)"
            )
        return PlanResult(
            plan=self._best_plan,
            estimate=self._best_est,
            states_explored=states_explored,
            plans_evaluated=self._plans_evaluated,
            infeasible_plans=self._infeasible,
            top_plans=self._materialize_top_plans(),
        )


def plan_best(
    profile: ModelProfile,
    cluster: Cluster,
    global_batch_size: int,
    config: PlannerConfig | None = None,
    *,
    cache=None,
) -> PlanResult:
    """One-call façade: search (or recall) and return the best plan.

    ``cache`` is an optional :class:`repro.core.plancache.PlanCache`; a hit
    returns a :class:`PlanResult` bit-identical to a fresh search (the plan
    is content-addressed by the problem fingerprint and the estimate is
    recomputed deterministically), a miss searches and stores.
    """
    cfg = config or PlannerConfig()
    if cache is not None:
        cached = cache.lookup(profile, cluster, global_batch_size, cfg)
        if cached is not None:
            return cached
    result = Planner(profile, cluster, global_batch_size, cfg).search()
    if cache is not None:
        cache.store(profile, cluster, global_batch_size, cfg, result)
    return result


def plan_paper_family(
    profile: ModelProfile,
    cluster: Cluster,
    global_batch_size: int,
    config: PlannerConfig | None = None,
) -> PlanResult:
    """Best plan restricted to the families the paper's Table V reports.

    Searches only DP, all two-stage ``P:Q`` splits, and the balanced
    straight pipeline.  Useful to compare the unrestricted search against
    the published plan shapes: on our cost model the unrestricted planner
    sometimes finds a 3+-stage plan a few percent faster than the best
    paper-family plan.
    """
    cfg = replace(config or PlannerConfig(), max_stages=2)
    planner = Planner(profile, cluster, global_batch_size, cfg)
    result = planner.search()
    straight = planner.straight_plan()
    if straight is not None:
        best_penalized = result.estimate.latency * (
            1.0 + cfg.stage_overhead_frac * (result.plan.num_stages - 1)
        )
        lat, est = planner._score(straight)
        if est is not None and lat < best_penalized:
            result = PlanResult(
                plan=straight,
                estimate=est,
                states_explored=result.states_explored,
                plans_evaluated=planner._plans_evaluated,
                infeasible_plans=planner._infeasible,
            )
    return result
