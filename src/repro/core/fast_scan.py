"""Vectorized completion scanning for the planner's DP search.

The planner's inner loop scores the *completion* of a transition
``TPL(j, used) → TPL(j2, used + alloc)``: a plan made of the state's frozen
prefix stages, one new stage covering layers ``[j, j2)`` on the allocated
group, and a tail stage covering ``[j2, N)`` on the remaining free devices.
Every cost term of that plan is affine in the profile's layer prefix sums,
so for a fixed ``(state, allocation)`` the scan over all splits ``j2``
vectorizes — and allocations only differ per-row, so the whole
``(allocation row, split)`` grid of every state of one frontier level
evaluates in one numpy pass (:meth:`CompletionScanner.scan_level`).

:class:`CompletionScanner` implements that kernel with two guarantees:

* **Bit-identical latencies.**  Both :mod:`repro.core.latency` and this
  module compute every range-sum as a difference of left-to-right running
  prefix sums (``np.cumsum`` order), and :func:`repro.cluster.transfer
  .transfer_time` converts per-NIC flow counts to bytes with one canonical
  multiply — so the vectorized mirror performs the *same IEEE-754 operation
  sequence* as the scalar model and reproduces its latencies exactly, not
  just approximately.  ``tests/core/test_planner_equivalence.py`` holds the
  planner to that contract across the model zoo, against the scalar
  oracle :class:`repro.check.oracles.ScalarPlanner`.
* **Memoized coefficients.**  Transfer and AllReduce costs depend on the
  device groups only through a small coefficient record (flow counts, link
  specs, ring sizes).  Those records — and per-``(layer_lo, layer_hi)``
  persistent-memory terms — are cached on the scanner, so repeated states
  stop recomputing identical terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster.collectives import allreduce_time
from repro.cluster.device import Device
from repro.cluster.topology import Cluster
from repro.cluster.transfer import COPY_BANDWIDTH, COPY_LAUNCH_OVERHEAD, transfer_time
from repro.core.profiler import ModelProfile
from repro.models.graph import FP32, GRAD_BYTES_PER_PARAM, OPTIMIZER_STATE_BYTES


# --------------------------------------------------------------------------- #
# Cost coefficients (memoized per device-group identity)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _TransferCoef:
    """Group-dependent constants of ``transfer_time`` for one (src, dst) pair.

    ``transfer_time`` depends on the byte count only through a handful of
    affine terms; everything else (flow counts, link specs, fan-in/out) is a
    function of the two device groups and is captured here once.
    """

    identical: bool  # sender ids == receiver ids → zero-cost transfer
    n_flows: int
    intra_links: tuple[tuple[float, float], ...]  # distinct (lat, bw) pairs
    worst_count: int  # max per-NIC flow count; 0 → no inter-machine flow
    inter_lat: float
    inter_bw: float
    n_senders: int
    n_receivers: int


@dataclass(frozen=True)
class _AllreduceCoef:
    """Group-dependent constants of ``allreduce_time`` (ring sizes, links)."""

    n: int
    single_machine: bool
    intra_lat: float
    intra_bw: float
    inter_lat: float
    inter_bw: float
    max_local: int
    n_machines: int


def _apply_transfer(c: _TransferCoef, nbytes: np.ndarray) -> np.ndarray:
    """Vectorized ``transfer_time`` — the scalar op sequence, elementwise."""
    if c.identical:
        return np.zeros_like(nbytes)
    flow = nbytes / c.n_flows
    intra_max = 0.0
    for lat, bw in c.intra_links:
        intra_max = np.maximum(intra_max, lat + flow / bw)
    if c.worst_count:
        inter_max = c.inter_lat + (c.worst_count * flow) / c.inter_bw
    else:
        inter_max = 0.0
    reshaping = 0.0
    if c.n_receivers > 1:
        reshaping = COPY_LAUNCH_OVERHEAD + (nbytes / c.n_senders) / COPY_BANDWIDTH
    if c.n_senders > 1:
        reshaping = reshaping + (
            COPY_LAUNCH_OVERHEAD + (nbytes / c.n_receivers) / COPY_BANDWIDTH
        )
    t = np.maximum(intra_max, inter_max) + reshaping
    return np.where(nbytes > 0, t, 0.0)


def _apply_allreduce(c: _AllreduceCoef, nbytes: np.ndarray) -> np.ndarray:
    """Vectorized ``allreduce_time`` — the scalar op sequence, elementwise."""
    if c.n <= 1:
        return np.zeros_like(nbytes)

    def ring(nb: np.ndarray, n: int, bw: float, lat: float) -> np.ndarray:
        volume = 2.0 * (n - 1) / n * nb
        return volume / bw + 2.0 * (n - 1) * lat

    if c.single_machine:
        t = ring(nbytes, c.n, c.intra_bw, c.intra_lat)
        return np.where(nbytes > 0, t, 0.0)
    flat = ring(nbytes, c.n, c.inter_bw, c.inter_lat)
    hier = 0.0
    if c.max_local > 1:
        hier = hier + ring(nbytes, c.max_local, c.intra_bw, c.intra_lat)
    if c.n_machines > 1:
        hier = hier + ring(nbytes, c.n_machines, c.inter_bw, c.inter_lat)
    return np.where(nbytes > 0, np.minimum(flat, hier), 0.0)


# --------------------------------------------------------------------------- #
# Scan result
# --------------------------------------------------------------------------- #
@dataclass
class LevelScanResult:
    """All completions of one frontier *level* (many states, one call).

    Rows of ``latency`` concatenate every state's allocation rows in frontier
    order; ``row_state[t]``/``row_index[t]`` map row ``t`` back to its spec
    and its allocation index within that spec.  The split axis is global —
    ``splits = arange(min_j_lo + 1, N)`` — and ``latency[t, k]`` is ``inf``
    wherever ``splits[k] <= j_lo`` of row ``t``'s state (no such completion)
    or the candidate was filtered (memory-infeasible or below
    ``min_stages``).  Finite entries are the (stage-overhead-penalized)
    analytical latencies of the plans putting layers ``[j_lo, splits[k])``
    on row ``t``'s group and ``[splits[k], N)`` on its free tail.
    """

    splits: np.ndarray  # (J,) global candidate j2 values
    latency: np.ndarray  # (T, J)
    row_state: np.ndarray  # (T,) spec index of each row
    row_index: np.ndarray  # (T,) allocation index within the spec
    evaluated: int
    infeasible: int


#: Row-chunk size bound for the level kernel: cap E·T_chunk·J elements so a
#: chunk's (E, T, J) work arrays stay ~16 MB each.
_LEVEL_CHUNK_ELEMS = 2_000_000


@dataclass
class _RowCoefs:
    """Per-allocation-row constants of one occupancy signature's row set.

    Everything here depends only on the (groups, tails) row list — not on
    the state's layer split or prefix — so the level kernel memoizes it per
    caller-provided ``row_key`` and a frontier state costs zero coefficient
    lookups after its occupancy signature first appears.
    """

    acoef_new: list  # _AllreduceCoef | None per row
    acoef_tail: list
    tcoef_f: list  # _TransferCoef per row, new → tail
    tcoef_b: list
    caps_new: np.ndarray
    caps_tail: np.ndarray
    len_new: np.ndarray  # group sizes as float64
    len_tail: np.ndarray
    ids_new: list  # per-row tuple of sender global ids (p2p memo keys)


class CompletionScanner:
    """Scores all ``(allocation, split)`` completions of a planner state.

    One scanner is built per search (per ``(profile, cluster)``); its
    coefficient caches persist across states so device groups that recur —
    which is almost all of them, since placement policies draw from a small
    set of shapes — pay the group analysis once.
    """

    def __init__(self, profile: ModelProfile, cluster: Cluster):
        self.profile = profile
        self.cluster = cluster
        self._tcoef: dict[tuple, _TransferCoef] = {}
        self._acoef: dict[tuple, _AllreduceCoef] = {}
        self._caps: dict[tuple, float] = {}
        self._persistent: dict[tuple[int, int], float] = {}
        self._p2p: dict[tuple, float] = {}
        self._ar_scalar: dict[tuple, float] = {}
        self._rowcoefs: dict = {}

    # ---------------------------- coefficients ---------------------------- #
    def _transfer_coef(
        self, senders: Sequence[Device], receivers: Sequence[Device]
    ) -> _TransferCoef:
        key = (
            tuple(d.global_id for d in senders),
            tuple(d.global_id for d in receivers),
        )
        coef = self._tcoef.get(key)
        if coef is not None:
            return coef
        cluster = self.cluster
        identical = set(key[0]) == set(key[1])
        intra_links: dict[tuple[float, float], None] = {}
        out_flows: dict[int, int] = {}
        in_flows: dict[int, int] = {}
        for s in senders:
            for r in receivers:
                if s.global_id == r.global_id:
                    continue
                if cluster.same_machine(s, r):
                    m = cluster.machines[s.machine_id]
                    intra_links[(m.intra_lat, m.intra_bw)] = None
                else:
                    out_flows[s.machine_id] = out_flows.get(s.machine_id, 0) + 1
                    in_flows[r.machine_id] = in_flows.get(r.machine_id, 0) + 1
        worst = max(max(out_flows.values(), default=0), max(in_flows.values(), default=0))
        coef = _TransferCoef(
            identical=identical,
            n_flows=len(senders) * len(receivers),
            intra_links=tuple(intra_links),
            worst_count=worst,
            inter_lat=cluster.inter.latency,
            inter_bw=cluster.inter.bandwidth,
            n_senders=len(senders),
            n_receivers=len(receivers),
        )
        self._tcoef[key] = coef
        return coef

    def _allreduce_coef(self, devices: Sequence[Device]) -> _AllreduceCoef:
        key = tuple(d.global_id for d in devices)
        coef = self._acoef.get(key)
        if coef is not None:
            return coef
        cluster = self.cluster
        m = cluster.machines[devices[0].machine_id]
        per_machine: dict[int, int] = {}
        for d in devices:
            per_machine[d.machine_id] = per_machine.get(d.machine_id, 0) + 1
        coef = _AllreduceCoef(
            n=len(devices),
            single_machine=not cluster.spans_machines(devices),
            intra_lat=m.intra_lat,
            intra_bw=m.intra_bw,
            inter_lat=cluster.inter.latency,
            inter_bw=cluster.inter.bandwidth,
            max_local=max(per_machine.values()),
            n_machines=len(per_machine),
        )
        self._acoef[key] = coef
        return coef

    def _min_capacity(self, devices: Sequence[Device]) -> float:
        key = tuple(d.global_id for d in devices)
        cap = self._caps.get(key)
        if cap is None:
            cap = min(d.spec.memory_bytes for d in devices)
            self._caps[key] = cap
        return cap

    def _persistent_bytes(self, lo: int, hi: int) -> float:
        """Optimizer state + gradient buffer of layers [lo, hi), memoized."""
        val = self._persistent.get((lo, hi))
        if val is None:
            params = self.profile.param_bytes(lo, hi)
            val = self.profile.state_bytes(lo, hi) + params / FP32 * GRAD_BYTES_PER_PARAM
            self._persistent[(lo, hi)] = val
        return val

    def _p2p_time(
        self, nbytes: float, senders: Sequence[Device], receivers: Sequence[Device]
    ) -> float:
        key = (
            nbytes,
            tuple(d.global_id for d in senders),
            tuple(d.global_id for d in receivers),
        )
        t = self._p2p.get(key)
        if t is None:
            t = transfer_time(self.cluster, nbytes, senders, receivers)
            self._p2p[key] = t
        return t

    def _allreduce_scalar(self, nbytes: float, devices: Sequence[Device]) -> float:
        key = (nbytes, tuple(d.global_id for d in devices))
        t = self._ar_scalar.get(key)
        if t is None:
            t = allreduce_time(nbytes, self.cluster, devices)
            self._ar_scalar[key] = t
        return t

    def _row_coefs(self, groups: Sequence, tails: Sequence, row_key) -> _RowCoefs:
        """Memoized per-row coefficient bundle for one row set (see _RowCoefs)."""
        if row_key is not None:
            rc = self._rowcoefs.get(row_key)
            if rc is not None:
                return rc
        rc = _RowCoefs(
            acoef_new=[
                self._allreduce_coef(g) if len(g) > 1 else None for g in groups
            ],
            acoef_tail=[
                self._allreduce_coef(t) if len(t) > 1 else None for t in tails
            ],
            tcoef_f=[self._transfer_coef(g, t) for g, t in zip(groups, tails)],
            tcoef_b=[self._transfer_coef(t, g) for g, t in zip(groups, tails)],
            caps_new=np.array([self._min_capacity(g) for g in groups]),
            caps_tail=np.array([self._min_capacity(t) for t in tails]),
            len_new=np.array([float(len(g)) for g in groups]),
            len_tail=np.array([float(len(t)) for t in tails]),
            ids_new=[tuple(d.global_id for d in g) for g in groups],
        )
        if row_key is not None:
            self._rowcoefs[row_key] = rc
        return rc

    # --------------------------- level kernel ------------------------------ #
    def scan_level(
        self,
        specs: Sequence[tuple],
        *,
        global_batch_size: int,
        num_micro_batches: int,
        enforce_memory: bool = True,
        min_stages: int = 1,
        stage_overhead_frac: float = 0.0,
    ) -> LevelScanResult:
        """Score every completion of a whole frontier level in one pass.

        ``specs`` is a sequence of ``(j_lo, prefix, groups, tails)`` tuples —
        one per frontier state — whose prefixes all have the *same* length
        (every state of search generation ``g`` carries exactly ``g`` frozen
        stages, so the extended-stage count ``E`` is uniform and the level
        stacks into one padded tensor).  Split-range aggregates are computed
        once per distinct ``j_lo``, tail aggregates and boundary bytes once
        for the whole level, and per-group coefficient vectors are shared
        across states and rows.  Rows are processed in chunks of at most
        ``_LEVEL_CHUNK_ELEMS / (E·J)`` to bound the working set.

        Finite entries are bit-identical to ``evaluate_plan(...).latency ·
        penalty`` on the corresponding
        :class:`~repro.core.plan.ParallelPlan`: every cost, pivot and ending
        term follows the scalar model's operation order, and the ending max
        skips only zero-AllReduce stages outside the level-wide candidate
        set, which are exactly dominated (their ``s ≤ q`` term is the
        ``s = 0`` term minus a nonnegative backward sum; their ``s > q``
        term is ≤ 0 against a max that starts at 0).  The memory mask is
        ``Planner.plan_fits_memory`` per split: completions place disjoint
        device sets per stage, so each stage's check reduces to
        ``demand ≤ min(capacity over the group)``.
        """
        prof = self.profile
        n = prof.num_layers
        m = num_micro_batches
        mbs = global_batch_size / m
        P = len(specs[0][1])
        if any(len(spec[1]) != P for spec in specs):
            raise ValueError("scan_level requires a uniform prefix length per level")
        S = P + 2
        E = 2 * S - 1

        # Flatten every state's allocation rows onto one T axis.  A spec may
        # carry a fifth element — a hashable row_key identifying its
        # (groups, tails) row set — enabling the per-row coefficient bundles
        # to be memoized across states, levels, and searches.
        row_state: list[int] = []
        row_index: list[int] = []
        groups_flat: list = []
        tails_flat: list = []
        spec_rcs: list[_RowCoefs] = []
        for si, spec in enumerate(specs):
            groups, tails = spec[2], spec[3]
            row_key = spec[4] if len(spec) > 4 else None
            groups_flat.extend(groups)
            tails_flat.extend(tails)
            row_state.extend([si] * len(groups))
            row_index.extend(range(len(groups)))
            spec_rcs.append(self._row_coefs(groups, tails, row_key))
        T = len(groups_flat)
        jlo_per_spec = np.array([spec[0] for spec in specs], dtype=np.int64)
        min_jlo = int(jlo_per_spec.min()) if T else 0
        splits = np.arange(min_jlo + 1, n)
        J = splits.size
        row_state_arr = np.array(row_state, dtype=np.int64)
        row_index_arr = np.array(row_index, dtype=np.int64)
        if T == 0 or J == 0:
            return LevelScanResult(
                splits, np.empty((T, J)), row_state_arr, row_index_arr, 0, 0
            )

        fp, bp = prof.fwd_prefix, prof.bwd_prefix
        pp, sp = prof.param_bytes_prefix, prof.stored_prefix
        ovh = prof.graph.fixed_overhead_fwd
        per_param = OPTIMIZER_STATE_BYTES[prof.graph.optimizer]

        # Per-distinct-j_lo split aggregates, (D, J); rows gather by index.
        jlo_vals = np.unique(jlo_per_spec)
        jlo_pos = {int(v): i for i, v in enumerate(jlo_vals)}
        d_fwd_d = fp[splits][None, :] - fp[jlo_vals][:, None]
        d_bwd_d = bp[splits][None, :] - bp[jlo_vals][:, None]
        d_sto_d = sp[splits][None, :] - sp[jlo_vals][:, None]
        span_new_d = splits[None, :] - jlo_vals[:, None]
        # Materialized per-j_lo views with stable identity for the vec cache.
        d_par_by_jlo = [pp[splits] - pp[int(v)] for v in jlo_vals]
        pers_new_by_jlo = [
            d_par / FP32 * per_param + d_par / FP32 * GRAD_BYTES_PER_PARAM
            for d_par in d_par_by_jlo
        ]
        # Tail aggregates and boundary bytes: j_lo-independent, level-shared.
        t_fwd = fp[n] - fp[splits]
        t_bwd = bp[n] - bp[splits]
        t_par = pp[n] - pp[splits]
        t_sto = sp[n] - sp[splits]
        span_tail = n - splits
        nbytes = prof.boundary_bytes_array(splits, mbs)
        pers_tail = t_par / FP32 * per_param + t_par / FP32 * GRAD_BYTES_PER_PARAM

        # Per-row constants, concatenated from the memoized bundles.
        b_new = np.concatenate([mbs / rc.len_new for rc in spec_rcs])
        b_tail = np.concatenate([mbs / rc.len_tail for rc in spec_rcs])
        caps_new = np.concatenate([rc.caps_new for rc in spec_rcs])
        caps_tail = np.concatenate([rc.caps_tail for rc in spec_rcs])
        acoef_new: list = []
        acoef_tail: list = []
        tcoef_f: list = []
        tcoef_b: list = []
        ids_new: list = []
        for rc in spec_rcs:
            acoef_new.extend(rc.acoef_new)
            acoef_tail.extend(rc.acoef_tail)
            tcoef_f.extend(rc.tcoef_f)
            tcoef_b.extend(rc.tcoef_b)
            ids_new.extend(rc.ids_new)
        jlo_idx_row = np.array(
            [jlo_pos[int(jlo_per_spec[si])] for si in row_state], dtype=np.int64
        )

        # Per-spec prefix data: scalar stage costs, AllReduce terms, the
        # prefix-side memory check, and the prev→new boundary bytes.
        spec_fwd = np.zeros((len(specs), max(2 * P - 1, 0)))
        spec_bwd = np.zeros_like(spec_fwd)
        spec_ar = np.zeros_like(spec_fwd)
        spec_prefix_ok = np.ones(len(specs), dtype=bool)
        ar_cols: set[int] = set()
        for si, spec in enumerate(specs):
            j_lo, prefix = spec[0], spec[1]
            for i, st in enumerate(prefix):
                b = mbs / len(st.devices)
                k = 2 * i
                spec_fwd[si, k] = prof.fwd_time(st.layer_lo, st.layer_hi, b)
                spec_bwd[si, k] = prof.bwd_time(st.layer_lo, st.layer_hi, b)
                if len(st.devices) > 1:
                    ar = self._allreduce_scalar(
                        prof.param_bytes(st.layer_lo, st.layer_hi), st.devices
                    )
                    if ar != 0.0:
                        spec_ar[si, k] = ar
                        ar_cols.add(k)
                if i + 1 < P:
                    nb = prof.boundary_bytes(st.layer_hi, mbs)
                    nxt = prefix[i + 1]
                    spec_fwd[si, k + 1] = self._p2p_time(nb, st.devices, nxt.devices)
                    spec_bwd[si, k + 1] = self._p2p_time(nb, nxt.devices, st.devices)
                if enforce_memory and spec_prefix_ok[si]:
                    demand = self._persistent_bytes(st.layer_lo, st.layer_hi) + min(
                        S - i, m
                    ) * prof.stored_bytes(st.layer_lo, st.layer_hi, b)
                    if demand > self._min_capacity(st.devices):
                        spec_prefix_ok[si] = False

        # prev→new p2p per row (j2-independent; memoized on the scanner,
        # with keys built from the bundles' precomputed id tuples).
        if P:
            fwd_prev = np.empty(T)
            bwd_prev = np.empty(T)
            p2p = self._p2p
            t0 = 0
            for si, spec in enumerate(specs):
                j_lo, prefix = spec[0], spec[1]
                nb_prev = prof.boundary_bytes(j_lo, mbs)
                prev = prefix[-1].devices
                prev_ids = tuple(d.global_id for d in prev)
                start, t0 = t0, t0 + len(spec_rcs[si].ids_new)
                for t in range(start, t0):
                    gid = ids_new[t]
                    key = (nb_prev, prev_ids, gid)
                    tv = p2p.get(key)
                    if tv is None:
                        tv = transfer_time(self.cluster, nb_prev, prev, groups_flat[t])
                        p2p[key] = tv
                    fwd_prev[t] = tv
                    key = (nb_prev, gid, prev_ids)
                    tv = p2p.get(key)
                    if tv is None:
                        tv = transfer_time(self.cluster, nb_prev, groups_flat[t], prev)
                        p2p[key] = tv
                    bwd_prev[t] = tv

        valid = splits[None, :] > jlo_per_spec[row_state_arr][:, None]
        evaluated = int(valid.sum())
        infeasible = 0
        out_lat = np.empty((T, J))

        # The coefficient-vector cache spans the whole level: the arrays it
        # keys on (nbytes, t_par, d_par_by_jlo[i]) live for the full call.
        vec_cache: dict[tuple, np.ndarray] = {}

        def cached(coef, arr: np.ndarray, fn) -> np.ndarray:
            key = (coef, id(arr))
            out = vec_cache.get(key)
            if out is None:
                out = fn(coef, arr)
                vec_cache[key] = out
            return out

        chunk = max(1, _LEVEL_CHUNK_ELEMS // max(E * J, 1))
        for lo in range(0, T, chunk):
            hi = min(lo + chunk, T)
            Tc = hi - lo
            sel = slice(lo, hi)
            FWD = np.empty((E, Tc, J))
            BWD = np.empty((E, Tc, J))
            AR = np.zeros((E, Tc, J))

            # Prefix stages: per-spec scalars broadcast over that spec's rows.
            if P:
                FWD[: 2 * P - 1] = spec_fwd[row_state_arr[sel]].T[:, :, None]
                BWD[: 2 * P - 1] = spec_bwd[row_state_arr[sel]].T[:, :, None]
                for k in ar_cols:
                    AR[k] = spec_ar[row_state_arr[sel], k][:, None]
                FWD[2 * P - 1] = fwd_prev[sel][:, None]
                BWD[2 * P - 1] = bwd_prev[sel][:, None]

            # New stage and tail stage: gathered split aggregates × row batch.
            jidx = jlo_idx_row[sel]
            FWD[E - 3] = d_fwd_d[jidx] * b_new[sel][:, None] + span_new_d[jidx] * ovh
            BWD[E - 3] = d_bwd_d[jidx] * b_new[sel][:, None] + span_new_d[jidx] * ovh
            FWD[E - 1] = t_fwd[None, :] * b_tail[sel][:, None] + span_tail * ovh
            BWD[E - 1] = t_bwd[None, :] * b_tail[sel][:, None] + span_tail * ovh

            any_new_rep = any_tail_rep = False
            for r in range(lo, hi):
                if acoef_new[r] is not None:
                    AR[E - 3, r - lo] = cached(
                        acoef_new[r], d_par_by_jlo[jlo_idx_row[r]], _apply_allreduce
                    )
                    any_new_rep = True
                if acoef_tail[r] is not None:
                    AR[E - 1, r - lo] = cached(acoef_tail[r], t_par, _apply_allreduce)
                    any_tail_rep = True
                FWD[E - 2, r - lo] = cached(tcoef_f[r], nbytes, _apply_transfer)
                BWD[E - 2, r - lo] = cached(tcoef_b[r], nbytes, _apply_transfer)

            # Pivot walk (eq. 3), vectorized over the (T, J) grid: mirror
            # find_pivot's descending scan with running prefix sums.
            m1 = max(m - 1, 0)
            FB = FWD + BWD
            TS = m1 * FB
            FBC = np.cumsum(FB, axis=0)
            q = np.full((Tc, J), E - 1, dtype=np.int64)
            ts_q = TS[E - 1].copy()
            for s in range(E - 2, -1, -1):
                between = np.take_along_axis(FBC, (q - 1)[None], axis=0)[0] - FBC[s]
                move = TS[s] > ts_q + between
                q = np.where(move, s, q)
                ts_q = np.where(move, TS[s], ts_q)
            FWC = np.cumsum(FWD, axis=0)
            tw = np.take_along_axis(FWC, q[None], axis=0)[0]

            # Ending (eq. 1): the candidate set is the level-wide union, plus
            # s = 0 — extra zero-AR stages are dominated (see docstring).
            BC = np.cumsum(BWD, axis=0)
            bc_q = np.take_along_axis(BC, q[None], axis=0)[0]
            bc_qm1 = np.where(
                q > 0,
                np.take_along_axis(BC, np.maximum(q - 1, 0)[None], axis=0)[0],
                0.0,
            )
            cand = set(ar_cols)
            cand.add(0)
            if any_new_rep:
                cand.add(E - 3)
            if any_tail_rep:
                cand.add(E - 1)
            ending = np.zeros((Tc, J))
            for s in sorted(cand):
                bcs = BC[s - 1] if s > 0 else 0.0
                le_term = AR[s] + (bc_q - bcs)
                if s > 0:
                    gt_term = AR[s] - (BC[s - 1] - bc_qm1)
                    term = np.where(s <= q, le_term, gt_term)
                else:
                    term = le_term
                ending = np.maximum(ending, term)

            lat = tw + ts_q + ending
            penalty = 1.0 + stage_overhead_frac * (S - 1)
            if penalty != 1.0:
                lat = lat * penalty

            valid_c = valid[sel]
            if S < min_stages:
                lat = np.full((Tc, J), np.inf)
            elif enforce_memory:
                jidx = jlo_idx_row[sel]
                demand_new = np.stack([pers_new_by_jlo[i] for i in jidx]) + min(
                    2, m
                ) * (d_sto_d[jidx] * b_new[sel][:, None])
                demand_tail = pers_tail[None, :] + 1 * (
                    t_sto[None, :] * b_tail[sel][:, None]
                )
                feasible = (demand_new <= caps_new[sel][:, None]) & (
                    demand_tail <= caps_tail[sel][:, None]
                )
                feasible &= spec_prefix_ok[row_state_arr[sel]][:, None]
                infeasible += int((valid_c & ~feasible).sum())
                lat = np.where(feasible, lat, np.inf)
            out_lat[sel] = np.where(valid_c, lat, np.inf)

        return LevelScanResult(
            splits, out_lat, row_state_arr, row_index_arr, evaluated, infeasible
        )


# --------------------------------------------------------------------------- #
# Shared scanner registry
# --------------------------------------------------------------------------- #
_SCANNER_REGISTRY: dict[tuple[int, int], tuple] = {}
_SCANNER_REGISTRY_CAP = 8


def shared_scanner(profile: ModelProfile, cluster: Cluster) -> CompletionScanner:
    """Process-wide scanner reuse for one concrete (profile, cluster) pair.

    Every scanner cache is keyed by values (device global ids, byte counts,
    occupancy signatures), so sharing across searches only changes speed,
    never results.  Entries are keyed by object identity and hold strong
    references, which both keeps the ``id()`` keys valid and lets sweep
    grid points that re-plan the same problem skip coefficient derivation.
    The registry keeps the most recent :data:`_SCANNER_REGISTRY_CAP` pairs.
    """
    key = (id(profile), id(cluster))
    entry = _SCANNER_REGISTRY.get(key)
    if entry is not None and entry[0] is profile and entry[1] is cluster:
        return entry[2]
    scanner = CompletionScanner(profile, cluster)
    _SCANNER_REGISTRY[key] = (profile, cluster, scanner)
    while len(_SCANNER_REGISTRY) > _SCANNER_REGISTRY_CAP:
        _SCANNER_REGISTRY.pop(next(iter(_SCANNER_REGISTRY)))
    return scanner
