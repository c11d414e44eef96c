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
  prefix sums (``np.cumsum`` order), and both evaluate communication
  through the same cost records — :class:`repro.cluster.TransferCost` and
  :class:`repro.cluster.AllreduceCost`, whose ``time(nbytes)`` runs one
  operation sequence on a float or, here, on an ndarray of byte counts —
  so the kernel reproduces the scalar model's latencies exactly, not just
  approximately.  This module defines no cost formula of its own.
  ``tests/core/test_planner_equivalence.py`` holds the planner to that
  contract across the model zoo, against the scalar oracle
  :class:`repro.check.oracles.ScalarPlanner`.
* **Value-keyed memos.**  A cost depends on its device groups only
  through their *shapes* (per-machine device counts; for a transfer, of
  two disjoint groups), so AllReduce records and prefix
  transfer times are memoized by shape, per-row-set bundles by the
  caller's occupancy ``row_key`` and memory terms by layer range.  No memo
  is keyed by device ids, and each lives for one search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.cluster.collectives import AllreduceCost, allreduce_cost
from repro.cluster.topology import Cluster, machine_counts
from repro.cluster.transfer import transfer_cost
from repro.core.profiler import ModelProfile
from repro.models.graph import FP32, GRAD_BYTES_PER_PARAM, OPTIMIZER_STATE_BYTES


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


class _Group(NamedTuple):
    """A device group plus the shape the cost memos key on."""

    devices: Sequence
    shape: int  # interned per-machine device counts, first-appearance order


@dataclass
class _RowCoefs:
    """Per-allocation-row constants of one occupancy signature's row set.

    Everything here depends only on the (groups, tails) row list — not on
    the state's layer split or prefix — so the level kernel memoizes it per
    caller-provided ``row_key`` and a frontier state costs zero coefficient
    builds after its occupancy signature first appears.
    """

    new: list  # _Group per row
    ar_new: list  # AllreduceCost | None per row
    ar_tail: list
    tr: list  # TransferCost per row, new ↔ tail (direction-free)
    caps_new: np.ndarray
    caps_tail: np.ndarray
    len_new: np.ndarray  # group sizes as float64
    len_tail: np.ndarray


def _min_capacity(devices) -> float:
    return min(d.spec.memory_bytes for d in devices)


class CompletionScanner:
    """Scores all ``(allocation, split)`` completions of a planner state.

    One scanner is built per search (per ``(profile, cluster)``).  Its memos
    persist across the search's states and levels, and each is keyed by
    value: per-row-set cost bundles by the caller's ``row_key``, memory
    terms by layer range, and AllReduce records and prefix transfer times
    by group *shape* — the per-machine device counts, which are all the
    cost models read of a group (and, for a transfer between disjoint
    groups, of the pair).
    """

    def __init__(self, profile: ModelProfile, cluster: Cluster):
        self.profile = profile
        self.cluster = cluster
        self._persistent: dict[tuple[int, int], float] = {}
        self._rowcoefs: dict = {}
        self._shapes: dict[tuple, int] = {}
        self._p2p: dict[tuple[float, int, int], float] = {}
        self._acost: dict[int, AllreduceCost] = {}
        self._vectors: dict[tuple, np.ndarray] = {}

    # ---------------------------- coefficients ---------------------------- #
    def _persistent_bytes(self, lo: int, hi: int) -> float:
        """Optimizer state + gradient buffer of layers [lo, hi), memoized."""
        val = self._persistent.get((lo, hi))
        if val is None:
            params = self.profile.param_bytes(lo, hi)
            val = self.profile.state_bytes(lo, hi) + params / FP32 * GRAD_BYTES_PER_PARAM
            self._persistent[(lo, hi)] = val
        return val

    def _group(self, devices: Sequence) -> _Group:
        counts = tuple(machine_counts(devices).items())
        return _Group(devices, self._shapes.setdefault(counts, len(self._shapes)))

    def _p2p_time(self, nbytes: float, src: _Group, dst: _Group) -> float:
        """``transfer_cost(src, dst).time(nbytes)``, memoized by shapes.

        Between disjoint groups (adjacent stages) the cost is a function of
        the two shapes alone.
        """
        key = (nbytes, src.shape, dst.shape)
        t = self._p2p.get(key)
        if t is None:
            cost = transfer_cost(self.cluster, src.devices, dst.devices)
            t = self._p2p[key] = cost.time(nbytes)
        return t

    def _allreduce(self, group: _Group) -> AllreduceCost:
        """``allreduce_cost`` memoized by shape."""
        cost = self._acost.get(group.shape)
        if cost is None:
            cost = self._acost[group.shape] = allreduce_cost(self.cluster, group.devices)
        return cost

    def _cost_vector(self, cost, operand: tuple) -> np.ndarray:
        """``cost.time`` at every split ``j2 = 1..N-1``, memoized per search.

        ``operand`` names the byte counts: ``("bytes", mbs)`` boundary
        activations of a micro-batch, ``("tail", None)`` the parameters of
        layers ``[j2, N)``, ``("new", j_lo)`` those of ``[j_lo, j2)``.  The
        evaluation is elementwise, so a level slices its own split range
        ``j2 > min j_lo`` out of the vector bit for bit.
        """
        out = self._vectors.get((cost, operand))
        if out is None:
            prof, (kind, arg) = self.profile, operand
            pp, n = prof.param_bytes_prefix, prof.num_layers
            cuts = np.arange(1, n)
            if kind == "bytes":
                nbytes = prof.boundary_bytes_array(cuts, arg)
            elif kind == "tail":
                nbytes = pp[n] - pp[cuts]
            else:
                nbytes = pp[cuts] - pp[arg]
            out = self._vectors[(cost, operand)] = cost.time(nbytes)
        return out

    def _row_coefs(self, groups: Sequence, tails: Sequence, row_key) -> _RowCoefs:
        """Memoized per-row cost bundle for one row set (see _RowCoefs)."""
        if row_key is not None:
            rc = self._rowcoefs.get(row_key)
            if rc is not None:
                return rc
        cluster = self.cluster
        new = [self._group(g) for g in groups]
        rc = _RowCoefs(
            new=new,
            ar_new=[self._allreduce(g) if len(g.devices) > 1 else None for g in new],
            ar_tail=[allreduce_cost(cluster, t) if len(t) > 1 else None for t in tails],
            tr=[transfer_cost(cluster, g, t) for g, t in zip(groups, tails)],
            caps_new=np.array([_min_capacity(g) for g in groups]),
            caps_tail=np.array([_min_capacity(t) for t in tails]),
            len_new=np.array([float(len(g)) for g in groups]),
            len_tail=np.array([float(len(t)) for t in tails]),
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
        stacks into one padded tensor).  Every completion must place its
        stages on disjoint device sets, as the planner's do.  Split-range
        aggregates are computed once per distinct ``j_lo``, tail aggregates
        once for the whole level, and cost vectors once per search.  Rows
        are processed in chunks of at most ``_LEVEL_CHUNK_ELEMS / (E·J)`` to
        bound the working set.

        Finite entries are bit-identical to ``evaluate_plan(...).latency ·
        penalty`` on the corresponding
        :class:`~repro.core.plan.ParallelPlan`: every cost, pivot and ending
        term follows the scalar model's operation order, and the ending max
        skips only zero-AllReduce stages outside the level-wide candidate
        set, which are exactly dominated (their ``s ≤ q`` term is the
        ``s = 0`` term minus a nonnegative backward sum; their ``s > q``
        term is ≤ 0 against a max that starts at 0).  The memory mask is
        ``Planner.plan_fits_memory`` per split: with disjoint stages, each
        stage's check reduces to ``demand ≤ min(capacity over the group)``.
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
        spec_rcs: list[_RowCoefs] = []
        for si, spec in enumerate(specs):
            groups, tails = spec[2], spec[3]
            row_key = spec[4] if len(spec) > 4 else None
            row_state.extend([si] * len(groups))
            row_index.extend(range(len(groups)))
            spec_rcs.append(self._row_coefs(groups, tails, row_key))
        T = len(row_state)
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
        pers_new_by_jlo = [
            d_par / FP32 * per_param + d_par / FP32 * GRAD_BYTES_PER_PARAM
            for d_par in (pp[splits] - pp[int(v)] for v in jlo_vals)
        ]
        # Tail aggregates: j_lo-independent, level-shared.
        t_fwd = fp[n] - fp[splits]
        t_bwd = bp[n] - bp[splits]
        t_par = pp[n] - pp[splits]
        t_sto = sp[n] - sp[splits]
        span_tail = n - splits
        pers_tail = t_par / FP32 * per_param + t_par / FP32 * GRAD_BYTES_PER_PARAM

        # Per-row constants, concatenated from the memoized bundles.
        b_new = np.concatenate([mbs / rc.len_new for rc in spec_rcs])
        b_tail = np.concatenate([mbs / rc.len_tail for rc in spec_rcs])
        caps_new = np.concatenate([rc.caps_new for rc in spec_rcs])
        caps_tail = np.concatenate([rc.caps_tail for rc in spec_rcs])
        new_groups: list = []
        ar_new: list = []
        ar_tail: list = []
        tr: list = []
        for rc in spec_rcs:
            new_groups.extend(rc.new)
            ar_new.extend(rc.ar_new)
            ar_tail.extend(rc.ar_tail)
            tr.extend(rc.tr)
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
        prev_groups: list[_Group] = []
        for si, spec in enumerate(specs):
            j_lo, prefix = spec[0], spec[1]
            stage_groups = [self._group(st.devices) for st in prefix]
            prev_groups.append(stage_groups[-1] if P else None)
            for i, st in enumerate(prefix):
                b = mbs / len(st.devices)
                k = 2 * i
                spec_fwd[si, k] = prof.fwd_time(st.layer_lo, st.layer_hi, b)
                spec_bwd[si, k] = prof.bwd_time(st.layer_lo, st.layer_hi, b)
                if len(st.devices) > 1:
                    ar = self._allreduce(stage_groups[i]).time(
                        prof.param_bytes(st.layer_lo, st.layer_hi)
                    )
                    if ar != 0.0:
                        spec_ar[si, k] = ar
                        ar_cols.add(k)
                if i + 1 < P:
                    nb = prof.boundary_bytes(st.layer_hi, mbs)
                    comm = self._p2p_time(nb, stage_groups[i], stage_groups[i + 1])
                    spec_fwd[si, k + 1] = spec_bwd[si, k + 1] = comm
                if enforce_memory and spec_prefix_ok[si]:
                    demand = self._persistent_bytes(st.layer_lo, st.layer_hi) + min(
                        S - i, m
                    ) * prof.stored_bytes(st.layer_lo, st.layer_hi, b)
                    if demand > _min_capacity(st.devices):
                        spec_prefix_ok[si] = False

        # prev→new p2p per row (j2-independent).  Transfer costs are the
        # same both ways (see TransferCost), so one value fills FWD and BWD.
        if P:
            prev_comm = np.empty(T)
            nb_prev = [prof.boundary_bytes(spec[0], mbs) for spec in specs]
            for t in range(T):
                si = row_state[t]
                prev_comm[t] = self._p2p_time(nb_prev[si], prev_groups[si], new_groups[t])

        valid = splits[None, :] > jlo_per_spec[row_state_arr][:, None]
        evaluated = int(valid.sum())
        infeasible = 0
        out_lat = np.empty((T, J))

        vector = self._cost_vector
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
                FWD[2 * P - 1] = BWD[2 * P - 1] = prev_comm[sel][:, None]

            # New stage and tail stage: gathered split aggregates × row batch.
            jidx = jlo_idx_row[sel]
            FWD[E - 3] = d_fwd_d[jidx] * b_new[sel][:, None] + span_new_d[jidx] * ovh
            BWD[E - 3] = d_bwd_d[jidx] * b_new[sel][:, None] + span_new_d[jidx] * ovh
            FWD[E - 1] = t_fwd[None, :] * b_tail[sel][:, None] + span_tail * ovh
            BWD[E - 1] = t_bwd[None, :] * b_tail[sel][:, None] + span_tail * ovh

            any_new_rep = any_tail_rep = False
            for r in range(lo, hi):
                if ar_new[r] is not None:
                    jlo = specs[row_state[r]][0]
                    AR[E - 3, r - lo] = vector(ar_new[r], ("new", jlo))[min_jlo:]
                    any_new_rep = True
                if ar_tail[r] is not None:
                    AR[E - 1, r - lo] = vector(ar_tail[r], ("tail", None))[min_jlo:]
                    any_tail_rep = True
                FWD[E - 2, r - lo] = BWD[E - 2, r - lo] = vector(
                    tr[r], ("bytes", mbs)
                )[min_jlo:]

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
