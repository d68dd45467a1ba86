"""Vectorized cache-filter kernel: the default engine of ``filter_trace``.

The reference loop in :meth:`~repro.cpu.hierarchy.CacheHierarchy
.filter_trace` pushes every access through dict-based LRU sets, one
Python iteration per access.  This module replays the *same* hierarchy
with numpy and produces byte-identical results (``tests/
test_filter_parity.py`` pins this over randomized traces and
geometries).  The reference loop stays as the executable specification
and as the engine for the inputs the kernel cannot take (see the end of
this docstring).

Algorithm — round-parallel LRU simulation across sets
-----------------------------------------------------

Cache sets are independent: the outcome of an access depends only on
the prior accesses that map to the *same* set.  So instead of walking
the trace access-by-access, group the accesses by set and process
"rounds": round *r* handles the *r*-th access of every set at once.
State is a pair of ``(n_touched_sets, assoc)`` matrices — ``stack``
holds line numbers MRU→LRU (``-1`` = empty way) and ``dirty`` the
write-back flags — and one round is a handful of whole-matrix numpy
operations: an equality scan for the hit way, a masked shift to promote
or insert at MRU, and a read of the last column for the LRU victim.
Sets are ranked by access count so the active rows of every round form
a shrinking prefix, and the per-round access indices are precomputed as
one round-major permutation of the trace.

This is exact (it *is* the LRU automaton, just batched), including
victim identity and dirty propagation — unlike closed-form
Mattson-stack-distance formulations, which yield hit/miss but not the
victim sequence, and whose exact per-access distances need dominance
counting that does not vectorize.  Cost is ``O(rounds x touched_sets x
assoc)`` vector work where ``rounds`` is the *maximum* accesses landing
in one set; for the synthetic workloads at default fidelity that is
a few hundred rounds over ~512 sets.  A trace that hammers one set
(``rounds`` ~ ``n``) would degenerate, so a scalar dict-based fallback
— the reference automaton without the record bookkeeping — kicks in on
extreme skew.

Prefetcher-enabled hierarchies always take the reference loop: runahead
fills inject state transitions between demand accesses that the
round-parallel batching cannot reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FilterAccumulator",
    "LevelResult",
    "finalize_filter",
    "run_filter",
    "run_filter_window",
    "simulate_lru",
]


#: Above this many rounds per trace access the matrix formulation loses
#: to the scalar automaton (rounds ~ n means one set ate the trace).
_SKEW_LIMIT_DIVISOR = 16
#: ...but never fall back for tiny traces where either path is instant.
_SKEW_MIN_ROUNDS = 64
#: Mid-simulation cutover: once fewer sets than this are still active,
#: the long skewed tail of rounds (each a handful of rows but a fixed
#: ~20 numpy calls) is cheaper on the scalar automaton.
_ACTIVE_CUTOVER = 48


@dataclass
class LevelResult:
    """Per-access outcome of one cache level plus its final tag state.

    ``victim_line``/``victim_dirty`` are only meaningful where
    ``victim_mask`` is true (a miss that evicted a resident line).
    ``state_sets`` / ``state_stack`` / ``state_dirty`` describe the
    final occupancy of every *simulated* set, MRU→LRU with ``-1`` for
    empty ways, so the caller can write the result back into the
    dict-based tag store bit-identically.
    """

    hit: np.ndarray
    victim_mask: np.ndarray
    victim_line: np.ndarray
    victim_dirty: np.ndarray
    state_sets: np.ndarray
    state_stack: np.ndarray
    state_dirty: np.ndarray
    engine: str


def _empty_result(assoc: int) -> LevelResult:
    return LevelResult(
        hit=np.zeros(0, dtype=bool),
        victim_mask=np.zeros(0, dtype=bool),
        victim_line=np.zeros(0, dtype=np.int64),
        victim_dirty=np.zeros(0, dtype=bool),
        state_sets=np.zeros(0, dtype=np.int64),
        state_stack=np.full((0, assoc), -1, dtype=np.int64),
        state_dirty=np.zeros((0, assoc), dtype=bool),
        engine="rounds",
    )


def _seed_enc(cache, sets: np.ndarray, assoc: int) -> np.ndarray:
    """Initial encoded stack matrix from the cache's current tag store.

    ``filter_trace`` on a warm hierarchy must continue from its state
    (the reference loop does), so the kernel starts where the dicts
    stand: dict insertion order is LRU→MRU, stack column order MRU→LRU.
    Each cell packs ``line << 1 | dirty`` (``-1`` = empty way), so one
    matrix carries both planes and the dirty bit shifts along with its
    line for free.
    """
    enc = np.full((len(sets), assoc), -1, dtype=np.int64)
    for row, set_idx in enumerate(sets.tolist()):
        resident = cache._sets[set_idx]
        for col, (tag, d) in enumerate(reversed(resident.items())):
            enc[row, col] = (tag << 1) | d
    return enc


def _automaton(sets: dict[int, dict], set_mask: int, assoc: int,
               lines: list, writes: list,
               ) -> tuple[list, list, list, list]:
    """The dict-based LRU automaton over a (sub)sequence of accesses.

    Byte-identical to :meth:`SetAssocCache.access` minus the stat
    counters; ``sets`` maps set index → tag→dirty dict and is mutated in
    place.  Returns per-access ``(hit, victim_mask, victim_line,
    victim_dirty)`` as plain lists for bulk array assignment.
    """
    hit = [False] * len(lines)
    victim_mask = [False] * len(lines)
    victim_line = [0] * len(lines)
    victim_dirty = [False] * len(lines)
    for i, (ln, wr) in enumerate(zip(lines, writes)):
        s = sets[ln & set_mask]
        if ln in s:
            prev = s.pop(ln)
            s[ln] = prev or wr
            hit[i] = True
            continue
        if len(s) >= assoc:
            victim_tag = next(iter(s))
            victim_mask[i] = True
            victim_line[i] = victim_tag
            victim_dirty[i] = s.pop(victim_tag)
        s[ln] = wr
    return hit, victim_mask, victim_line, victim_dirty


def _enc_to_dicts(enc: np.ndarray, rows: range, sets: np.ndarray,
                  assoc: int) -> dict[int, dict]:
    """Encoded matrix rows → per-set tag→dirty dicts (LRU→MRU order)."""
    out: dict[int, dict] = {}
    cells = enc.tolist()
    for row in rows:
        s: dict = {}
        enc_row = cells[row]
        for col in range(assoc - 1, -1, -1):
            v = enc_row[col]
            if v != -1:
                s[v >> 1] = bool(v & 1)
        out[int(sets[row])] = s
    return out


def _dicts_to_enc(sets_map: dict[int, dict], enc: np.ndarray, rows: range,
                  sets: np.ndarray) -> None:
    """Write per-set dicts back into their encoded rows (MRU→LRU)."""
    for row in rows:
        enc[row] = -1
        for col, (tag, d) in enumerate(reversed(sets_map[int(sets[row])]
                                                .items())):
            enc[row, col] = (tag << 1) | d


def _simulate_rounds(cache, line: np.ndarray, is_write: np.ndarray,
                     ) -> LevelResult:
    """Round-parallel LRU simulation (see module docstring)."""
    n = line.shape[0]
    assoc = cache.assoc
    set_idx = line & cache._set_mask
    counts = np.bincount(set_idx, minlength=cache.n_sets)
    nonempty = np.flatnonzero(counts)
    # Rank touched sets by descending access count: round r's active
    # rows are then the prefix of sets with more than r accesses.
    sel = nonempty[np.argsort(-counts[nonempty], kind="stable")]
    rank_of_set = np.full(cache.n_sets, -1, dtype=np.int64)
    rank_of_set[sel] = np.arange(len(sel))
    sorted_counts = counts[sel]
    n_rounds = int(sorted_counts[0])

    # Round-major permutation of the trace: first every set's access 0
    # (by rank), then every set's access 1, ...  Built from the stable
    # set-major grouping, whose within-group offset *is* the round.
    ranks = rank_of_set[set_idx]
    # Stable argsort of small integer keys: uint16 takes numpy's radix
    # path (~6x faster than the int64 merge sort) and set ranks fit
    # comfortably for any realistic set count.
    sort_key = ranks.astype(np.uint16) if len(sel) <= 0xFFFF else ranks
    set_major = np.argsort(sort_key, kind="stable")
    group_start = np.zeros(len(sel) + 1, dtype=np.int64)
    np.cumsum(sorted_counts, out=group_start[1:])
    sm_ranks = ranks[set_major]
    round_of = np.arange(n, dtype=np.int64) - group_start[sm_ranks]
    # active_per_round = #sets with more than r accesses; rows stay a
    # prefix because sel is count-descending.
    bounds = np.zeros(n_rounds + 1, dtype=np.int64)
    np.cumsum(np.bincount(round_of, minlength=n_rounds), out=bounds[1:])
    # Because round r's rows are exactly the rank prefix [0, active_r),
    # the round-major position of (rank g, round r) is in closed form
    # bounds[r] + g — no second argsort needed.
    rm = np.empty(n, dtype=np.int64)
    rm[bounds[round_of] + sm_ranks] = set_major

    # Lines arrive pre-shifted by one so cell encoding (line<<1 | dirty)
    # comparisons need no per-round decode.
    ln2_rm = line[rm] << 1
    wr_rm = is_write[rm]

    enc = _seed_enc(cache, sel, assoc)
    n_rows = len(sel)
    # Outcomes are produced round-major (cheap slice writes) and
    # scattered back to access order once at the end; victims stay
    # encoded until then.
    hit_rm = np.zeros(n, dtype=bool)
    venc_rm = np.full(n, -1, dtype=np.int64)
    last = assoc - 1
    # Round-loop scratch, allocated once and sliced to the active rows.
    scratch_i = np.empty((n_rows, assoc), dtype=np.int64)
    eq_b = np.empty((n_rows, assoc), dtype=bool)
    # eq has at most one True per row (lines are unique within a set),
    # so its running sum fits any integer dtype; int8 keeps the three
    # cumsum-derived ops on the smallest buffers.
    cs_b = np.empty((n_rows, assoc), dtype=np.int8)
    shift_b = np.empty((n_rows, assoc), dtype=bool)
    shifted_b = np.empty((n_rows, assoc), dtype=np.int64)
    newd_b = np.empty(n_rows, dtype=bool)

    for r in range(n_rounds):
        b0, b1 = int(bounds[r]), int(bounds[r + 1])
        active = b1 - b0
        if active < _ACTIVE_CUTOVER:
            # Skewed tail: few sets still have accesses left, but each
            # remaining round costs the same fixed stack of numpy calls.
            # rm[b0:] preserves per-set access order (rounds ascend),
            # and sets are independent, so the scalar automaton can
            # finish the tail from the current matrix state.
            tail_sets = _enc_to_dicts(enc, range(active), sel, assoc)
            t_hit, t_vm, t_vl, t_vd = _automaton(
                tail_sets, cache._set_mask, assoc,
                (ln2_rm[b0:] >> 1).tolist(), wr_rm[b0:].tolist())
            hit_rm[b0:] = t_hit
            vm_a = np.asarray(t_vm, dtype=bool)
            venc_rm[b0:] = np.where(
                vm_a,
                (np.asarray(t_vl, dtype=np.int64) << 1)
                | np.asarray(t_vd, dtype=bool),
                -1)
            _dicts_to_enc(tail_sets, enc, range(active), sel)
            break
        ln2 = ln2_rm[b0:b1]
        st = enc[:active]
        scr = scratch_i[:active]
        eq = eq_b[:active]
        cs = cs_b[:active]
        shift = shift_b[:active]
        shifted = shifted_b[:active]
        newd = newd_b[:active]

        np.bitwise_and(st, -2, out=scr)          # cells minus dirty bit
        np.equal(scr, ln2[:, None], out=eq)      # hit way (at most one)
        np.cumsum(eq, axis=1, out=cs)
        np.not_equal(cs[:, last], 0, out=hit_rm[b0:b1])
        venc_rm[b0:b1] = st[:, last]             # LRU way (pre-update)
        # Promote/insert = shift columns [0, pos] right by one and put
        # the line at MRU, where pos is the hit way or (on a miss) the
        # LRU column.  Both cases are "columns whose *exclusive* prefix
        # of eq is empty": up to and including the hit way, or the
        # whole row when eq is all-False.
        np.subtract(cs, eq, out=cs)
        np.equal(cs, 0, out=shift)
        # New MRU dirty bit: dirty of the hit way (all-False eq on a
        # miss contributes nothing) OR the access being a write.
        np.bitwise_and(st, 1, out=scr)
        np.logical_and(scr, eq, out=eq)
        np.any(eq, axis=1, out=newd)
        np.logical_or(newd, wr_rm[b0:b1], out=newd)
        shifted[:, 1:] = st[:, :-1]
        np.bitwise_or(ln2, newd, out=shifted[:, 0])
        np.copyto(st, shifted, where=shift)

    hit = np.empty(n, dtype=bool)
    venc = np.empty(n, dtype=np.int64)
    hit[rm] = hit_rm
    venc[rm] = venc_rm
    victim_mask = ~hit & (venc != -1)
    return LevelResult(hit=hit, victim_mask=victim_mask,
                       victim_line=venc >> 1,
                       victim_dirty=(venc & 1) != 0,
                       state_sets=sel, state_stack=enc >> 1,
                       state_dirty=(enc & 1) != 0,
                       engine="rounds")


def _simulate_scalar(cache, line: np.ndarray, is_write: np.ndarray,
                     ) -> LevelResult:
    """Dict-based LRU automaton with the kernel's output contract.

    The skew fallback, used when one set soaks up most of the trace and
    the matrix formulation would run ~n rounds of tiny rows.
    """
    n = line.shape[0]
    assoc = cache.assoc
    set_mask = cache._set_mask
    touched = np.unique(line & set_mask)
    sets = {int(s): dict(cache._sets[int(s)]) for s in touched.tolist()}

    outs = _automaton(sets, set_mask, assoc, line.tolist(),
                      is_write.tolist())
    hit = np.asarray(outs[0], dtype=bool)
    victim_mask = np.asarray(outs[1], dtype=bool)
    victim_line = np.asarray(outs[2], dtype=np.int64)
    victim_dirty = np.asarray(outs[3], dtype=bool)

    state_sets = touched.astype(np.int64)
    enc = np.full((len(touched), assoc), -1, dtype=np.int64)
    _dicts_to_enc(sets, enc, range(len(touched)), state_sets)
    return LevelResult(hit=hit, victim_mask=victim_mask,
                       victim_line=victim_line, victim_dirty=victim_dirty,
                       state_sets=state_sets, state_stack=enc >> 1,
                       state_dirty=(enc & 1) != 0, engine="scalar")


def simulate_lru(cache, line: np.ndarray, is_write: np.ndarray, *,
                 mode: str = "auto") -> LevelResult:
    """Simulate one cache level over a line-number access sequence.

    Continues from ``cache``'s current tag-store contents but does not
    mutate the cache — the caller decides whether to write the final
    state back (:func:`install_state`).  ``mode`` pins the engine for
    the parity tests; ``"auto"`` picks the matrix formulation unless the
    per-set skew makes the scalar automaton cheaper.
    """
    n = line.shape[0]
    if n == 0:
        return _empty_result(cache.assoc)
    if mode == "auto":
        max_per_set = int(np.bincount(line & cache._set_mask,
                                      minlength=1).max())
        scalar = (max_per_set > _SKEW_MIN_ROUNDS
                  and max_per_set * _SKEW_LIMIT_DIVISOR > n)
        mode = "scalar" if scalar else "rounds"
    if mode == "scalar":
        return _simulate_scalar(cache, line, is_write)
    if mode == "rounds":
        return _simulate_rounds(cache, line, is_write)
    raise ValueError(f"unknown simulate_lru mode {mode!r}")


def install_state(cache, result: LevelResult) -> None:
    """Write a level's final tag state back into its dict store.

    Only the simulated sets are rewritten (untouched sets keep their
    residents), inserting LRU→MRU so dict order matches what the
    reference loop would have left behind.
    """
    stacks = result.state_stack.tolist()
    dirties = result.state_dirty.tolist()
    for row, set_idx in enumerate(result.state_sets.tolist()):
        s = cache._sets[set_idx]
        s.clear()
        st_row = stacks[row]
        dt_row = dirties[row]
        for col in range(cache.assoc - 1, -1, -1):
            tag = st_row[col]
            if tag != -1:
                s[tag] = dt_row[col]


@dataclass
class FilterAccumulator:
    """Carried state for windowed (bounded-RSS) filtering.

    :meth:`~repro.cpu.hierarchy.CacheHierarchy.filter_chunked` feeds
    trace windows through :func:`run_filter_window` in order; the tag
    stores live in the hierarchy itself, and everything the monolithic
    filter kept in locals — the instruction offset fixed at the warmup
    boundary, per-object tallies in global first-touch order, and the
    per-window record arrays — is carried here until
    :func:`finalize_filter` assembles the stream.  ``run_filter`` is
    the single-window special case.
    """

    n_seen: int = 0
    inst_offset: int = 0
    last_inst: int = 0
    n_writebacks: int = 0
    per_object: dict = field(default_factory=dict)
    parts: list = field(default_factory=list)


def run_filter_window(trace, hierarchy, warm_until: int,
                      acc: FilterAccumulator) -> None:
    """Filter one trace window, continuing from carried state.

    ``warm_until`` is the *global* warmup boundary (an access index
    into the full trace); the window's position comes from
    ``acc.n_seen``.  Windowing is invisible in the result: splitting a
    trace at any point and carrying the hierarchy + accumulator state
    yields the same records, counters, and tallies as one call.
    """
    from repro.cpu.hierarchy import KIND_LOAD, KIND_STORE, KIND_WRITEBACK

    l1, l2 = hierarchy.l1, hierarchy.l2
    n = len(trace)
    vaddr = trace.vaddr
    is_write = trace.is_write
    # Warmup boundary in window coordinates; the boundary access itself
    # lies in this window iff 0 < boundary <= n.
    boundary = warm_until - acc.n_seen
    wl = min(max(boundary, 0), n)

    # L1 sees every access; L2 sees the L1-miss subsequence.  Both runs
    # cover the warmup region too — exclusion is a bookkeeping concern,
    # the tag-store state must flow through.
    r1 = simulate_lru(l1, vaddr >> l1._line_shift, is_write)
    idx2 = np.flatnonzero(~r1.hit)
    r2 = simulate_lru(l2, vaddr[idx2] >> l2._line_shift, is_write[idx2])
    install_state(l1, r1)
    install_state(l2, r2)

    # Stat counters: the reference resets them at the warmup boundary,
    # so with a warmup window the final values are the measured-region
    # tallies; without one they accumulate on whatever the hierarchy
    # already held.  Windows wholly inside warmup add nothing and skip
    # the reset — the boundary window's reset clears their state.
    measured = n - wl
    l1_hits = int(r1.hit[wl:].sum())
    meas2 = idx2 >= wl
    n_meas2 = int(meas2.sum())
    l2_hits = int(r2.hit[meas2].sum())
    if 0 < boundary <= n:
        l1.n_hits, l1.n_misses = 0, 0
        l2.n_hits, l2.n_misses = 0, 0
        # Record instructions are renumbered from the boundary access.
        acc.inst_offset = int(trace.inst[wl - 1])
    l1.n_hits += l1_hits
    l1.n_misses += measured - l1_hits
    l2.n_hits += l2_hits
    l2.n_misses += n_meas2 - l2_hits

    # Demand records: measured L2 misses, in trace order; each is
    # followed immediately by a writeback record when it evicted a
    # dirty line (positions interleaved via an exclusive cumsum).
    dm_pos2 = np.flatnonzero(meas2 & ~r2.hit)
    dm = idx2[dm_pos2]
    wb = r2.victim_mask[dm_pos2] & r2.victim_dirty[dm_pos2]
    n_dm = dm.size
    n_writebacks = int(wb.sum())
    n_rec = n_dm + n_writebacks

    out_inst = np.empty(n_rec, dtype=np.int64)
    out_vline = np.empty(n_rec, dtype=np.int64)
    out_obj = np.empty(n_rec, dtype=np.int32)
    out_dep = np.empty(n_rec, dtype=bool)
    out_kind = np.empty(n_rec, dtype=np.int8)
    shift = hierarchy._line_shift
    base = np.arange(n_dm, dtype=np.int64) + (np.cumsum(wb) - wb)
    dm_inst = trace.inst[dm] - acc.inst_offset
    out_inst[base] = dm_inst
    out_vline[base] = (vaddr[dm] >> shift) << shift
    out_obj[base] = trace.obj_id[dm]
    out_dep[base] = trace.dep[dm]
    out_kind[base] = np.where(is_write[dm], KIND_STORE, KIND_LOAD)
    wb_slots = base[wb] + 1
    out_inst[wb_slots] = dm_inst[wb]
    out_vline[wb_slots] = r2.victim_line[dm_pos2][wb] << l2._line_shift
    out_dep[wb_slots] = False
    out_kind[wb_slots] = KIND_WRITEBACK
    if n_writebacks:
        out_obj[wb_slots] = trace.resolve_objects(out_vline[wb_slots])

    # Per-object tallies in first-touch order (dict-iteration parity
    # with the reference's setdefault-style bookkeeping).  Object ids
    # are small non-negative ints after shifting out the segment
    # sentinels (>= -3), so bincount beats sorting; first-touch order
    # comes from a reversed scatter (last write = first occurrence).
    # Merging into the carried dict preserves *global* first-touch
    # order: dict insertion order appends new objects as windows
    # arrive.
    obj_meas = trace.obj_id[wl:]
    if obj_meas.size:
        obj_shift = obj_meas.astype(np.int64) + 3
        acc_counts = np.bincount(obj_shift)
        miss_counts = np.bincount(trace.obj_id[dm].astype(np.int64) + 3,
                                  minlength=len(acc_counts))
        first_pos = np.zeros(len(acc_counts), dtype=np.int64)
        first_pos[obj_shift[::-1]] = np.arange(len(obj_shift) - 1, -1, -1,
                                               dtype=np.int64)
        present = np.flatnonzero(acc_counts)
        for v in present[np.argsort(first_pos[present],
                                    kind="stable")].tolist():
            tallies = acc.per_object.get(v - 3)
            if tallies is None:
                acc.per_object[v - 3] = [int(acc_counts[v]),
                                         int(miss_counts[v])]
            else:
                tallies[0] += int(acc_counts[v])
                tallies[1] += int(miss_counts[v])

    acc.parts.append((out_inst, out_vline, out_obj, out_dep, out_kind))
    acc.n_writebacks += n_writebacks
    acc.n_seen += n
    if n:
        acc.last_inst = int(trace.inst[-1])


def finalize_filter(hierarchy, acc: FilterAccumulator):
    """Assemble ``(MissStream, CacheStats)`` from carried window state."""
    from repro.cpu.hierarchy import CacheStats, MissStream

    l1, l2 = hierarchy.l1, hierarchy.l2
    if acc.parts:
        inst, vline, obj, dep, kind = (
            np.concatenate(c) for c in zip(*acc.parts))
    else:
        inst = vline = np.empty(0, dtype=np.int64)
        obj = np.empty(0, dtype=np.int32)
        dep = np.empty(0, dtype=bool)
        kind = np.empty(0, dtype=np.int8)
    total_inst = (acc.last_inst - acc.inst_offset) if acc.n_seen else 0
    stream = MissStream(inst=inst, vline=vline, obj_id=obj,
                        dep=dep, kind=kind,
                        total_instructions=total_inst)
    stats = CacheStats(
        total_instructions=total_inst,
        l1_hits=l1.n_hits,
        l1_misses=l1.n_misses,
        l2_hits=l2.n_hits,
        l2_misses=l2.n_misses,
        n_writebacks=acc.n_writebacks,
        per_object=acc.per_object,
    )
    return stream, stats


def run_filter(trace, hierarchy, warm_until: int):
    """Kernelized :meth:`CacheHierarchy.filter_trace` body.

    Returns ``(MissStream, CacheStats)`` byte-identical to the reference
    loop and leaves ``hierarchy``'s tag stores and hit/miss counters in
    the identical final state.  ``hierarchy.prefetcher`` must be None
    (the dispatcher guarantees it).  One window through the chunked
    machinery: ``filter_chunked`` runs the same code per shard.
    """
    acc = FilterAccumulator()
    run_filter_window(trace, hierarchy, warm_until, acc)
    return finalize_filter(hierarchy, acc)
