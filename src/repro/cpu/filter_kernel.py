"""Vectorized cache-filter kernel: the engine of ``filter_trace``.

The reference loop in ``tests/reference_filter.py`` pushes every access
through dict-based LRU sets, one Python iteration per access.  This
module replays the *same* hierarchy with numpy and produces
byte-identical results (``tests/test_filter_parity.py`` pins this over
randomized traces and geometries, and every per-level engine against
the dict automaton).  The reference loop stays in the tests as the
executable specification.

Algorithm — per-set LRU without a per-access loop
-------------------------------------------------

Cache sets are independent: the outcome of an access depends only on
the prior accesses that map to the *same* set.  A warm hierarchy's
resident lines enter each set ahead of its accesses, LRU first (filling
an empty set in that order rebuilds its lines, dirty bits and recency).
Each level then takes one of two engines:

* **Closed form** (``"runs"``, assoc ≤ 2, the L1D).  An LRU set holds
  its ``assoc`` most recently used distinct lines.  One stable
  ``uint16`` argsort puts the accesses in set-major order, and repeats
  of a line collapse into *runs*, so adjacent runs of a set differ.  A
  run head hits iff its line equals the line ``assoc`` runs back in the
  set (never, for one way); on a miss that line is the victim.  A line's
  residency is a chain of hit runs ``assoc`` apart that a miss run
  starts: one ``maximum.accumulate`` of miss-run indices per chain
  finds each run's residency start, and a running write count along the
  chain gives the dirty bit at any run, eviction included.  About 30
  vector ops, whatever the per-set skew.
* **Stamp rounds** (``"rounds"``, any assoc; the L2).  Round *r*
  advances the *r*-th access of every set at once.  Ways are fixed
  slots holding a tag, a dirty bit and the round that last used them.
  A round is one equality scan over the active ``(sets x assoc)`` tags,
  one ``argmin`` over stamps with the hit way keyed lowest (so it picks
  the hit way, else the LRU way), and gathers and scatters on one way
  per active set.  Sets are ranked by access count, so each round's
  active rows are a prefix; one sort of each row by stamp gives the
  final MRU→LRU order.  Cost is ``O(rounds x active_sets x assoc)``,
  where ``rounds`` is the most accesses landing in one set, plus about
  18 µs of numpy-call overhead per round however few sets are active.
  So once fewer than ``_ACTIVE_CUTOVER`` sets remain, the
  stack-distance engine below finishes the skewed tail from the rounds'
  state; a trace that hammers a few sets from the start runs no round
  at all.

The **stack-distance engine** (:func:`_stack_lru`) resolves a whole
access sequence at once.  *Hits:* an access hits iff fewer than
``assoc`` distinct lines of its set were used since its line's previous
access (LRU's stack property).  One sort by (line, position) gives each
access's previous one; a gap of fewer than ``assoc`` accesses is a hit.
A difference-array count of the distinct lines among the last W
accesses, at a few sizes W (``_WINDOWS``), settles most of the rest: at
least ``assoc`` of them with W ≤ gap is a miss, fewer with W ≥ gap a
hit.  What stays open is counted exactly over its gap.  *Victims:* a
residency is a miss plus the hits on its line that follow it, and an
LRU set evicts residencies in the order of their last use (the victim
is always the resident used longest ago).  So the k-th miss that finds
its set full — its set's ``assoc + k``-th miss — evicts the set's k-th
residency in last-use order, dirty iff a write touched the residency;
the ``assoc`` residencies used last survive as the final state, MRU
first.  Stack distances thus give the victim sequence as well as
hit/miss.

All engines are exact: hit mask, victim identity and dirty bits, and
the final tag state with its recency order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from repro.obs.registry import OBS

__all__ = [
    "FilterAccumulator",
    "LevelResult",
    "finalize_filter",
    "run_filter",
    "run_filter_window",
    "simulate_lru",
]


#: Mid-simulation cutover: once fewer sets than this are still active,
#: the long skewed tail of rounds (each a handful of rows but a fixed
#: dozen numpy calls) is cheaper on the stack-distance engine.
_ACTIVE_CUTOVER = 48
#: Window sizes, in multiples of the associativity, at which the
#: stack-distance engine counts distinct lines to settle reuses whose
#: gap alone decides nothing; what they leave open is counted exactly.
_WINDOWS = (4, 16, 64)
#: Positions scanned per batch of the engine's exact distinct counts.
_EXACT_BATCH = 1 << 20


@dataclass
class LevelResult:
    """Per-access outcome of one cache level plus its final tag state.

    ``victim_line``/``victim_dirty`` are only meaningful where
    ``victim_mask`` is true (a miss that evicted a resident line).  They
    are built on first read: the filter reads the L2's victims (its
    writebacks) but never the L1's.  ``state_sets`` (ascending) /
    ``state_stack`` / ``state_dirty`` describe the final occupancy of
    every *simulated* set, MRU→LRU with ``-1`` (and a clean bit) for
    empty ways, so the caller can write the result back into the
    dict-based tag store bit-identically.
    """

    hit: np.ndarray
    state_sets: np.ndarray
    state_stack: np.ndarray
    state_dirty: np.ndarray
    engine: str
    #: Each access's victim as ``line << 1 | dirty``, negative where it
    #: evicted nothing — or a function that computes it.
    venc: np.ndarray | Callable[[], np.ndarray] = field(repr=False)
    #: Stamp rounds run, and accesses the stack-distance tail resolved.
    rounds: int = 0
    tail: int = 0

    def _victims(self) -> np.ndarray:
        if callable(self.venc):
            self.venc = self.venc()
        return self.venc

    @cached_property
    def victim_mask(self) -> np.ndarray:
        return self._victims() >= 0

    @cached_property
    def victim_line(self) -> np.ndarray:
        return self._victims() >> 1

    @cached_property
    def victim_dirty(self) -> np.ndarray:
        return (self._victims() & 1) != 0


def _result(hit, venc, sets, stack, dirty, engine: str, rounds: int = 0,
            tail: int = 0) -> LevelResult:
    """Package outcomes (``venc`` as in :class:`LevelResult`)."""
    return LevelResult(hit=hit, state_sets=sets, state_stack=stack,
                       state_dirty=dirty, engine=engine, venc=venc,
                       rounds=rounds, tail=tail)


def _residents(cache, sets: np.ndarray) -> tuple[list, list, list, list]:
    """Resident lines of ``sets`` as flat ``(row, way, tag, dirty)`` lists.

    ``filter_trace`` on a warm hierarchy must continue from its state
    (the reference loop does).  Dict insertion order is LRU→MRU, so
    ``way`` counts up from each set's LRU line.
    """
    rows, ways, tags, dirty = [], [], [], []
    store = cache._sets
    for row, set_idx in enumerate(sets.tolist()):
        resident = store[set_idx]
        if resident:
            rows += [row] * len(resident)
            ways += range(len(resident))
            tags += resident.keys()
            dirty += resident.values()
    return rows, ways, tags, dirty


def _simulate_runs(cache, line: np.ndarray, is_write: np.ndarray,
                   ) -> LevelResult:
    """Closed-form LRU for assoc ≤ 2 (see module docstring)."""
    a = cache.assoc
    mask = cache._set_mask
    sets = np.flatnonzero(np.bincount(line & mask, minlength=cache.n_sets))
    _, _, seed_tags, seed_dirty = _residents(cache, sets)
    n_seed = len(seed_tags)
    if n_seed:
        line = np.concatenate([np.asarray(seed_tags, dtype=np.int64), line])
        is_write = np.concatenate([np.asarray(seed_dirty, dtype=bool),
                                   is_write])
    key = line & mask
    # uint16 keys take numpy's radix path (~6x the int64 merge sort).
    order = np.argsort(key.astype(np.uint16) if mask <= 0xFFFF else key,
                       kind="stable")
    ln = line[order]
    head = np.empty(ln.size, dtype=bool)
    head[0] = True
    np.not_equal(ln[1:], ln[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    run_line = ln[heads]
    run_set = run_line & mask
    run_w = np.logical_or.reduceat(is_write[order], heads)
    r = heads.size
    hit = np.zeros(r, dtype=bool)
    if a == 2:
        np.equal(run_line[2:], run_line[:-2], out=hit[2:])
    # Residency start of each run: the latest miss run on its chain
    # (runs ``a`` apart, one column of the reshape).  The first ``a`` runs
    # of every set miss, so no chain crosses a set boundary.
    width = -(-r // a) * a
    start = np.zeros(width, dtype=np.int64)
    start[:r] = np.where(hit, 0, np.arange(r))
    np.maximum.accumulate(start.reshape(-1, a), axis=0,
                          out=start.reshape(-1, a))
    writes = np.zeros(width, dtype=np.int64)
    writes[:r] = run_w
    np.cumsum(writes.reshape(-1, a), axis=0, out=writes.reshape(-1, a))
    start = start[:r]
    dirty = writes[:r] - writes[start] + run_w[start] > 0

    def victims():
        # A miss evicts the line ``a`` runs back when that run is in its
        # set (seed runs never evict: a set holds at most ``a`` of them).
        evict = np.zeros(r, dtype=bool)
        np.equal(run_set[a:], run_set[:-a], out=evict[a:])
        evict &= ~hit
        ev = np.flatnonzero(evict)
        venc = np.full(line.size, -1, dtype=np.int64)
        venc[order[heads[ev]]] = (run_line[ev - a] << 1) | dirty[ev - a]
        return venc[n_seed:]

    hit_all = np.ones(line.size, dtype=bool)
    hit_all[order[heads[~hit]]] = False

    # Final state: each set's last run is MRU, the run before it (if in
    # the same set) the second way.
    last = np.flatnonzero(np.append(run_set[1:] != run_set[:-1], True))
    stack = np.full((sets.size, a), -1, dtype=np.int64)
    sdirty = np.zeros((sets.size, a), dtype=bool)
    stack[:, 0] = run_line[last]
    sdirty[:, 0] = dirty[last]
    if a == 2:
        prev = last - 1
        two = last > np.append(-1, last[:-1]) + 1
        stack[:, 1] = np.where(two, run_line[prev], -1)
        sdirty[:, 1] = two & dirty[prev]
    return _result(hit_all[n_seed:], victims, sets, stack, sdirty, "runs")


def _stack_lru(assoc: int, row: np.ndarray, line: np.ndarray,
               is_write: np.ndarray, stack: np.ndarray, dirty: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact LRU over independent sets from stack distances and
    residencies (see module docstring).

    ``row`` names each access's set as a row of ``stack``/``dirty``
    (its ``assoc`` ways, MRU→LRU, ``-1`` empty), which hold the sets'
    starting state; each set's accesses are in time order.  Returns
    ``(hit, venc, stack, dirty)``: per-access hits and victims as in
    :class:`LevelResult`, and the final state in the same row layout.
    """
    n_rows = stack.shape[0]
    n_in = line.size
    # Residents enter ahead of their set's accesses, LRU first.
    seed_rows, seed_ways = np.nonzero(stack[:, ::-1] >= 0)
    n_seed = seed_rows.size
    all_row = np.concatenate((seed_rows, row))
    key = all_row.astype(np.uint16) if n_rows <= 0xFFFF else all_row
    order = np.argsort(key, kind="stable")
    ln = np.concatenate((stack[:, ::-1][seed_rows, seed_ways], line))[order]
    wr = np.concatenate((dirty[:, ::-1][seed_rows, seed_ways],
                         is_write))[order]
    n = ln.size
    row_start = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(all_row, minlength=n_rows), out=row_start[1:])
    rows = all_row[order]
    pos = np.arange(n, dtype=np.int64)

    # Previous access to the same line, from one sort by (line, position).
    by_line = np.argsort(ln, kind="stable")
    ln_sorted = ln[by_line]
    same = ln_sorted[1:] == ln_sorted[:-1]
    before, after = by_line[:-1][same], by_line[1:][same]
    prev = np.full(n, -1, dtype=np.int64)
    prev[after] = before
    gap = pos - prev - 1
    # A reuse hits iff fewer than ``assoc`` distinct lines of its set
    # came between; fewer accesses than that settle it at once.
    reuse = prev >= 0
    hit = reuse & (gap < assoc)
    open_ = np.flatnonzero(reuse & (gap >= assoc))
    if open_.size:
        # Position q counts toward the distinct lines of the W accesses
        # before p while p <= min(q + W, next use of q's line, set end).
        reach = row_start[rows + 1] - 1
        reach[before] = after
        for mult in _WINDOWS:
            w = mult * assoc
            ended = np.cumsum(np.bincount(np.minimum(reach, pos + w),
                                          minlength=n))
            g = gap[open_]
            distinct = open_ - ended[open_ - 1]
            hit[open_[(w >= g) & (distinct < assoc)]] = True
            open_ = open_[((w > g) | (distinct < assoc))
                          & ((w < g) | (distinct >= assoc))]
            if not open_.size:
                break
        # Count the rest exactly over their gaps (the positions whose
        # line was last used before the gap), a bounded batch at a time.
        while open_.size:
            g = gap[open_]
            ends = np.cumsum(g)
            take = max(1, int(np.searchsorted(ends, _EXACT_BATCH, "right")))
            batch, g, open_ = open_[:take], g[:take], open_[take:]
            first = prev[batch] + 1
            offs = ends[:take] - g
            inside = (np.arange(int(ends[take - 1]), dtype=np.int64)
                      - np.repeat(offs - first, g))
            fresh = prev[inside] < np.repeat(first, g)
            hit[batch[np.add.reduceat(fresh, offs) < assoc]] = True

    # Residencies: a miss plus the hits on its line up to the next miss,
    # contiguous in line order.  Their victims follow last-use order.
    miss_sorted = ~hit[by_line]
    res_first = np.flatnonzero(miss_sorted)
    n_res = res_first.size
    res_end = np.empty(n_res, dtype=np.int64)
    res_end[:-1] = res_first[1:] - 1
    res_end[-1] = n - 1
    last_use = by_line[res_end]
    res_dirty = np.logical_or.reduceat(wr[by_line], res_first)
    res_line = ln_sorted[res_first]
    # Positions are set-major, so last-use order groups residencies by
    # set; a scatter into positions sorts them.
    slot = np.full(n, -1, dtype=np.int64)
    slot[last_use] = np.arange(n_res)
    by_use = slot[slot >= 0]
    use_row = rows[last_use[by_use]]
    per_row = np.bincount(use_row, minlength=n_rows)
    res_start = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(per_row, out=res_start[1:])
    rank = np.arange(n_res) - res_start[use_row]
    evicted = rank < per_row[use_row] - assoc
    # Each set's k-th miss past its first ``assoc`` evicts the k-th
    # residency to go (a set has as many misses as residencies).
    miss_pos = np.flatnonzero(~hit)
    evicting = miss_pos[pos[:n_res] - res_start[rows[miss_pos]] >= assoc]
    gone = by_use[evicted]
    venc = np.full(n, -1, dtype=np.int64)
    venc[evicting] = (res_line[gone] << 1) | res_dirty[gone]
    # Survivors are the final state, most recent use first.
    kept = ~evicted
    kept_row = use_row[kept]
    way = per_row[kept_row] - 1 - rank[kept]
    out_stack = np.full((n_rows, assoc), -1, dtype=np.int64)
    out_dirty = np.zeros((n_rows, assoc), dtype=bool)
    out_stack[kept_row, way] = res_line[by_use[kept]]
    out_dirty[kept_row, way] = res_dirty[by_use[kept]]

    access = order >= n_seed
    dst = order[access] - n_seed
    out_hit = np.empty(n_in, dtype=bool)
    out_hit[dst] = hit[access]
    out_venc = np.empty(n_in, dtype=np.int64)
    out_venc[dst] = venc[access]
    return out_hit, out_venc, out_stack, out_dirty


def _simulate_rounds(cache, line: np.ndarray, is_write: np.ndarray,
                     ) -> LevelResult:
    """Stamp-based round-parallel LRU (see module docstring)."""
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
    ln_rm = line[rm]
    wr_rm = is_write[rm]

    # Way slots, way-major so every scan runs along the sets.  A slot's
    # key is ``stamp << bits | slot`` (slot = way * width + row); stamp 0
    # = empty, 1..assoc = seeded residents LRU first, ``assoc + 1 + r`` =
    # used in round r.  A hit slot is keyed ``slot - size`` (negative), so
    # one min over the ways finds the hit slot, else the LRU (or an
    # empty) one, and its low bits name it.
    n_rows = len(sel)
    width = 1 << (n_rows - 1).bit_length()
    size = assoc * width
    bits = size.bit_length() - 1
    slot = np.arange(size, dtype=np.int64).reshape(assoc, width)
    tags = np.full((assoc, width), -1, dtype=np.int64)
    dirty = np.zeros((assoc, width), dtype=bool)
    key = slot.copy()
    rows, ways, seed_tags, seed_dirty = _residents(cache, sel)
    tags[ways, rows] = seed_tags
    dirty[ways, rows] = seed_dirty
    key[ways, rows] += (np.asarray(ways, dtype=np.int64) + 1) << bits
    hit_key = slot - size
    flat_tags, flat_dirty = tags.reshape(-1), dirty.reshape(-1)
    flat_key = key.reshape(-1)
    # Outcomes are produced round-major (cheap slice writes) and
    # scattered back to access order once at the end.
    hit_rm = np.empty(n, dtype=bool)
    vtag_rm = np.empty(n, dtype=np.int64)
    vdirty_rm = np.empty(n, dtype=bool)
    eq_b = np.empty((assoc, width), dtype=bool)
    # Rounds run while at least ``_ACTIVE_CUTOVER`` sets are active
    # (active counts never grow); the tail engine takes the rest.
    per_round = np.diff(bounds)
    n_run = int(np.count_nonzero(per_round >= _ACTIVE_CUTOVER))
    for r in range(n_run):
        b0, b1 = int(bounds[r]), int(bounds[r + 1])
        active = b1 - b0
        ln = ln_rm[b0:b1]
        eq = np.equal(tags[:, :active], ln, out=eq_b[:, :active])
        s = np.where(eq, hit_key[:, :active], key[:, :active]).min(axis=0)
        hit = np.less(s, 0, out=hit_rm[b0:b1])
        s &= size - 1
        np.take(flat_tags, s, out=vtag_rm[b0:b1])
        newd = np.take(flat_dirty, s, out=vdirty_rm[b0:b1]) & hit
        flat_dirty[s] = np.logical_or(newd, wr_rm[b0:b1], out=newd)
        flat_tags[s] = ln
        flat_key[s] = s | ((assoc + 1 + r) << bits)

    order = np.argsort(-key[:, :n_rows].T, axis=1)
    stack = np.take_along_axis(tags[:, :n_rows].T, order, axis=1)
    sdirty = np.take_along_axis(dirty[:, :n_rows].T, order, axis=1)
    b0 = int(bounds[n_run])
    vtag_rm[:b0][hit_rm[:b0]] = -1
    venc_rm = np.left_shift(vtag_rm, 1, out=vtag_rm)
    venc_rm |= vdirty_rm
    if b0 < n:
        # Skewed tail: few sets still have accesses left, but each
        # remaining round costs the same fixed stack of numpy calls.
        # rm[b0:] keeps each set's access order (rounds ascend) and the
        # active sets are the rank prefix, so the stack-distance engine
        # finishes them from the rounds' state.
        active = int(per_round[n_run])
        (hit_rm[b0:], venc_rm[b0:], stack[:active],
         sdirty[:active]) = _stack_lru(
            assoc, ranks[rm[b0:]], ln_rm[b0:], wr_rm[b0:], stack[:active],
            sdirty[:active])
    hit = np.empty(n, dtype=bool)
    venc = np.empty(n, dtype=np.int64)
    hit[rm] = hit_rm
    venc[rm] = venc_rm
    by_set = np.argsort(sel)
    return _result(hit, venc, sel[by_set], stack[by_set], sdirty[by_set],
                   "rounds", n_run, n - b0)


_ENGINES = {"runs": _simulate_runs, "rounds": _simulate_rounds}


def simulate_lru(cache, line: np.ndarray, is_write: np.ndarray, *,
                 mode: str = "auto") -> LevelResult:
    """Simulate one cache level over a line-number access sequence.

    Continues from ``cache``'s current tag-store contents but does not
    mutate the cache — the caller decides whether to write the final
    state back (:func:`install_state`).  ``mode`` pins the engine for
    the parity tests: ``"runs"`` (the closed form; assoc ≤ 2 only) or
    ``"rounds"`` (the stamp rounds with the stack-distance tail).
    ``"auto"`` takes the closed form up to two ways and the rounds
    above.
    """
    n = line.shape[0]
    assoc = cache.assoc
    if mode == "auto":
        mode = "runs" if assoc <= 2 else "rounds"
    if mode not in _ENGINES:
        raise ValueError(f"unknown simulate_lru mode {mode!r}")
    if mode == "runs" and assoc > 2:
        raise ValueError(f"mode 'runs' needs assoc <= 2, got {assoc}")
    if n == 0:
        return _result(np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64),
                       np.zeros(0, dtype=np.int64),
                       np.full((0, assoc), -1, dtype=np.int64),
                       np.zeros((0, assoc), dtype=bool), mode)
    return _ENGINES[mode](cache, line, is_write)


def install_state(cache, result: LevelResult) -> None:
    """Write a level's final tag state back into its dict store.

    Only the simulated sets are rewritten (untouched sets keep their
    residents), inserting LRU→MRU so dict order matches what the
    reference loop would have left behind.
    """
    for set_idx, tags, dirty in zip(result.state_sets.tolist(),
                                    result.state_stack.tolist(),
                                    result.state_dirty.tolist()):
        cache._sets[set_idx] = {t: d for t, d in zip(reversed(tags),
                                                     reversed(dirty))
                                if t != -1}


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
    l1_hits = int(r1.hit[wl:].sum())
    install_state(l1, r1)
    del r1  # frees what its victims (never read) would be built from
    r2 = simulate_lru(l2, vaddr[idx2] >> l2._line_shift, is_write[idx2])
    install_state(l2, r2)
    if OBS.enabled:
        OBS.add("filter.l2.rounds", r2.rounds)
        OBS.add("filter.l2.tail_accesses", r2.tail)

    # Stat counters: the reference resets them at the warmup boundary,
    # so with a warmup window the final values are the measured-region
    # tallies; without one they accumulate on whatever the hierarchy
    # already held.  Windows wholly inside warmup add nothing and skip
    # the reset — the boundary window's reset clears their state.
    measured = n - wl
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
    # sentinels (>= -3), so bincount beats sorting.  A first touch sits
    # where the object changes, and ``minimum.at`` keeps the earliest
    # (a scatter with repeated indices has no defined winner).  Merging
    # into the carried dict preserves *global* first-touch order: dict
    # insertion order appends new objects as windows arrive.
    obj_meas = trace.obj_id[wl:]
    if obj_meas.size:
        obj_shift = obj_meas.astype(np.int64) + 3
        acc_counts = np.bincount(obj_shift)
        miss_counts = np.bincount(trace.obj_id[dm].astype(np.int64) + 3,
                                  minlength=len(acc_counts))
        change = np.flatnonzero(obj_meas[1:] != obj_meas[:-1]) + 1
        first_pos = np.full(len(acc_counts), obj_meas.size, dtype=np.int64)
        first_pos[obj_shift[0]] = 0
        np.minimum.at(first_pos, obj_shift[change], change)
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
    the identical final state.  One window through the chunked
    machinery: ``filter_chunked`` runs the same code per shard.
    """
    acc = FilterAccumulator()
    run_filter_window(trace, hierarchy, warm_until, acc)
    return finalize_filter(hierarchy, acc)
