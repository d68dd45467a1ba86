"""Trace-driven interval core model with ROB-head stall accounting.

The model replays an LLC miss stream (``repro.cpu.hierarchy``) against a
memory system.  Between misses the core retires instructions at a steady
IPC; around misses it behaves like the paper's OoO core (Table I):

* independent misses overlap while they fit in the reorder-buffer window
  and there are MSHRs left — an *episode* of memory-level parallelism;
* a dependent miss (serial pointer-chase step) cannot enter the episode
  of its producer and starts a new one;
* the ROB head blocks, in program order, on each load miss that has not
  completed — exactly the "ROB head stall cycles per load miss" metric
  the paper profiles (Sec. III-A, after Mutlu et al.).

The episode structure is what makes object-level classification
meaningful: a high-MPKI object whose misses overlap (streaming) exposes
few stall cycles per miss and wants bandwidth; a chase object exposes the
full memory latency on every miss and wants RLDRAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from repro.cpu.hierarchy import (
    KIND_LOAD,
    KIND_STORE,
    KIND_WRITEBACK,
    MissStream,
)
from repro.memctrl.system import MemorySystem
from repro.obs.registry import OBS


@dataclass(frozen=True)
class CoreParams:
    """Interval-core parameters (defaults from paper Table I)."""

    ipc: float = 1.0
    rob_size: int = 84
    lq_size: int = 32
    mshr: int = 20
    #: Cycles of non-demand (writeback) completion backlog the core may
    #: run ahead of — a finite write queue.  Without the bound,
    #: background traffic would pile up in the bank timings indefinitely
    #: while the core races ahead.
    backlog: int = 256

    @property
    def max_overlap(self) -> int:
        """Maximum demand misses in flight at once."""
        return min(self.mshr, self.lq_size)

    @cached_property
    def ipc_ratio(self) -> tuple[int, int]:
        """IPC as an exact rational ``(num, den)``.

        ``ipc=0.1`` arrives as the nearest binary double, so computing
        retire gaps with ``int(gap / ipc)`` silently loses cycles through
        float error (``int(3 / 0.1) == 29``).  Recovering the intended
        rational once (1/10) makes every gap computation exact integer
        arithmetic; denominators are capped at 10**6, far beyond any
        plausible IPC setting.
        """
        frac = Fraction(self.ipc).limit_denominator(1_000_000)
        return frac.numerator, frac.denominator

    def cycles_for(self, instructions: int) -> int:
        """Cycles to retire ``instructions`` at this IPC (exact, floor)."""
        num, den = self.ipc_ratio
        return (instructions * den) // num


@dataclass
class CoreResult:
    """Timing outcome of one core's full trace replay."""

    core_id: int
    cycles: int
    total_instructions: int
    n_demand: int
    n_load_misses: int
    n_writebacks: int
    n_episodes: int
    mem_access_cycles: int
    load_stall_cycles: int
    stall_by_obj: dict[int, int] = field(default_factory=dict)
    load_misses_by_obj: dict[int, int] = field(default_factory=dict)
    demand_by_obj: dict[int, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.total_instructions / self.cycles if self.cycles else 0.0

    @property
    def stall_per_load_miss(self) -> float:
        """Whole-program ROB head stall cycles per load miss."""
        if not self.n_load_misses:
            return 0.0
        return self.load_stall_cycles / self.n_load_misses

    def object_stall_per_miss(self, obj_id: int) -> float:
        n = self.load_misses_by_obj.get(obj_id, 0)
        if not n:
            return 0.0
        return self.stall_by_obj.get(obj_id, 0) / n

    def to_dict(self) -> dict:
        """Lossless JSON-compatible form (cache/artefact round-trips).

        The per-object maps keep integer keys in memory; JSON stringifies
        them, and :meth:`from_dict` converts them back.
        """
        return {
            "core_id": self.core_id,
            "cycles": self.cycles,
            "total_instructions": self.total_instructions,
            "n_demand": self.n_demand,
            "n_load_misses": self.n_load_misses,
            "n_writebacks": self.n_writebacks,
            # No record kind is a prefetch; the key stays, at 0, because
            # cached results and the ledger's result digests hash this dict.
            "n_prefetches": 0,
            "n_episodes": self.n_episodes,
            "mem_access_cycles": self.mem_access_cycles,
            "load_stall_cycles": self.load_stall_cycles,
            "stall_by_obj": {str(k): v for k, v in self.stall_by_obj.items()},
            "load_misses_by_obj": {str(k): v for k, v
                                   in self.load_misses_by_obj.items()},
            "demand_by_obj": {str(k): v for k, v
                              in self.demand_by_obj.items()},
            # derived, for human readers of the JSON; from_dict ignores it
            "ipc": self.ipc,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CoreResult":
        """Inverse of :meth:`to_dict` (tolerates JSON's string keys)."""
        return cls(
            core_id=data["core_id"],
            cycles=data["cycles"],
            total_instructions=data["total_instructions"],
            n_demand=data["n_demand"],
            n_load_misses=data["n_load_misses"],
            n_writebacks=data["n_writebacks"],
            n_episodes=data["n_episodes"],
            mem_access_cycles=data["mem_access_cycles"],
            load_stall_cycles=data["load_stall_cycles"],
            stall_by_obj={int(k): v
                          for k, v in data.get("stall_by_obj", {}).items()},
            load_misses_by_obj={
                int(k): v
                for k, v in data.get("load_misses_by_obj", {}).items()},
            demand_by_obj={
                int(k): v for k, v in data.get("demand_by_obj", {}).items()},
        )


_NEG = -(1 << 62)


def _seg_exclusive_cummax(values: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Exclusive running max of ``values`` restarting at each segment.

    ``seg`` is non-decreasing (episode id per element).  Position ``i``
    gets ``max(values[j] for j in same segment, j < i)``, or ``_NEG`` for
    the first element of a segment.  Implemented with the offset trick:
    shift each segment's values into a disjoint band so one global
    ``maximum.accumulate`` cannot leak across segments; falls back to a
    Python loop if the band arithmetic could overflow int64.
    """
    n = len(values)
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    lo = int(values.min())
    span = int(values.max()) - lo + 1
    if int(seg[-1]) * span < (1 << 62):
        band = seg * span
        cm = np.maximum.accumulate((values - lo) + band) - band + lo
        out[0] = _NEG
        out[1:] = cm[:-1]
        starts = np.empty(n, dtype=bool)
        starts[0] = True
        np.not_equal(seg[1:], seg[:-1], out=starts[1:])
        out[starts] = _NEG
    else:
        cur = _NEG
        prev_seg = -1
        for i, (s, v) in enumerate(zip(seg.tolist(), values.tolist())):
            if s != prev_seg:
                cur = _NEG
                prev_seg = s
            out[i] = cur
            if v > cur:
                cur = v
    return out


def _sums_by_first_occurrence(objs: np.ndarray,
                              *values: np.ndarray) -> list[dict[int, int]]:
    """Per-object integer sums, dict keys in first-occurrence order.

    Matches the insertion order the reference loop's ``dict.get``
    accumulation produces.  One stable argsort groups each object's
    elements (the first of a group is its first occurrence) and
    ``np.add.reduceat`` sums the groups in int64 (exact); ``bincount``
    with float weights would not be.
    """
    keys = objs
    lo = int(objs.min())
    if int(objs.max()) - lo < 1 << 16:
        # 16-bit keys take numpy's radix sort: same stable order.
        keys = (objs - lo).astype(np.uint16)
    order = np.argsort(keys, kind="stable")
    ordered = objs[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    first = np.argsort(order[starts], kind="stable")
    keys = ordered[starts][first].tolist()
    return [dict(zip(keys, np.add.reduceat(v[order], starts)[first].tolist()))
            for v in values]


class _Episodes:
    """Episode tables of one (stream, core parameters, ``inst_prev``).

    Read-only once built: the kernel reads them, never writes them.
    """

    __slots__ = ("nep", "ep_of", "off_np", "ep_start", "ep_end",
                 "headgap", "off", "off_last", "tail")

    def __init__(self, stream: MissStream, p: CoreParams, inst_prev: int):
        """Vectorized episode segmentation + issue-offset precompute.

        Episode membership depends only on the stream and the core
        parameters — never on memory timing — so every boundary the
        reference loop would discover record-by-record is derivable up
        front: for each candidate head ``h`` the earliest break position
        among (a) the batch cap, (b) the next dependent demand miss (a
        suffix minimum), (c) the first demand outside the ROB window (a
        ``searchsorted``) and (d) the demand that would exceed the MSHR
        overlap (a running demand count).  (c) and the replay kernel's
        scheduler keys need ``inst`` nondecreasing, and the keys take
        ``kind`` as the FR-FCFS class, so a decreasing stream or an
        unknown record kind raises ``ValueError`` instead of a wrong
        result.
        """
        num, den = p.ipc_ratio
        n = len(stream)
        inst = stream.inst
        if np.any(inst[1:] < inst[:-1]):
            raise ValueError(
                "miss stream column 'inst' must be monotonically "
                "non-decreasing")
        kind = stream.kind
        if kind.min() < KIND_LOAD or kind.max() > KIND_WRITEBACK:
            raise ValueError(
                "miss stream column 'kind' must hold load, store or "
                "writeback records only")
        demand = kind <= KIND_STORE
        dep = np.asarray(stream.dep, dtype=bool)
        mo = p.max_overlap
        cap = 4 * mo
        idx = np.arange(n, dtype=np.int64)
        break_at = np.minimum(idx + max(cap, 1), n)
        dd = np.flatnonzero(demand)
        if n > 1:
            # b2[i]: the first dependent demand after record i, else n.
            b2 = np.minimum.accumulate(
                np.where(demand & dep, idx, n)[:0:-1])[::-1]
            np.minimum(break_at[:-1], b2, out=break_at[:-1])
        if len(dd):
            inst_dd = inst[dd]
            pos = np.searchsorted(inst_dd, inst + p.rob_size, side="right")
            b3 = np.where(pos < len(dd), dd[np.minimum(pos, len(dd) - 1)], n)
            np.minimum(break_at, b3, out=break_at)
            pos4 = np.cumsum(demand) - demand + mo  # demands before i, + mo
            safe = np.minimum(pos4, len(dd) - 1)
            b4 = np.where(pos4 < len(dd), dd[safe], n)
            # mo == 0 degenerates: a demand head would name itself; the
            # reference loop breaks at the *next* demand instead.
            at_head = (pos4 < len(dd)) & (b4 == idx)
            if at_head.any():
                pos4b = pos4 + 1
                safe = np.minimum(pos4b, len(dd) - 1)
                b4 = np.where(at_head,
                              np.where(pos4b < len(dd), dd[safe], n), b4)
            np.minimum(break_at, b4, out=break_at)
        break_l = break_at.tolist()
        heads = []
        h = 0
        while h < n:
            heads.append(h)
            h = break_l[h]
        ep_start = np.asarray(heads, dtype=np.int64)
        ep_end = np.append(ep_start[1:], n)
        nep = len(heads)
        ep_of = np.repeat(np.arange(nep, dtype=np.int64), ep_end - ep_start)
        head_inst = inst[ep_start].astype(np.int64)
        off = ((inst.astype(np.int64) - head_inst[ep_of]) * den) // num
        prev_inst = np.empty(nep, dtype=np.int64)
        prev_inst[0] = inst_prev
        if nep > 1:
            prev_inst[1:] = inst[ep_start[1:] - 1]
        headgap = ((head_inst - prev_inst) * den) // num
        self.nep = nep
        self.ep_of = ep_of
        self.off_np = off
        self.ep_start = ep_start.tolist()
        self.ep_end = ep_end.tolist()
        self.headgap = headgap.tolist()
        self.off = off.tolist()
        self.off_last = off[ep_end - 1].tolist()
        self.tail = ((stream.total_instructions - int(inst[n - 1]))
                     * den) // num


def _episodes(stream: MissStream, params: CoreParams,
              inst_prev: int) -> _Episodes:
    """The episode tables of a non-empty ``stream``, built once per
    ``(params, inst_prev)``.

    Memoized on the stream object itself (a private attribute, never
    persisted), so the tables live exactly as long as the stream: the
    six Fig. 8 systems replaying one application segment it once, and an
    epoch slice (a fresh object) takes its tables with it when it dies.
    """
    memo = vars(stream).setdefault("_episode_memo", {})
    key = (params, inst_prev)
    ep = memo.get(key)
    if ep is None:
        ep = memo[key] = _Episodes(stream, params, inst_prev)
    return ep


class InOrderWindowCore:
    """Steppable per-core replay state (multicore drivers interleave cores).

    Episode boundaries and per-record issue offsets are precomputed once
    per stream (:func:`_episodes`) and bound at construction, channel
    routing/decode on the first kernel call against a system; the
    fused replay kernel (:func:`repro.memctrl.batch.replay`) drains every
    episode in one call from :meth:`run_to_completion` (or, for several
    cores, :func:`run_interleaved`) and one episode per call from the
    stepping API; all per-object/per-episode accounting is deferred to
    one vectorized pass at completion.

    The result is **bit-identical** to the per-record reference
    interpreter kept under ``tests/`` as the oracle — same
    :class:`CoreResult`, same memory-system counters, same multicore
    interleave decisions — which ``tests/test_parity.py`` enforces over
    randomized traces.

    Args:
        stream: LLC miss stream for this core's application.
        groups: Per-record channel-group index (from the page mapping).
        gaddrs: Per-record group-local physical line address.
        params: Core parameters.
        core_id: Identifier stamped into requests.
        start_cycle: Initial cycle (0 unless modelling staggered starts).
        inst_prev: Instruction count already retired before this stream
            slice (used by epoch-sliced replays, e.g. page migration).
    """

    def __init__(self, stream: MissStream, groups: np.ndarray, gaddrs: np.ndarray,
                 params: CoreParams | None = None, core_id: int = 0,
                 start_cycle: int = 0, inst_prev: int = 0):
        if len(groups) != len(stream) or len(gaddrs) != len(stream):
            raise ValueError("translation arrays must match the miss stream length")
        self.params = params or CoreParams()
        self.core_id = core_id
        self.total_instructions = stream.total_instructions
        self._n = len(stream)
        self._idx = 0
        self._cycle = start_cycle
        self.result = CoreResult(
            core_id=core_id, cycles=start_cycle,
            total_instructions=self.total_instructions,
            n_demand=0, n_load_misses=0, n_writebacks=0, n_episodes=0,
            mem_access_cycles=0, load_stall_cycles=0,
        )
        self._segment(stream, groups, gaddrs, inst_prev)

    # ---- episode segmentation -----------------------------------------------------

    def _segment(self, stream: MissStream, groups: np.ndarray,
                 gaddrs: np.ndarray, inst_prev: int) -> None:
        """Bind the stream's episode tables and this core's own state.

        The tables are read-only and shared by every core that replays
        ``stream`` with the same parameters and ``inst_prev``
        (:func:`_episodes`); only ``_ep_issue0``, which the replay
        kernel writes, is per core.
        """
        self._stream = stream
        self._groups = np.asarray(groups)
        self._gaddrs = np.asarray(gaddrs)
        self._tb = None
        self._ep = 0
        if self._n == 0:
            num, den = self.params.ipc_ratio
            self._nep = 0
            self._tail = (self.total_instructions * den) // num
            return
        ep = _episodes(stream, self.params, inst_prev)
        self._nep = ep.nep
        self._ep_of = ep.ep_of
        self._off_np = ep.off_np
        self._ep_start = ep.ep_start
        self._ep_end = ep.ep_end
        self._headgap = ep.headgap
        self._off = ep.off
        self._off_last = ep.off_last
        self._tail = ep.tail
        self._ep_issue0 = [0] * ep.nep

    def _tables(self, memsys: MemorySystem):
        tb = self._tb
        if tb is None or tb.memsys is not memsys:
            from repro.memctrl.batch import ReplayTables

            tb = ReplayTables(memsys, self._groups, self._gaddrs,
                              self._stream.kind, self._ep_of, self._off_np)
            self._tb = tb
        return tb

    def _lane(self, memsys: MemorySystem):
        """This core's remaining episodes as a replay-kernel lane."""
        from repro.memctrl.batch import Lane

        return Lane(self._tables(memsys), self._ep_start, self._ep_end,
                    self._headgap, self._off, self._off_last,
                    self._ep_issue0, backlog=self.params.backlog,
                    k=self._ep, cycle=self._cycle, stop=self._nep)

    def _absorb(self, lane) -> None:
        """Take over a fully drained lane's cycle and finalize."""
        self._cycle = lane.cycle
        self._ep = lane.k
        self._idx = self._n
        self._finalize()

    # ---- stepping interface -------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._idx >= self._n

    def peek_next_issue(self) -> int:
        """Earliest cycle at which this core's next episode head issues."""
        if self.finished:
            return 1 << 62
        return self._cycle + self._headgap[self._ep]

    def run_episode(self, memsys: MemorySystem) -> int:
        """Drain one precomputed MLP episode against ``memsys`` (a
        one-episode kernel call); returns the new core cycle."""
        k = self._ep
        s = self._ep_start[k]
        e = self._ep_end[k]
        issue0 = self._cycle + self._headgap[k]
        self._ep_issue0[k] = issue0
        load_done_max, done_max = self._tables(memsys).drain_episode(
            s, e, issue0, self._off)
        t = load_done_max if load_done_max > issue0 else issue0
        c2 = issue0 + self._off_last[k]
        if c2 > t:
            t = c2
        c3 = done_max - self.params.backlog
        self._cycle = c3 if c3 > t else t
        self._ep = k + 1
        self._idx = e
        if self._idx >= self._n:
            self._finalize()
        return self._cycle

    def _finalize(self) -> None:
        """One vectorized accounting pass, bit-equal to the reference loop.

        Also flushes the deferred per-record memory-system statistics the
        replay kernel withheld during the replay (module/controller counters,
        latency histograms) — nothing reads those mid-replay, so batching
        them here is observation-equivalent to the reference's live
        updates.
        """
        res = self.result
        self._cycle += self._tail
        res.cycles = self._cycle
        res.n_episodes = self._nep
        stream = self._stream
        n_load, n_store, n_wb = stream.kind_counts()
        res.n_demand = n_load + n_store
        res.n_load_misses = n_load
        res.n_writebacks = n_wb
        tb = self._tb
        if tb is None:
            return
        ep_issue0 = np.asarray(self._ep_issue0, dtype=np.int64)
        issue = ep_issue0[self._ep_of] + self._off_np
        done = np.asarray(tb.done_l, dtype=np.int64)
        tb.flush_stats(issue, done)
        kind = stream.kind
        obj = stream.obj_id.astype(np.int64)
        dsel = np.flatnonzero(kind <= KIND_STORE)
        if len(dsel):
            res.mem_access_cycles = int((done[dsel] - issue[dsel]).sum())
            res.demand_by_obj, = _sums_by_first_occurrence(
                obj[dsel], np.ones(len(dsel), dtype=np.int64))
        ld = np.flatnonzero(kind == KIND_LOAD)
        if len(ld):
            ld_done = done[ld]
            ld_seg = self._ep_of[ld]
            # ROB-head time just before each load: the episode's issue0,
            # raised by every earlier load completion in the episode.
            t_arr = np.maximum(ep_issue0[ld_seg],
                               _seg_exclusive_cummax(ld_done, ld_seg))
            stall = ld_done - np.maximum(t_arr, issue[ld])
            np.maximum(stall, 0, out=stall)
            res.load_stall_cycles = int(stall.sum())
            res.stall_by_obj, res.load_misses_by_obj = \
                _sums_by_first_occurrence(
                    obj[ld], stall, np.ones(len(ld), dtype=np.int64))

    def run_to_completion(self, memsys: MemorySystem) -> CoreResult:
        """Single-core convenience: drain the whole stream.

        Drains every remaining episode in one call of the fused replay
        kernel.
        """
        if self._n == 0:
            self._cycle += self.params.cycles_for(self.total_instructions)
            self.result.cycles = self._cycle
            self.publish_obs()
            return self.result
        if not self.finished:
            from repro.memctrl.batch import replay

            lane = self._lane(memsys)
            replay([lane])
            self._absorb(lane)
        self.publish_obs()
        return self.result

    def publish_obs(self) -> None:
        """Publish this core's retirement/stall counters to the registry.

        Called once per completed replay (never inside the episode loop)
        so the hot path carries no per-episode observability cost.
        """
        if not OBS.enabled:
            return
        r = self.result
        prefix = f"core{self.core_id}"
        OBS.add(f"{prefix}.instructions_retired", r.total_instructions)
        OBS.add(f"{prefix}.cycles", r.cycles)
        OBS.add(f"{prefix}.episodes", r.n_episodes)
        OBS.add(f"{prefix}.demand_requests", r.n_demand)
        OBS.add(f"{prefix}.load_misses", r.n_load_misses)
        OBS.add(f"{prefix}.stall_cycles", r.load_stall_cycles)
        OBS.add(f"{prefix}.mem_access_cycles", r.mem_access_cycles)


def run_interleaved(cores: list[InOrderWindowCore],
                    memsys: MemorySystem) -> list[CoreResult]:
    """Replay ``cores`` against one shared memory system in global time.

    The core whose next episode issues earliest always goes next (ties
    to the earlier core in ``cores``), so requests from different cores
    contend for the same banks and buses in time order.  All cores drain
    under one call of the fused replay kernel, which keeps that heap
    inside its loop.  Returns every core's finished :class:`CoreResult`.
    """
    live = [c for c in cores if not c.finished]
    if live:
        from repro.memctrl.batch import replay

        lanes = [c._lane(memsys) for c in live]
        replay(lanes)
        for core, lane in zip(live, lanes):
            core._absorb(lane)
    return [c.run_to_completion(memsys) for c in cores]
