"""Fused replay kernel: MLP episodes drained against flat device state.

The reference replay builds a :class:`~repro.memctrl.request.MemRequest`
object per record, routes it through ``MemorySystem.service_batch`` →
``ChannelGroup.service_batch`` → ``ChannelController.service_batch`` →
``MemoryModule.access``, and re-decodes its address at every layer.  For
a trace replayed start to finish all of that is static: the channel a
record lands on, its (subchannel, bank, row) decode, and its FR-FCFS
criticality class depend only on the page mapping — never on timing.
:class:`ReplayTables` computes them once per replay, vectorized, and
nothing keeps them after it: every unit replays a distinct (placement,
memory-system geometry) pair, so there is nothing to share.

:func:`replay` is the one kernel that drains them.  Per call it binds
every channel's timing constants once, copies bank, bus, tFAW and
refresh state out of the :class:`~repro.memctrl.system.MemorySystem`
into flat per-system lists, and then runs the episode loop, the
scheduler key sort, the bank arithmetic and the core-cycle update in one
frame — for N cores under the same global-time heap the reference
multicore driver uses, with integer entries ``t * n_lanes + lane``.
Channels with equal timing share one constants tuple, and the loop
re-binds the constants only when that tuple changes.  The state goes
back into the ``BankState`` and ``MemoryModule`` objects when the call
returns.  A single-record episode (a dependent pointer-chase miss: the
latency-bound records MOCA looks for, and most episodes) takes its own
lane — no key, no sort, the record issues at the episode head, and the
core cycle is closed form.

Bit-identity contract (pinned by ``tests/test_parity.py``):

* The reference drains per (group, channel) sub-batch, but channels are
  fully independent — only the *within-channel* order is semantically
  meaningful.  A single sort keyed ``(channel, scheduler key, record
  index)`` therefore reproduces the reference order exactly; the final
  record index mirrors ``sorted()``'s stability.  Each key is one int
  (:func:`_scheduler_keys`): every record of an episode issues at
  ``issue0 + off``, so the ``(issue, gaddr, index)`` tail of the key is
  a rank fixed per replay, and only the row-hit bit is chosen live.
* Row-hit bits for the FR-FCFS key are snapshotted against bank state at
  episode entry, exactly when the reference scheduler sorts (before any
  access of the episode drains, and before any refresh those accesses
  may trigger).
* Cores advance in ``(next issue cycle, core position)`` order, the
  reference driver's heap order; a core keeps running while it stays
  the minimum, so a single core never touches the heap.
* Mutable device state is updated live in the flat lists — multicore
  replays interleave cores through the same devices.  Per record the
  kernel writes only two columns, the completion cycle and an
  outcome code (row hit / miss / conflict plus bank-busy cycles).  Pure
  counters (module/controller totals, latency histograms) are deferred
  to :meth:`ReplayTables.flush_stats` at end of replay, and the OBS
  ``memsys.*`` / ``mem.<channel>.*`` counters and queue-occupancy gauges
  are computed when a kernel call returns; both derive row hits,
  service and queue cycles from the two columns, the records' issue
  cycles and each controller's timing constants.  Nothing reads either
  mid-replay, so the deferral is observation-equivalent.

The routing/decode arithmetic below mirrors ``GroupAddressMap.route``
and ``MemoryModule.decode``.  :func:`replay` inlines
``MemoryModule.access`` and ``BankState.service`` twice, in the
single-record lane and in the multi-record loop (one shared copy
measured slower), and :meth:`_FlatDevices.refresh_to` is the only copy
of ``MemoryModule._do_refresh`` and ``BankState.refresh`` (all due
intervals in closed form).  Keep all of them in lockstep.
"""

from __future__ import annotations

import functools
import heapq

import numpy as np

from repro.cpu.hierarchy import KIND_STORE, KIND_WRITEBACK
from repro.memctrl.addrmap import LINE_BITS, LINE_BYTES
from repro.memctrl.scheduler import SCHEDULERS, fcfs_order
from repro.memctrl.system import MemorySystem, batch_size_counter
from repro.memdev.timing import DeviceTiming
from repro.obs.registry import OBS
from repro.util.histogram import N_BUCKETS, LatencyHistogram, bucket_of

_NEG = -(1 << 62)


class ReplayTables:
    """Precomputed per-record routing/decode columns for one replay.

    Built lazily by :class:`~repro.cpu.core.InOrderWindowCore` on the
    first kernel call (the memory system is not known at construction)
    and keyed on the system's identity, one instance per (core, memsys).
    The kernel reads six per-record lists: the flat bank index
    ``gbank_l`` (into the per-system lists of :func:`replay`: controller
    layout order, ``sub * n_banks + bank`` within a module; the bank's
    channel and subchannel are per-bank lists there), the row, the
    miss-stream kind (0 demand load, 1 demand store, 2 writeback; it
    is also the record's FR-FCFS class), the bus
    direction ``write_l`` (store or writeback) and the two integer
    scheduler keys of :func:`_scheduler_keys`.

    The kernel writes two per-record output columns: ``done_l`` (the
    completion cycle) and ``code_l``, the row outcome and bank-busy
    cycles in one integer — ``0`` for a row hit (busy ``tCCD``),
    ``busy + 1`` for a row miss and ``-(busy + 1)`` for a row conflict.
    The ``+ 1`` keeps a zero-latency miss (``tRCD = tCL = 0``) apart
    from a hit.  Row-hit, service and queue columns are derived from
    them on demand (:meth:`outcomes`).
    """

    def __init__(self, memsys: MemorySystem, groups: np.ndarray,
                 gaddrs: np.ndarray, kind: np.ndarray, ep_of: np.ndarray,
                 off: np.ndarray):
        self.memsys = memsys
        self.controllers, bases = memsys.controller_layout()
        for ctrl in self.controllers:
            if ctrl.scheduler not in SCHEDULERS.values():
                raise ValueError(
                    f"replay kernel does not support custom scheduler "
                    f"{ctrl.scheduler!r}; use one of "
                    f"repro.memctrl.scheduler.SCHEDULERS "
                    f"({', '.join(sorted(SCHEDULERS))})")

        n = len(gaddrs)
        gaddrs = np.asarray(gaddrs, dtype=np.int64)
        kind = np.asarray(kind)
        ctrl, gbank, row = self._decode(
            memsys, bases, np.asarray(groups, dtype=np.int64), gaddrs)
        fcfs = np.array([c.scheduler is fcfs_order
                         for c in self.controllers])
        self._ctrl_np = ctrl
        self._kind_np = kind
        # Hot-loop columns as plain-int lists (one tolist() each; list
        # indexing beats numpy scalar extraction ~10x in the kernel).
        self.gbank_l = gbank.tolist()
        self.row_l = row.tolist()
        self.kind_l = kind.tolist()
        self.write_l = ((kind == KIND_STORE)
                        | (kind == KIND_WRITEBACK)).tolist()
        hit, miss, self.mask = _scheduler_keys(
            ctrl, kind, fcfs, ep_of, off, gaddrs)
        self.hit_key_l = hit.tolist()
        self.miss_key_l = miss.tolist()
        # Flat (controller, outcome) tables, outcome = sign(code) + 1
        # (0 conflict, 1 hit, 2 miss): service cycles, and bank-busy
        # cycles minus ``|code|``.
        out = np.array([_timing_consts(c.module.timing, c.line_bytes)[2]
                        for c in self.controllers], dtype=np.int64)
        self._service_np = out[:, [3, 1, 2]].ravel()
        busy = np.full((len(out), 3), -1, dtype=np.int64)
        busy[:, 1] = out[:, 0]
        self._busy_np = busy.ravel()
        # Per-record outputs, filled by replay(), read at finalize.  A
        # row hit leaves its code at 0 (every record drains once).
        self.done_l = [0] * n
        self.code_l = [0] * n
        self._flushed = False

    @staticmethod
    def _decode(memsys: MemorySystem, bases, groups: np.ndarray,
                gaddrs: np.ndarray) -> tuple:
        """Vectorized routing/decode: ``(controller, flat bank, row)``
        (a one-group system skips the per-group select and scatter)."""
        n = len(gaddrs)
        single = len(memsys.groups) == 1
        ctrl = np.zeros(n, dtype=np.int64)
        fbank = np.zeros(n, dtype=np.int64)
        row = np.zeros(n, dtype=np.int64)
        for gi, g in enumerate(memsys.groups):
            sel = slice(None) if single else np.flatnonzero(groups == gi)
            if not single and not len(sel):
                continue
            ga = gaddrs[sel]
            line = ga >> LINE_BITS
            offset = ga & (LINE_BYTES - 1)
            amap = g.addrmap
            nch = amap.n_channels
            if amap._pow2 and nch > 1:
                upper = line >> amap._k
                ch = (line & (nch - 1)) ^ ((upper ^ (upper >> 3)
                                            ^ (upper >> 6)) & (nch - 1))
                local = (upper << LINE_BITS) | offset
            else:
                ch = line % nch
                local = ((line // nch) << LINE_BITS) | offset
            mod = g.modules[0]
            dline = local >> mod._col_bits
            sb = dline & mod._sub_mask
            dline2 = dline >> mod._sub_bits
            bk = dline2 & mod._bank_mask
            ctrl[sel] = bases[gi] + ch
            fbank[sel] = sb * g.timing.n_banks + bk
            row[sel] = (dline2 >> mod._bank_bits) % g.timing.n_rows
        # Offset of each controller's banks in the flat per-system lists
        # (controller layout order).
        banks = [g.timing.n_subchannels * g.timing.n_banks
                 for g in memsys.groups for _ in range(g.n_channels)]
        bank_lo = np.cumsum([0] + banks[:-1], dtype=np.int64)
        return ctrl, bank_lo[ctrl] + fbank, row

    # ---- episode drain ----------------------------------------------------------

    def drain_episode(self, s: int, e: int, issue0: int,
                      off: list[int]) -> tuple[int, int]:
        """Serve records [s, e) issued at ``issue0 + off[j]``.

        The stepping API's one-episode call into :func:`replay`; [s, e)
        is one of the episodes the tables were built with.  Returns
        ``(max done over demand loads, max done over all records)`` —
        the two quantities the core's cycle update needs — read from
        the done column; an episode without a load returns ``_NEG`` as
        its load maximum.
        """
        replay([Lane(self, (s,), (e,), (issue0,), off, (0,), [0],
                     backlog=0, k=0, cycle=0, stop=1)])
        done = self.done_l[s:e]
        loads = [d for d, kd in zip(done, self.kind_l[s:e]) if kd == 0]
        return max(loads, default=_NEG), max(done)

    # ---- deferred statistics ----------------------------------------------------

    def outcomes(self, lo: int, hi: int, issue: np.ndarray,
                 done: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(row hit, service, queue, bank busy)`` of records [lo, hi).

        Decoded from the outcome codes with each controller's timing
        constants; ``issue`` and ``done`` are the records' issue and
        completion cycles.  Exactly the values the device arithmetic
        produced record by record.
        """
        code_l = self.code_l
        if lo or hi != len(code_l):
            code_l = code_l[lo:hi]
        code = np.asarray(code_l, dtype=np.int64)
        at = self._ctrl_np[lo:hi] * 3 + 1 + np.sign(code)
        service = self._service_np[at]
        queue = done - issue - service
        np.maximum(queue, 0, out=queue)
        return code == 0, service, queue, np.abs(code) + self._busy_np[at]

    def flush_stats(self, issue: np.ndarray, done: np.ndarray) -> None:
        """Fold the per-record outputs into module/controller counters.

        Called once, at end of replay, per (core, memsys) table, with
        every record's issue and completion cycle.  One grouped pass
        over all controllers, exact in integers throughout (``bincount``
        counts, int64 ``ufunc.at`` sums and maxima, no float weights).
        Assumes device timing did not change mid-replay (fault derating
        happens before replay starts).
        """
        if self._flushed:
            return
        self._flushed = True
        hit, service, queue, busy = self.outcomes(0, len(done), issue, done)
        ctrl = self._ctrl_np
        nc = len(self.controllers)

        def by_ctrl(ufunc, values, where=ctrl, initial=0):
            out = np.full(nc, initial, dtype=np.int64)
            ufunc.at(out, where, values)
            return out.tolist()

        kind = self._kind_np
        write = (kind == KIND_STORE) | (kind == KIND_WRITEBACK)
        count = np.bincount(ctrl, minlength=nc).tolist()
        hits = np.bincount(ctrl[hit], minlength=nc).tolist()
        writes = np.bincount(ctrl[write], minlength=nc).tolist()
        busy_sum = by_ctrl(np.add, busy)
        service_sum = by_ctrl(np.add, service)
        queue_sum = by_ctrl(np.add, queue)
        done_max = by_ctrl(np.maximum, done, initial=_NEG)
        # Demand latency histograms of every controller, in one pass.
        dsel = np.flatnonzero(kind <= KIND_STORE)
        dctrl = ctrl[dsel]
        lat = queue[dsel] + service[dsel]
        buckets = np.bincount(dctrl * N_BUCKETS + bucket_of(lat),
                              minlength=nc * N_BUCKETS).tolist()
        dcount = np.bincount(dctrl, minlength=nc).tolist()
        lat_sum = by_ctrl(np.add, lat, dctrl)
        lat_max = by_ctrl(np.maximum, lat, dctrl)
        for ci, c in enumerate(self.controllers):
            cnt = count[ci]
            if not cnt:
                continue
            m = c.module
            m.n_accesses += cnt
            m.n_row_hits += hits[ci]
            m.n_writes += writes[ci]
            m.n_reads += cnt - writes[ci]
            m.bus_busy_cycles += m.timing.transfer_cycles(c.line_bytes) * cnt
            m.bank_busy_cycles += busy_sum[ci]
            m.bytes_transferred += c.line_bytes * cnt
            if done_max[ci] > m.last_done_cycle:
                m.last_done_cycle = done_max[ci]
            c.n_served += cnt
            c.total_queue_cycles += queue_sum[ci]
            c.total_service_cycles += service_sum[ci]
            if dcount[ci]:
                c.latency_hist.merge(LatencyHistogram(
                    buckets[ci * N_BUCKETS:(ci + 1) * N_BUCKETS],
                    dcount[ci], lat_sum[ci], lat_max[ci]))


def _scheduler_keys(ctrl: np.ndarray, klass: np.ndarray, fcfs: np.ndarray,
                    ep_of: np.ndarray, off: np.ndarray,
                    gaddrs: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Integer scheduler keys ``(row-hit key, row-miss key, record mask)``.

    Both schedulers order an episode by ``(channel, class, row miss,
    issue, gaddr, record index)`` — FCFS with class and row miss held at
    0.  Within an episode the issue cycle is ``issue0 + off``, so every
    part of that order except the row-miss bit is static: ``rank``, the
    record's position within its episode under ``(off, gaddr, index)``,
    stands in for the last three.  A key packs ``((channel * 3 + class)
    * 2 + miss) << S | rank << B | index`` (``channel * 6 << S | rank <<
    B | index`` on an FCFS channel), so sorting a list of keys gives the
    scheduler's order and ``key & mask`` the record index.  The kernel
    picks the hit or miss key per record against live bank state.

    ``rank`` needs ``off`` nondecreasing within an episode (``inst``
    nondecreasing; :class:`~repro.cpu.core.InOrderWindowCore` checks
    it): then records with equal ``(episode, off)`` form contiguous tie
    runs, and one stable argsort of ``(tie run, gaddr)`` orders them.
    """
    n = len(ctrl)
    idx = np.arange(n, dtype=np.int64)
    new_ep = np.ones(n, dtype=bool)
    np.not_equal(ep_of[1:], ep_of[:-1], out=new_ep[1:])
    new_run = new_ep.copy()
    new_run[1:] |= off[1:] != off[:-1]
    pos = idx
    if not new_run.all():
        run = np.cumsum(new_run) - 1
        g_bits = int(gaddrs.max()).bit_length()
        if int(run[-1]).bit_length() + g_bits <= 62:
            order = np.argsort((run << g_bits) | gaddrs, kind="stable")
        else:
            order = np.lexsort((gaddrs, run))
        pos = np.empty(n, dtype=np.int64)
        pos[order] = idx
    # Sorting by tie run keeps every record inside its episode's span.
    rank = pos - np.maximum.accumulate(np.where(new_ep, idx, 0))
    b = n.bit_length()
    s = b + int(rank.max()).bit_length()
    if (int(ctrl.max()) * 6 + 5).bit_length() + s > 63:
        raise ValueError(
            f"replay of {n} records cannot pack its scheduler keys "
            f"into int64")
    fcfs = fcfs[ctrl]
    cls = np.where(fcfs, ctrl * 6, (ctrl * 3 + klass) * 2)
    hit = (cls << s) | (rank << b) | idx
    miss = hit + np.where(fcfs, 0, 1 << s)
    return hit, miss, (1 << b) - 1


class Lane:
    """One core's episode schedule, as :func:`replay` consumes it.

    Episode ``k`` covers table records ``[ep_start[k], ep_end[k])``; its
    head issues ``headgap[k]`` cycles after the core's cycle, and record
    ``j`` ``off[j]`` cycles after the head.  The kernel drains episodes
    up to ``stop``, advancing ``k`` and ``cycle`` in place and writing
    each head's issue cycle to ``issue0[k]``.
    """

    __slots__ = ("tables", "ep_start", "ep_end", "headgap", "off",
                 "issue0", "cols", "k", "cycle", "stop")

    def __init__(self, tables: ReplayTables, ep_start, ep_end, headgap,
                 off, off_last, issue0: list[int], *, backlog: int,
                 k: int, cycle: int, stop: int):
        self.tables = tables
        self.ep_start = ep_start
        self.ep_end = ep_end
        self.headgap = headgap
        self.off = off
        self.issue0 = issue0
        self.k = k
        self.cycle = cycle
        self.stop = stop
        tb = tables
        #: Everything the kernel rebinds when it switches to this lane.
        self.cols = (tb.gbank_l, tb.row_l, tb.kind_l, tb.write_l,
                     tb.hit_key_l, tb.miss_key_l, tb.mask, tb.done_l,
                     tb.code_l,
                     ep_start, ep_end, headgap, off, off_last, issue0,
                     backlog)


@functools.lru_cache(maxsize=64)
def _timing_consts(t: DeviceTiming, line_bytes: int) -> tuple:
    """(hot-loop constants, (tREFI, tRFC), outcome constants) of one
    device timing.

    Memoized, so channels with equal timing share one hot tuple object —
    the kernel re-binds the constants only when that object changes.
    The outcome constants ``(tCCD, hit, miss, conflict service)`` decode
    :attr:`ReplayTables.code_l` at flush time.
    """
    transfer = t.transfer_cycles(line_bytes)
    hot = (t.tCL, t.tCCD, t.tRP, t.tRAS, t.tRC, t.tRCD + t.tCL, t.tFAW,
           t.turnaround, transfer)
    outcome = (t.tCCD, t.tCL + transfer, t.row_miss_latency + transfer,
               t.row_conflict_latency + transfer)
    return hot, (t.tREFI, t.tRFC), outcome


class _FlatDevices:
    """Every channel's bank, bus, tFAW and refresh state in flat lists.

    Loaded from the modules on construction and written back by
    :meth:`store`.  Banks are indexed ``bank_lo[c] + sub * n_banks +
    bank`` — the ``gbank`` column of :class:`ReplayTables` — and
    ``bank_ctrl``/``bank_sub`` give each bank's controller and flat
    subchannel ``sub_lo[c] + sub``.  The tFAW activate histories are one
    flat ring of four slots per subchannel (slots ``4 * sub`` to ``4 *
    sub + 3``); ``faw_q[sub]`` is the slot of the oldest of the last
    four activates, ``ring_next`` each slot's successor, and unused
    slots hold a sentinel far below any cycle.
    """

    def __init__(self, controllers) -> None:
        self.modules = [c.module for c in controllers]
        self.open_l: list = []
        self.ready_l: list[int] = []
        self.lact_l: list[int] = []
        self.bank_ctrl: list[int] = []
        self.bank_sub: list[int] = []
        self.bus_l: list[int] = []
        self.lastw_l: list = []
        self.ring: list[int] = []
        self.bank_lo: list[int] = []
        self.sub_lo: list[int] = []
        self.nref_l: list[int] = []
        self.consts: list[tuple] = []
        self.refresh: list[tuple] = []
        for ci, (c, m) in enumerate(zip(controllers, self.modules)):
            self.bank_lo.append(len(self.open_l))
            self.sub_lo.append(len(self.bus_l))
            for sub, banks in enumerate(m.banks):
                for b in banks:
                    self.open_l.append(b.open_row)
                    self.ready_l.append(b.ready_at)
                    self.lact_l.append(b.last_activate)
                    self.bank_ctrl.append(ci)
                    self.bank_sub.append(len(self.bus_l) + sub)
            self.bus_l += m.bus_free_at
            self.lastw_l += m._last_was_write
            for acts in m._recent_acts:
                last = acts[-4:]
                self.ring += [_NEG] * (4 - len(last)) + last
            self.nref_l.append(m._next_refresh)
            hot, refresh, _ = _timing_consts(m.timing, c.line_bytes)
            self.consts.append(hot)
            self.refresh.append(refresh)
        self.bank_lo.append(len(self.open_l))
        self.sub_lo.append(len(self.bus_l))
        self.faw_q = list(range(0, len(self.ring), 4))
        self.ring_next = [q + 1 if q % 4 < 3 else q - 3
                          for q in range(len(self.ring))]

    def refresh_to(self, c: int, t: int) -> int:
        """Run controller ``c``'s refreshes due by cycle ``t``
        (``MemoryModule._do_refresh`` + ``BankState.refresh``); returns
        its next refresh cycle.  The ``m`` due refreshes (each ``ready =
        max(nref_j, ready) + tRFC``) unroll to ``max(ready + m*tRFC,
        nref_j + (m-j)*tRFC)``, linear in ``j``: one pass over the banks
        however long the idle gap (an epoch billed for page copies)."""
        nref = self.nref_l[c]
        if t < nref:
            return nref
        open_l, ready_l, lact_l = self.open_l, self.ready_l, self.lact_l
        refi, rfc = self.refresh[c]
        m = (t - nref) // refi + 1
        step = m * rfc
        floor = nref + (m - 1) * refi + rfc if refi > rfc else nref + step
        for y in range(self.bank_lo[c], self.bank_lo[c + 1]):
            r = ready_l[y] + step
            open_l[y] = None
            ready_l[y] = lact_l[y] = r if r > floor else floor
        nref += m * refi
        self.nref_l[c] = nref
        return nref

    def store(self) -> None:
        open_l, ready_l, lact_l = self.open_l, self.ready_l, self.lact_l
        ring = self.ring
        i = 0
        for ci, m in enumerate(self.modules):
            for sub in m.banks:
                for b in sub:
                    b.open_row = open_l[i]
                    b.ready_at = ready_l[i]
                    b.last_activate = lact_l[i]
                    i += 1
            s0, s1 = self.sub_lo[ci], self.sub_lo[ci + 1]
            m.bus_free_at[:] = self.bus_l[s0:s1]
            m._last_was_write[:] = self.lastw_l[s0:s1]
            for sub, acts in enumerate(m._recent_acts, s0):
                lo, q = 4 * sub, self.faw_q[sub]
                acts[:] = [a for a in ring[q:lo + 4] + ring[lo:q]
                           if a != _NEG]
            m._next_refresh = self.nref_l[ci]


def replay(lanes: list[Lane]) -> None:
    """Drain ``lanes`` (cores sharing one memory system) to their stops.

    Cores advance in global issue order, ties to the earlier lane.
    """
    dev = _FlatDevices(lanes[0].tables.controllers)
    open_l, ready_l, lact_l = dev.open_l, dev.ready_l, dev.lact_l
    bank_ctrl, bank_sub = dev.bank_ctrl, dev.bank_sub
    bus_l, lastw_l = dev.bus_l, dev.lastw_l
    ring, faw_q, ring_next = dev.ring, dev.faw_q, dev.ring_next
    nref_l, consts, refresh = dev.nref_l, dev.consts, dev.refresh_to
    begins = [ln.k for ln in lanes]
    # Heap entries ``t * n_lanes + lane`` order exactly as ``(t, lane)``.
    nl = len(lanes)
    heap = [(ln.cycle + ln.headgap[ln.k]) * nl + i
            for i, ln in enumerate(lanes) if ln.k < ln.stop]
    heapq.heapify(heap)
    heappop, heappushpop = heapq.heappop, heapq.heappushpop
    cur_i = cur_c = -1
    cur_hot = None
    nref = 0
    x = heappop(heap) if heap else None
    while x is not None:
        i = x % nl
        ln = lanes[i]
        if i != cur_i:
            cur_i = i
            (gbank_l, row_l, kind_l, write_l, hit_l, miss_l, mask, done_l,
             code_l, ep_start, ep_end, headgap, off, off_last, ep_issue0,
             backlog) = ln.cols
        k = ln.k
        stop = ln.stop
        cycle = ln.cycle
        while True:
            s = ep_start[k]
            issue0 = cycle + headgap[k]
            ep_issue0[k] = issue0
            if ep_end[k] - s == 1:
                # Single-record lane: no scheduler (the reference skips
                # it for len-1 batches), the record issues at ``issue0``,
                # and its completion alone moves the core.
                b = gbank_l[s]
                c = bank_ctrl[b]
                if c != cur_c:
                    cur_c = c
                    nref = nref_l[c]
                    if consts[c] is not cur_hot:
                        cur_hot = consts[c]
                        (tCL, tCCD, tRP, tRAS, tRC, tRCD_CL, tFAW,
                         turnaround, transfer) = cur_hot
                if issue0 >= nref:
                    nref = refresh(c, issue0)
                sub = bank_sub[b]
                row = row_l[s]
                ready = ready_l[b]
                start = issue0 if issue0 > ready else ready
                open_row = open_l[b]
                if open_row == row:
                    data_ready = start + tCL
                    ready_l[b] = start + tCCD
                else:
                    q = faw_q[sub]
                    if tFAW > 0:
                        faw = ring[q] + tFAW
                        if faw > start:
                            start = faw
                    la = lact_l[b]
                    if open_row is not None:
                        pre = la + tRAS
                        if start > pre:
                            pre = start
                        act = pre + tRP
                        if la + tRC > act:
                            act = la + tRC
                        data_ready = act + tRCD_CL
                        code_l[s] = start - data_ready - 1
                    else:
                        act = la + tRC
                        if start > act:
                            act = start
                        data_ready = act + tRCD_CL
                        code_l[s] = data_ready - start + 1
                    lact_l[b] = act
                    open_l[b] = row
                    ready_l[b] = data_ready
                    ring[q] = act
                    faw_q[sub] = ring_next[q]
                bus_start = bus_l[sub]
                if data_ready > bus_start:
                    bus_start = data_ready
                is_write = write_l[s]
                prev_write = lastw_l[sub]
                if prev_write != is_write:
                    if prev_write is not None:
                        bus_start += turnaround
                    lastw_l[sub] = is_write
                done = bus_start + transfer
                bus_l[sub] = done
                done_l[s] = done
                # The core-cycle update below with ``off_last == 0``.
                t = done if kind_l[s] == 0 else issue0
                c3 = done - backlog
                cycle = c3 if c3 > t else t
            else:
                # Row-hit bits against bank state at episode entry.
                keyed = [hit_l[j] if open_l[gbank_l[j]] == row_l[j]
                         else miss_l[j] for j in range(s, ep_end[k])]
                keyed.sort()
                lm = dm = _NEG
                for j in keyed:
                    j &= mask
                    b = gbank_l[j]
                    c = bank_ctrl[b]
                    issue = issue0 + off[j]
                    if c != cur_c:
                        cur_c = c
                        nref = nref_l[c]
                        if consts[c] is not cur_hot:
                            cur_hot = consts[c]
                            (tCL, tCCD, tRP, tRAS, tRC, tRCD_CL, tFAW,
                             turnaround, transfer) = cur_hot
                    if issue >= nref:
                        nref = refresh(c, issue)
                    sub = bank_sub[b]
                    row = row_l[j]
                    ready = ready_l[b]
                    start = issue if issue > ready else ready
                    open_row = open_l[b]
                    if open_row == row:
                        data_ready = start + tCL
                        ready_l[b] = start + tCCD
                    else:
                        q = faw_q[sub]
                        if tFAW > 0:
                            faw = ring[q] + tFAW
                            if faw > start:
                                start = faw
                        la = lact_l[b]
                        if open_row is not None:
                            pre = la + tRAS
                            if start > pre:
                                pre = start
                            act = pre + tRP
                            if la + tRC > act:
                                act = la + tRC
                            data_ready = act + tRCD_CL
                            code_l[j] = start - data_ready - 1
                        else:
                            act = la + tRC
                            if start > act:
                                act = start
                            data_ready = act + tRCD_CL
                            code_l[j] = data_ready - start + 1
                        lact_l[b] = act
                        open_l[b] = row
                        ready_l[b] = data_ready
                        ring[q] = act
                        faw_q[sub] = ring_next[q]
                    bus_start = bus_l[sub]
                    if data_ready > bus_start:
                        bus_start = data_ready
                    is_write = write_l[j]
                    prev_write = lastw_l[sub]
                    if prev_write != is_write:
                        if prev_write is not None:
                            bus_start += turnaround
                        lastw_l[sub] = is_write
                    done = bus_start + transfer
                    bus_l[sub] = done
                    done_l[j] = done
                    if done > dm:
                        dm = done
                    if done > lm and kind_l[j] == 0:
                        lm = done
                # Core-cycle update: the ROB head waits for the episode's
                # loads, retirement reaches its last record, and
                # background completions run at most ``backlog`` cycles
                # ahead.
                t = lm if lm > issue0 else issue0
                c2 = issue0 + off_last[k]
                if c2 > t:
                    t = c2
                c3 = dm - backlog
                cycle = c3 if c3 > t else t
            k += 1
            if k == stop:
                nxt = None
                break
            if heap:
                nxt = (cycle + headgap[k]) * nl + i
                if nxt > heap[0]:
                    break
        ln.k = k
        ln.cycle = cycle
        if nxt is not None:
            x = heappushpop(heap, nxt)
        else:
            x = heappop(heap) if heap else None
    dev.store()
    if OBS.enabled:
        _publish_obs(dev, lanes, begins)


def _publish_obs(dev: _FlatDevices, lanes: list[Lane],
                 begins: list[int]) -> None:
    """OBS counters and gauges for the episodes one kernel call drained.

    Equal to the reference engine's per-batch publication: one
    ``memsys.batches`` per episode, episode shapes (``memsys.batches.
    single`` and ``memsys.batches.le<2**k>`` for larger episodes, see
    :func:`repro.memctrl.system.batch_size_counter`), per-group and
    per-channel request sums, and each channel's ``queue_occupancy``
    gauge left at its size in the last episode (in drain order) that
    touched it.
    """
    tables = lanes[0].tables
    memsys = tables.memsys
    nc = len(tables.controllers)
    requests = np.zeros(nc, dtype=np.int64)
    row_hits = np.zeros(nc, dtype=np.int64)
    queue_cycles = np.zeros(nc, dtype=np.int64)
    batches = 0
    # Episodes per size bucket: bucket k holds sizes (2**(k-1), 2**k].
    shapes = np.zeros(64, dtype=np.int64)
    #: channel -> (drain-order key of its last episode, records in it)
    last: dict[int, tuple] = {}
    for i, (ln, k0) in enumerate(zip(lanes, begins)):
        k1 = ln.k
        if k1 == k0:
            continue
        tb = ln.tables
        lo, hi = ln.ep_start[k0], ln.ep_end[k1 - 1]
        batches += k1 - k0
        ctrl = tb._ctrl_np[lo:hi]
        sizes = (np.asarray(ln.ep_end[k0:k1], dtype=np.int64)
                 - np.asarray(ln.ep_start[k0:k1], dtype=np.int64))
        shapes += np.bincount(np.frexp(sizes - 1)[1], minlength=64)
        ep = np.repeat(np.arange(k0, k1), sizes)
        issue = (np.asarray(ln.issue0[k0:k1], dtype=np.int64)[ep - k0]
                 + np.asarray(ln.off[lo:hi], dtype=np.int64))
        hit, _, queue, _ = tb.outcomes(
            lo, hi, issue, np.asarray(tb.done_l[lo:hi], dtype=np.int64))
        requests += np.bincount(ctrl, minlength=nc)
        row_hits += np.bincount(ctrl[hit], minlength=nc)
        np.add.at(queue_cycles, ctrl, queue)
        for c in np.unique(ctrl).tolist():
            at = np.flatnonzero(ctrl == c)
            kk = int(ep[at[-1]])
            key = (ln.issue0[kk], i, kk)
            if c not in last or key > last[c][0]:
                last[c] = (key, int((ep[at] == kk).sum()))
    if not batches:
        return
    OBS.add("memsys.batches", batches)
    for k in np.flatnonzero(shapes).tolist():
        OBS.add(batch_size_counter(1 << k), int(shapes[k]))
    OBS.add("memsys.requests", int(requests.sum()))
    lo = 0
    for name, g in zip(memsys.group_names, memsys.groups):
        n = int(requests[lo:lo + g.n_channels].sum())
        lo += g.n_channels
        if n:
            OBS.add(f"memsys.group.{name}.requests", n)
    for c in np.flatnonzero(requests).tolist():
        name = dev.modules[c].name
        OBS.add(f"mem.{name}.requests", int(requests[c]))
        OBS.add(f"mem.{name}.row_hits", int(row_hits[c]))
        OBS.add(f"mem.{name}.queue_cycles", int(queue_cycles[c]))
    for c, (_, size) in last.items():
        OBS.gauge(f"mem.{dev.modules[c].name}.queue_occupancy", size)
