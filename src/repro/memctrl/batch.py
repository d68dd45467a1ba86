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
multicore driver uses.  Channels with equal timing share one constants
tuple, and the loop re-binds the constants only when that tuple
changes.  The state goes back into the ``BankState`` and
``MemoryModule`` objects when the call returns.

Bit-identity contract (pinned by ``tests/test_parity.py``):

* The reference drains per (group, channel) sub-batch, but channels are
  fully independent — only the *within-channel* order is semantically
  meaningful.  A single sort keyed ``(channel, scheduler key, record
  index)`` therefore reproduces the reference order exactly; the final
  record index mirrors ``sorted()``'s stability.
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
and ``MemoryModule.decode``; the device arithmetic in :func:`replay` is
the fast path's only inline of ``MemoryModule.access``,
``BankState.service`` and ``BankState.refresh``.  Keep them in lockstep.
"""

from __future__ import annotations

import functools
import heapq

import numpy as np

from repro.cpu.hierarchy import KIND_STORE, KIND_WRITEBACK
from repro.memctrl.addrmap import LINE_BITS, LINE_BYTES
from repro.memctrl.scheduler import SCHEDULERS, fcfs_order
from repro.memctrl.system import MemorySystem
from repro.memdev.timing import DeviceTiming
from repro.obs.registry import OBS

_NEG = -(1 << 62)


class ReplayTables:
    """Precomputed per-record routing/decode columns for one replay.

    Built lazily by :class:`~repro.cpu.core.InOrderWindowCore` on the
    first kernel call (the memory system is not known at construction)
    and keyed on the system's identity, one instance per (core, memsys).
    Bank and subchannel columns index the flat per-system lists of
    :func:`replay` (controller layout order, ``sub * n_banks + bank``
    within a module).

    The kernel writes two per-record output columns: ``done_l`` (the
    completion cycle) and ``code_l``, the row outcome and bank-busy
    cycles in one integer — ``0`` for a row hit (busy ``tCCD``),
    ``busy + 1`` for a row miss and ``-(busy + 1)`` for a row conflict.
    The ``+ 1`` keeps a zero-latency miss (``tRCD = tCL = 0``) apart
    from a hit.  Row-hit, service and queue columns are derived from
    them on demand (:meth:`outcomes`).
    """

    def __init__(self, memsys: MemorySystem, groups: np.ndarray,
                 gaddrs: np.ndarray, kind: np.ndarray):
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
        (self._ctrl_np, self._demand_np, self._write_np,
         self.ctrl_l, self.gbank_l, self.gsub_l, self.row_l,
         self.gaddr_l, self.write_l, self.klass_l) = self._decode(
            memsys, bases, np.asarray(groups, dtype=np.int64),
            np.asarray(gaddrs, dtype=np.int64),
            np.asarray(kind, dtype=np.int64))
        #: Per controller: (tCCD, hit, miss, conflict service cycles).
        self._outcome_np = np.array(
            [_timing_consts(c.module.timing, c.line_bytes)[2]
             for c in self.controllers], dtype=np.int64)
        # Per-record outputs, filled by replay(), read at finalize.  A
        # row hit leaves its code at 0 (every record drains once).
        self.done_l = [0] * n
        self.code_l = [0] * n
        self._flushed = False

    @staticmethod
    def _decode(memsys: MemorySystem, bases, groups: np.ndarray,
                gaddrs: np.ndarray, kind: np.ndarray) -> tuple:
        """Vectorized routing/decode of every record."""
        n = len(gaddrs)
        ctrl = np.zeros(n, dtype=np.int64)
        sub = np.zeros(n, dtype=np.int64)
        fbank = np.zeros(n, dtype=np.int64)
        row = np.zeros(n, dtype=np.int64)
        for gi, g in enumerate(memsys.groups):
            sel = np.flatnonzero(groups == gi)
            if not len(sel):
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
            sub[sel] = sb
            fbank[sel] = sb * g.timing.n_banks + bk
            row[sel] = (dline2 >> mod._bank_bits) % g.timing.n_rows
        # Offsets of each controller's banks and subchannels in the flat
        # per-system lists (controller layout order).
        subs = [g.timing.n_subchannels
                for g in memsys.groups for _ in range(g.n_channels)]
        banks = [g.timing.n_subchannels * g.timing.n_banks
                 for g in memsys.groups for _ in range(g.n_channels)]
        sub_lo = np.cumsum([0] + subs[:-1], dtype=np.int64)
        bank_lo = np.cumsum([0] + banks[:-1], dtype=np.int64)
        gsub = sub_lo[ctrl] + sub
        gbank = bank_lo[ctrl] + fbank
        demand = kind <= KIND_STORE
        write = (kind == KIND_STORE) | (kind == KIND_WRITEBACK)
        # FR-FCFS criticality: demand read 0, demand write 1, background 2.
        klass = np.where(demand, np.where(write, 1, 0), 2)
        # Hot-loop columns as plain-int lists (one tolist() each; list
        # indexing beats numpy scalar extraction ~10x in the kernel).
        return (ctrl, demand, write,
                ctrl.tolist(), gbank.tolist(), gsub.tolist(), row.tolist(),
                gaddrs.tolist(), write.tolist(), klass.tolist())

    # ---- episode drain ----------------------------------------------------------

    def drain_episode(self, s: int, e: int, issue0: int,
                      off: list[int]) -> tuple[int, int]:
        """Serve records [s, e) issued at ``issue0 + off[j]``.

        The stepping API's one-episode call into :func:`replay`.
        Returns ``(max done over demand loads, max done over all
        records)`` — the two quantities the core's cycle update needs.
        """
        return replay([Lane(self, (s,), (e,), (issue0,), off, (0,), [0],
                            backlog=0, k=0, cycle=0, stop=1)])

    # ---- deferred statistics ----------------------------------------------------

    def outcomes(self, lo: int, hi: int, issue: np.ndarray,
                 done: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(row hit, service, queue, bank busy)`` of records [lo, hi).

        Decoded from the outcome codes with each controller's timing
        constants; ``issue`` and ``done`` are the records' issue and
        completion cycles.  Exactly the values the device arithmetic
        produced record by record.
        """
        code = np.asarray(self.code_l[lo:hi], dtype=np.int64)
        consts = self._outcome_np[self._ctrl_np[lo:hi]]
        hit = code == 0
        service = np.where(hit, consts[:, 1],
                           np.where(code > 0, consts[:, 2], consts[:, 3]))
        busy = np.where(hit, consts[:, 0], np.abs(code) - 1)
        queue = done - issue - service
        np.maximum(queue, 0, out=queue)
        return hit, service, queue, busy

    def flush_stats(self, issue: np.ndarray) -> None:
        """Fold the per-record outputs into module/controller counters.

        Called once, at end of replay, per (core, memsys) table, with
        every record's issue cycle.  Exact integer aggregation
        throughout (int64 sums, no float weights).  Assumes device
        timing did not change mid-replay (fault derating happens before
        replay starts).
        """
        if self._flushed:
            return
        self._flushed = True
        done = np.asarray(self.done_l, dtype=np.int64)
        hit, service, queue, bb = self.outcomes(0, len(done), issue, done)
        ctrl = self._ctrl_np
        write = self._write_np
        demand = self._demand_np
        for ci, c in enumerate(self.controllers):
            sel = np.flatnonzero(ctrl == ci)
            cnt = len(sel)
            if not cnt:
                continue
            m = c.module
            n_writes = int(write[sel].sum())
            m.n_accesses += cnt
            m.n_row_hits += int(hit[sel].sum())
            m.n_writes += n_writes
            m.n_reads += cnt - n_writes
            m.bus_busy_cycles += m.timing.transfer_cycles(c.line_bytes) * cnt
            m.bank_busy_cycles += int(bb[sel].sum())
            m.bytes_transferred += c.line_bytes * cnt
            done_max = int(done[sel].max())
            if done_max > m.last_done_cycle:
                m.last_done_cycle = done_max
            c.n_served += cnt
            c.total_queue_cycles += int(queue[sel].sum())
            c.total_service_cycles += int(service[sel].sum())
            dsel = sel[demand[sel]]
            if len(dsel):
                c.latency_hist.record_many(queue[dsel] + service[dsel])


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
        self.cols = (tb.ctrl_l, tb.gbank_l, tb.gsub_l, tb.row_l,
                     tb.write_l, tb.klass_l, tb.gaddr_l, tb.done_l,
                     tb.code_l, ep_start, ep_end, headgap, off, off_last,
                     issue0, backlog)


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
    bank`` and subchannels ``sub_lo[c] + sub`` — the ``gbank``/``gsub``
    columns of :class:`ReplayTables`.  The per-subchannel tFAW activate
    histories are the modules' own lists, mutated in place.
    """

    def __init__(self, controllers) -> None:
        self.modules = [c.module for c in controllers]
        self.open_l: list = []
        self.ready_l: list[int] = []
        self.lact_l: list[int] = []
        self.bus_l: list[int] = []
        self.lastw_l: list = []
        self.acts_l: list[list[int]] = []
        self.bank_lo: list[int] = []
        self.sub_lo: list[int] = []
        self.nref_l: list[int] = []
        self.consts: list[tuple] = []
        self.refresh: list[tuple] = []
        self.fcfs: list[bool] = []
        for c, m in zip(controllers, self.modules):
            self.bank_lo.append(len(self.open_l))
            self.sub_lo.append(len(self.bus_l))
            for sub in m.banks:
                for b in sub:
                    self.open_l.append(b.open_row)
                    self.ready_l.append(b.ready_at)
                    self.lact_l.append(b.last_activate)
            self.bus_l += m.bus_free_at
            self.lastw_l += m._last_was_write
            self.acts_l += m._recent_acts
            self.nref_l.append(m._next_refresh)
            hot, refresh, _ = _timing_consts(m.timing, c.line_bytes)
            self.consts.append(hot)
            self.refresh.append(refresh)
            self.fcfs.append(c.scheduler is fcfs_order)
        self.bank_lo.append(len(self.open_l))
        self.sub_lo.append(len(self.bus_l))

    def store(self) -> None:
        open_l, ready_l, lact_l = self.open_l, self.ready_l, self.lact_l
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
            m._next_refresh = self.nref_l[ci]


def replay(lanes: list[Lane]) -> tuple[int, int]:
    """Drain ``lanes`` (cores sharing one memory system) to their stops.

    Cores advance in global issue order, ties to the earlier lane.
    Returns the last drained episode's ``(max done over demand loads,
    max done over all records)``.
    """
    dev = _FlatDevices(lanes[0].tables.controllers)
    open_l, ready_l, lact_l = dev.open_l, dev.ready_l, dev.lact_l
    bus_l, lastw_l, acts_l = dev.bus_l, dev.lastw_l, dev.acts_l
    nref_l, bank_lo, consts = dev.nref_l, dev.bank_lo, dev.consts
    fcfs = dev.fcfs
    begins = [ln.k for ln in lanes]
    heap = [(ln.cycle + ln.headgap[ln.k], i)
            for i, ln in enumerate(lanes) if ln.k < ln.stop]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    cur_i = cur_c = -1
    cur_hot = None
    nref = 0
    lm = dm = _NEG
    while heap:
        _, i = heappop(heap)
        ln = lanes[i]
        if i != cur_i:
            cur_i = i
            (ctrl_l, gbank_l, gsub_l, row_l, write_l, klass_l, gaddr_l,
             done_l, code_l, ep_start, ep_end, headgap, off, off_last,
             ep_issue0, backlog) = ln.cols
        k = ln.k
        stop = ln.stop
        cycle = ln.cycle
        while True:
            s = ep_start[k]
            e = ep_end[k]
            issue0 = cycle + headgap[k]
            ep_issue0[k] = issue0
            # Scheduler order: keyed tuples end in the record index.
            if e - s == 1:
                # Singletons skip the sort, like the reference skips the
                # scheduler for len-1 batches.
                keyed = ((s,),)
            else:
                keyed = []
                ap = keyed.append
                for j in range(s, e):
                    c = ctrl_l[j]
                    if fcfs[c]:
                        ap((c, issue0 + off[j], gaddr_l[j], j))
                    else:
                        ap((c, klass_l[j],
                            0 if open_l[gbank_l[j]] == row_l[j] else 1,
                            issue0 + off[j], gaddr_l[j], j))
                keyed.sort()
            lm = dm = _NEG
            for rec in keyed:
                j = rec[-1]
                c = ctrl_l[j]
                issue = issue0 + off[j]
                if c != cur_c:
                    cur_c = c
                    nref = nref_l[c]
                    if consts[c] is not cur_hot:
                        cur_hot = consts[c]
                        (tCL, tCCD, tRP, tRAS, tRC, tRCD_CL, tFAW,
                         turnaround, transfer) = cur_hot
                if issue >= nref:
                    # MemoryModule._do_refresh + BankState.refresh.
                    refi, rfc = dev.refresh[c]
                    lo, hi = bank_lo[c], bank_lo[c + 1]
                    while issue >= nref:
                        for x in range(lo, hi):
                            r = ready_l[x]
                            r = (nref if nref > r else r) + rfc
                            open_l[x] = None
                            ready_l[x] = r
                            lact_l[x] = r
                        nref += refi
                    nref_l[c] = nref
                b = gbank_l[j]
                sub = gsub_l[j]
                row = row_l[j]
                ready = ready_l[b]
                start = issue if issue > ready else ready
                open_row = open_l[b]
                if open_row == row:
                    data_ready = start + tCL
                    ready_l[b] = start + tCCD
                else:
                    acts = acts_l[sub]
                    if tFAW > 0 and len(acts) >= 4:
                        faw = acts[-4] + tFAW
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
                    acts.append(act)
                    if len(acts) > 4:
                        del acts[:-4]
                bus_start = bus_l[sub]
                if data_ready > bus_start:
                    bus_start = data_ready
                is_write = write_l[j]
                prev_write = lastw_l[sub]
                if prev_write is not None and prev_write != is_write:
                    bus_start += turnaround
                lastw_l[sub] = is_write
                done = bus_start + transfer
                bus_l[sub] = done
                done_l[j] = done
                if done > dm:
                    dm = done
                if klass_l[j] == 0 and done > lm:
                    lm = done
            # Core-cycle update: the ROB head waits for the episode's
            # loads, retirement reaches its last record, and background
            # completions run at most ``backlog`` cycles ahead.
            t = lm if lm > issue0 else issue0
            c2 = issue0 + off_last[k]
            if c2 > t:
                t = c2
            c3 = dm - backlog
            cycle = c3 if c3 > t else t
            k += 1
            if k == stop:
                break
            if heap:
                nxt = (cycle + headgap[k], i)
                if nxt > heap[0]:
                    heappush(heap, nxt)
                    break
        ln.k = k
        ln.cycle = cycle
    dev.store()
    if OBS.enabled:
        _publish_obs(dev, lanes, begins)
    return lm, dm


def _publish_obs(dev: _FlatDevices, lanes: list[Lane],
                 begins: list[int]) -> None:
    """OBS counters and gauges for the episodes one kernel call drained.

    Equal to the reference engine's per-batch publication: one
    ``memsys.batches`` per episode, per-group and per-channel request
    sums, and each channel's ``queue_occupancy`` gauge left at its size
    in the last episode (in drain order) that touched it.
    """
    tables = lanes[0].tables
    memsys = tables.memsys
    nc = len(tables.controllers)
    requests = np.zeros(nc, dtype=np.int64)
    row_hits = np.zeros(nc, dtype=np.int64)
    queue_cycles = np.zeros(nc, dtype=np.int64)
    batches = 0
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
