"""Bit-exact vectorized trace-synthesis kernel.

Replays :meth:`repro.trace.builder.TraceBuilder.build`'s chunk loop —
including every ``numpy.random.Generator`` draw it makes — directly
from the underlying PCG64 *raw word stream*, so the synthesized columns
and the caller's final RNG state are byte-identical to the reference
loop (``tests/test_trace_parity.py`` pins this).  The reference stays
the executable specification, and the engine for the builds
:func:`supported` declines.

Why this is possible
--------------------

Every Generator method the reference consumes has a fixed decode rule
over raw 64-bit words ``w``:

* ``random(n)`` — one word per double: ``(w >> 11) * 2**-53``;
* ``choice(k, size, p)`` — ``size`` doubles pushed through the
  normalized-cumsum ``searchsorted(..., side="right")``;
* ``integers(0, L)`` with ``L < 2**32`` — 32-bit Lemire rejection over
  a *half-word* stream (low half first, then high), with the spare half
  parked in the bit generator's persistent ``uinteger`` buffer where it
  survives intervening 64-bit draws;
* ``geometric(p)`` with ``p >= 1/3`` — the search method: exactly one
  double per variate, inverted with a precomputed partial-sum table;
* ``geometric(p)`` with ``p < 1/3`` — inversion via the exponential
  ziggurat (tables in :mod:`repro.trace.zigtables`): one word per
  variate on the ~97.8% fast path, extra words on rejection/tail.

Only two constructs consume a *data-dependent* number of words: Lemire
rejections and ziggurat slow paths.  The kernel lays the stream out
speculatively (no rejections, fast-path gaps), in blocks of
``_BLOCK_ACCESSES`` accesses.  A ziggurat slow path takes ~2.2% of gap
draws, and whether a draw takes it depends only on the word it reads.
So one linear walk over a window's failing words resolves every slow
path exactly, with the shift of each later read known as it goes (see
``_Kernel._zig_chain``).  Lemire rejections and degenerate hotspots are
rarer *true events*: detected vectorized under the walked shifts, each
cuts the window, is repaired scalar, and the layout restarts after it.
All bulk decoding (burst schedule, offsets, write/dep flags, gaps) is
whole-array numpy.

The kernel never touches the caller's Generator until the very end:
words are drawn from a cloned bit generator, and the caller's state is
committed once via ``PCG64.advance`` (plus the replayed u32 buffer).
This makes structural fallback to the reference loop safe at any point
before the commit, and gives chunked/streamed generation random access
to the word stream at bounded RSS.
"""

from __future__ import annotations

import math

import numpy as np

from repro.trace.zigtables import FE, KE, WE, ZIGGURAT_EXP_R

_WE, _KE, _FE = WE.tolist(), KE.tolist(), FE.tolist()  # for the walk

__all__ = ["supported", "iter_kernel_blocks"]

_DBL = 2.0 ** -53
#: numpy's geometric() method cutover: search below, ziggurat inversion
#: at and above (the C constant rounds to the same double as 1/3).
_SEARCH_P_MIN = 1.0 / 3.0
#: Target accesses per walk block: large enough to amortize numpy call
#: overhead (apps with few true events build 30-45% faster than at 2048
#: on a 2-CPU x86 VM; 16384 gains nothing more), while a window after a
#: true event stays sized by the event rate, not by the block.  The
#: chunk count per block is derived from the schedule's mean burst so
#: blocks have comparable size across workloads.
_BLOCK_ACCESSES = 8192
#: Slack of the zig walk's first failing-word scan, in words per zig
#: draw to resolve (plus a constant): about twice the expected shift, so
#: the walk rarely has to scan further.
_WALK_SLACK = 1 / 16

# Op kinds, in the per-chunk stream order the reference emits them.
_K_LEM = 0   # integers(0, L, n)            -- rand/chase offsets
_K_HOT = 1   # random(n) + hot/cold integers -- hotspot offsets
_K_WR = 2    # random(n)                    -- write flags
_K_DEP = 3   # random(n)                    -- dep flags (0 < dp < 1)
_K_GS = 4    # geometric(p >= 1/3, n)       -- gaps, search method
_K_GZ = 5    # geometric(p < 1/3, n)        -- gaps, ziggurat inversion


def _excl_cumsum(a: np.ndarray) -> np.ndarray:
    out = np.empty(len(a) + 1, dtype=np.int64)
    out[0] = 0
    np.cumsum(a, out=out[1:])
    return out[:-1]


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without the loop."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = _excl_cumsum(counts)
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _doubles(words: np.ndarray) -> np.ndarray:
    return (words >> np.uint64(11)) * _DBL


def _geom_search_table(p: float) -> np.ndarray:
    """Partial sums of the geometric pmf, exactly as the search method
    accumulates them; ``X = 1 + table.searchsorted(U, side="left")``."""
    q = 1.0 - p
    s = prod = p
    out = [s]
    while True:
        prod *= q
        s2 = s + prod
        if s2 == s:
            return np.asarray(out)
        s = s2
        out.append(s)


class _WordTape:
    """The raw PCG64 word stream, materialized lazily in a sliding window."""

    __slots__ = ("_bg", "_buf", "_lo", "_hi")

    def __init__(self, state: dict):
        bg = np.random.PCG64()
        bg.state = {**state, "has_uint32": 0, "uinteger": 0}
        self._bg = bg
        self._buf = np.empty(0, dtype=np.uint64)
        self._lo = 0
        self._hi = 0

    def need(self, hi: int) -> None:
        if hi > self._hi:
            grow = max(hi - self._hi, 1 << 15)
            self._buf = np.concatenate([self._buf, self._bg.random_raw(grow)])
            self._hi += grow

    def release(self, lo: int) -> None:
        """Forget words below ``lo`` (they can never be re-read)."""
        if lo > self._lo:
            self._buf = self._buf[lo - self._lo:]
            self._lo = lo

    def aslice(self, lo: int, hi: int) -> np.ndarray:
        self.need(hi)
        return self._buf[lo - self._lo: hi - self._lo]

    def take(self, idx: np.ndarray) -> np.ndarray:
        if idx.size == 0:
            return np.empty(0, dtype=np.uint64)
        self.need(int(idx.max()) + 1)
        return self._buf[idx - self._lo]

    def word(self, i: int) -> int:
        self.need(i + 1)
        return int(self._buf[i - self._lo])


def supported(builder, rng: np.random.Generator) -> bool:
    """Whether the kernel can replay this build bit-exactly.

    Structural conditions only; anything else falls back to the
    reference loop (which also owns raising the reference's errors for
    invalid behaviours, at the exact chunk it would raise them).
    """
    if not isinstance(rng.bit_generator, np.random.PCG64):
        return False
    ab = builder.access_bytes
    for b in builder.behaviors:
        if b.weight <= 0:
            continue  # never scheduled; reference never evaluates it
        if b.pattern == "seq" and b.size_bytes < ab:
            return False  # reference raises mid-build
        if b.pattern == "strided" and b.stride <= 0:
            return False
        if b.pattern == "hotspot" and not (
                0.0 < b.hot_fraction <= 1.0 and 0.0 <= b.hot_weight <= 1.0):
            return False
        if b.size_bytes - ab + 1 >= 2 ** 32:
            return False  # 64-bit Lemire path not replayed
    return True


class _Plans:
    """Per-behaviour constants, precomputed once per build."""

    def __init__(self, builder, bases, ids):
        bs = builder.behaviors
        ab = builder.access_bytes
        nb = len(bs)
        self.ab = ab
        self.base = np.asarray(bases, dtype=np.int64)
        self.ids = np.asarray(ids, dtype=np.int32)

        # Chunk schedule constants — same formulas/dtypes as the reference.
        weights = np.asarray([b.weight for b in bs], dtype=float)
        bursts = np.asarray([b.burst_mean for b in bs], dtype=float)
        chunk_w = weights / bursts
        self.probs = chunk_w / chunk_w.sum()
        self.cdf = self.probs.cumsum()
        self.cdf /= self.cdf[-1]
        self.mean_burst = float(np.dot(self.probs, bursts))
        self.default_gap = max(1.0, 1000.0 / builder.mem_per_ki)

        self.p_burst = np.asarray([1.0 / b.burst_mean for b in bs])
        self.log1mp = np.asarray(
            [np.log(1.0 - p) if p < 1.0 else -1.0 for p in self.p_burst])
        self.percap = np.asarray(
            [4 * int(b.burst_mean) + 8 for b in bs], dtype=np.int64)

        pat = {"seq": 0, "strided": 1, "rand": 2, "chase": 3, "hotspot": 4}
        self.patk = np.asarray([pat[b.pattern] for b in bs], dtype=np.int8)
        self.size = np.asarray([b.size_bytes for b in bs], dtype=np.int64)
        self.step = np.asarray(
            [b.stride if b.pattern == "strided" else ab for b in bs],
            dtype=np.int64)
        span = []
        for b in bs:
            if b.pattern == "strided":
                span.append(max(b.stride, (b.size_bytes // b.stride) * b.stride))
            else:
                span.append(max(1, (b.size_bytes // ab) * ab))
        self.span = np.asarray(span, dtype=np.int64)
        self.clamp = np.maximum(0, self.size - ab)

        # Lemire parameters (values below 2**32 guaranteed by supported()).
        self.lem_L = np.asarray(
            [max(1, b.size_bytes - ab + 1) for b in bs], dtype=np.uint64)
        hot_size = [max(ab, int(b.size_bytes * b.hot_fraction)) for b in bs]
        self.hot_L = np.asarray(
            [max(1, hs - ab + 1) for hs in hot_size], dtype=np.uint64)
        self.lem_thr = np.asarray(
            [(2 ** 32 - int(v)) % int(v) for v in self.lem_L], dtype=np.uint64)
        self.hot_thr = np.asarray(
            [(2 ** 32 - int(v)) % int(v) for v in self.hot_L], dtype=np.uint64)
        self.hot_w = np.asarray([b.hot_weight for b in bs])

        self.wf = np.asarray([b.write_frac for b in bs])
        self.dp = np.asarray([b.effective_dep_prob for b in bs])
        self.dep_one = self.dp >= 1.0

        # Gap draw plan.
        self.gap_p = np.asarray(
            [1.0 / (b.gap_mean if b.gap_mean is not None else self.default_gap)
             for b in bs])
        self.gap_denom = np.asarray(
            [-math.log1p(-p) if p < _SEARCH_P_MIN else 1.0 for p in self.gap_p])
        self.gap_tbl = [
            _geom_search_table(p) if p >= _SEARCH_P_MIN else None
            for p in self.gap_p]

        # Per-behaviour op templates (stream order inside one chunk).
        self.hot_nohalf = np.zeros(nb, dtype=bool)
        self.hot_aev = np.zeros(nb, dtype=bool)
        self.lem_nohalf = np.zeros(nb, dtype=bool)
        tbl = np.full((nb, 4), -1, dtype=np.int8)
        cnt = np.zeros(nb, dtype=np.int64)
        for i, b in enumerate(bs):
            ops = []
            if b.pattern in ("rand", "chase"):
                ops.append(_K_LEM)
                self.lem_nohalf[i] = int(self.lem_L[i]) == 1
            elif b.pattern == "hotspot":
                ops.append(_K_HOT)
                hd, cd = int(self.hot_L[i]) == 1, int(self.lem_L[i]) == 1
                self.hot_nohalf[i] = hd and cd
                self.hot_aev[i] = hd != cd
            ops.append(_K_WR)
            if 0.0 < self.dp[i] < 1.0:
                ops.append(_K_DEP)
            ops.append(_K_GS if self.gap_p[i] >= _SEARCH_P_MIN else _K_GZ)
            tbl[i, :len(ops)] = ops
            cnt[i] = len(ops)
        self.op_tbl = tbl
        self.op_cnt = cnt
        # Speculative half-words per access of an op (0 when the Lemire
        # span is 1: numpy returns the offset without consuming).
        halfmul = np.zeros((nb, 6), dtype=np.int64)
        halfmul[:, _K_LEM] = (~self.lem_nohalf).astype(np.int64)
        halfmul[:, _K_HOT] = (~self.hot_nohalf).astype(np.int64)
        self.halfmul = halfmul
        # Words consumed per access in addition to half fetches.
        wordmul = np.zeros(6, dtype=np.int64)
        wordmul[[_K_HOT, _K_WR, _K_DEP, _K_GS, _K_GZ]] = 1
        self.wordmul = wordmul


class _Kernel:
    """One build replay: schedule per batch, walk blocks, repair events."""

    def __init__(self, builder, n_accesses, rng, bases, ids):
        self.P = _Plans(builder, bases, ids)
        self.n_accesses = n_accesses
        self.rng = rng
        st = rng.bit_generator.state
        self._state0 = st
        self.tape = _WordTape(st)
        self.c = 0                       # word cursor into the raw stream
        self.b = int(st["has_uint32"])   # one stale u32 half buffered?
        self.v = int(st["uinteger"])     # ... its value
        self.seq_cursor = [0] * len(builder.behaviors)
        self.est_chunks = max(
            16, int(n_accesses / self.P.mean_burst * 1.6) + 8)
        self.block_chunks = max(
            32, int(_BLOCK_ACCESSES / self.P.mean_burst))
        # EMA of ops between true events; sizes the post-event re-scan
        # window so event-heavy workloads don't pay for layouts that an
        # imminent next event will invalidate.
        self.ev_ema = 1e9
        self.since_ev = 0

    # ---------------------------------------------------------------- stream

    def blocks(self):
        """Yield ``(vaddr, is_write, dep, obj_id, gaps)`` column blocks."""
        total = 0
        while total < self.n_accesses:
            obj, n = self._schedule_batch(self.n_accesses - total)
            total += int(n.sum())
            bc = self.block_chunks
            for s in range(0, len(obj), bc):
                self.tape.release(self.c)
                yield self._walk_block(obj[s:s + bc], n[s:s + bc])
        self._commit()

    def _schedule_batch(self, remaining):
        """Replay one choice/uniform batch into (obj, burst-length) chunks."""
        P, E = self.P, self.est_chunks
        w = self.tape.aslice(self.c, self.c + 2 * E)
        self.c += 2 * E
        obj = P.cdf.searchsorted(_doubles(w[:E]), side="right")
        u = _doubles(w[E:])
        one = P.p_burst[obj] >= 1.0
        ratio = np.log(np.maximum(u, 1e-12)) / P.log1mp[obj]
        n = np.where(one, 1, 1 + ratio.astype(np.int64))
        n = np.minimum(n, P.percap[obj])
        csum = np.cumsum(n)
        if csum[-1] >= remaining:
            C = int(csum.searchsorted(remaining, side="left")) + 1
            obj, n = obj[:C], n[:C].copy()
            n[-1] = remaining - (int(csum[C - 2]) if C > 1 else 0)
        return obj, n

    def _commit(self):
        """Write the replayed end state back to the caller's Generator."""
        bg = np.random.PCG64()
        bg.state = {**self._state0, "has_uint32": 0, "uinteger": 0}
        bg.advance(self.c)
        st = bg.state
        st["has_uint32"] = self.b
        st["uinteger"] = self.v
        self.rng.bit_generator.state = st

    # ----------------------------------------------------------------- walk

    def _walk_block(self, obj, n):
        P = self.P
        rows = int(n.sum())
        rowstart = _excl_cumsum(n)
        off = np.zeros(rows, dtype=np.int64)
        wr = np.zeros(rows, dtype=bool)
        dep = np.repeat(P.dep_one[obj], n)
        gap = np.zeros(rows, dtype=np.int64)
        out = (off, wr, dep, gap)

        self._seq_str_offsets(obj, n, rowstart, off)

        oc = P.op_cnt[obj]
        opo = np.repeat(obj, oc)
        opk = P.op_tbl[opo, _ragged_arange(oc)]
        opch = np.repeat(np.arange(len(obj), dtype=np.int64), oc)
        opn = n[opch]
        nops = len(opk)

        # After a true event the whole remaining layout is stale, but
        # re-laying the full suffix per event is quadratic in practice
        # (Lemire-rejection-heavy workloads hit thousands of events per
        # million accesses).  Lay out in windows sized by the observed
        # inter-event distance — small when events cluster, growing back
        # to full blocks through quiet stretches — so each event only
        # invalidates about one event's worth of speculative work.
        f = 0
        W = min(nops, max(32, int(self.ev_ema * 1.5)))
        while f < nops:
            g = min(f + W, nops)
            e = self._layout_detect_decode(
                opk[f:g], opn[f:g], opo[f:g], opch[f:g], rowstart, out)
            if e is None:
                self.since_ev += g - f
                f = g
                W = min(W * 4, nops)
                continue
            d = max(self.since_ev + e, 8)
            self.ev_ema = d if self.ev_ema >= 1e9 \
                else 0.75 * self.ev_ema + 0.25 * d
            self.since_ev = 0
            g = f + e
            self._eval_exact(
                int(opk[g]), int(opn[g]), int(opo[g]),
                int(rowstart[opch[g]]), out)
            f = g + 1
            W = min(nops, max(32, int(self.ev_ema * 1.5)))

        vaddr = off + np.repeat(P.base[obj], n)
        obj_id = np.repeat(P.ids[obj], n)
        return vaddr, wr, dep, obj_id, gap

    def _seq_str_offsets(self, obj, n, rowstart, off):
        """Closed-form sequential/strided offsets (no RNG involved)."""
        P = self.P
        for bi in np.unique(obj[(P.patk[obj] == 0) | (P.patk[obj] == 1)]):
            bi = int(bi)
            sel = np.flatnonzero(obj == bi)
            ns = n[sel]
            step, span = int(P.step[bi]), int(P.span[bi])
            starts = (self.seq_cursor[bi]
                      + _excl_cumsum(ns * step)) % span
            self.seq_cursor[bi] = int(
                (self.seq_cursor[bi] + int((ns * step).sum())) % span)
            o = (np.repeat(starts, ns) + _ragged_arange(ns) * step) % span
            if P.patk[bi] == 1:  # strided: clamp into [0, size-ab], align
                o = np.minimum(o, P.clamp[bi])
            o = (o // P.ab) * P.ab
            rws = np.repeat(rowstart[sel], ns) + _ragged_arange(ns)
            off[rws] = o

    # ------------------------------------------------- layout/detect/decode

    def _layout_detect_decode(self, kinds, nn, oo, ch, rowstart, out):
        """Lay out ops [0:] speculatively from the current state, decode
        everything before the first true event, and advance the state
        there.  Returns the local index of the event op, or ``None``.

        Ziggurat slow paths are too common (~2.2% of gap draws) to be
        true events: the walk (:meth:`_zig_chain`) resolves them, and
        their extra words shift every later read.  Only Lemire
        rejections and degenerate hotspots cut the layout short.  Where
        a rejection lies depends on the shifts before it, so detection
        and walk alternate: find the first event under the shifts known
        so far, walk the zig sites before it, and look again, until the
        walk adds no slow path or the event lies inside the walked
        prefix.  The walk thus stops at every candidate cut; it passes
        the true one only when its own slow paths moved a rejection
        into the stretch it just walked.
        """
        P, tape = self.P, self.tape
        nops = len(kinds)
        h = nn * P.halfmul[oo, kinds]
        par = (self.b + _excl_cumsum(h & 1)) & 1
        fetch = np.where(h > 0, (h - par + 1) // 2, 0)
        wds = nn * P.wordmul[kinds] + fetch
        wstart = self.c + _excl_cumsum(wds)
        hstart = wstart + np.where(kinds == _K_HOT, nn, 0)
        lastw = np.where(fetch > 0, hstart + fetch - 1, -1)
        end_c = int(wstart[-1] + wds[-1])
        tape.need(end_c)

        # Base-layout sites: zig draws, hotspot uniforms (the hot/cold
        # split feeds the half thresholds) and Lemire halves (normal LEM
        # + normal HOT ops).  Zig extras consume whole words only, so
        # half parities are exact here; word positions after a slow
        # path all shift by the op shift.
        zo = np.flatnonzero(kinds == _K_GZ)
        zop = np.repeat(zo, nn[zo])
        zpos = np.repeat(wstart[zo], nn[zo]) + _ragged_arange(nn[zo])
        nho = np.flatnonzero((kinds == _K_HOT) & ~P.hot_aev[oo]
                             & ~P.hot_nohalf[oo])
        uop = np.repeat(nho, nn[nho])
        upos = np.repeat(wstart[nho], nn[nho]) + _ragged_arange(nn[nho])
        hot_w = P.hot_w[oo[uop]]
        hsel = np.flatnonzero((h > 0) & ~P.hot_aev[oo])
        hop = np.repeat(hsel, h[hsel])
        j = _ragged_arange(h[hsel])
        adj = j - par[hop]
        hword = hstart[hop] + np.maximum(adj, 0) // 2
        hbits = np.uint64(32) * (adj & 1).astype(np.uint64)
        carry = np.flatnonzero(adj < 0)
        hot_site = kinds[hop] == _K_HOT
        aev = np.flatnonzero((kinds == _K_HOT) & P.hot_aev[oo])

        op_extras = np.zeros(nops, dtype=np.int64)
        ze = np.zeros(len(zpos), dtype=np.int64)
        slow: list[int] = []
        slow_vals: list[float] = []
        f = s = walked = 0
        limit = int(aev[0]) if aev.size else nops
        while True:
            opshift = _excl_cumsum(op_extras)
            lastw_s = np.where(lastw >= 0, lastw + opshift, -1)
            prevw = np.concatenate(([-1],
                                    np.maximum.accumulate(lastw_s)[:-1]))
            in_hot = _doubles(tape.take(upos + opshift[uop])) < hot_w
            nhot_by_op = np.bincount(uop[in_hot], minlength=nops)
            hv = (tape.take(hword + opshift[hop]) >> hbits) \
                & np.uint64(0xFFFFFFFF)
            if carry.size:
                pw = prevw[hop[carry]]
                # pw == -1 means "carry predates this block" (use self.v);
                # real word indices are always >= self.c, so clamp the
                # sentinel there to keep take() inside the tape window.
                hv[carry] = np.where(
                    pw >= 0,
                    tape.take(np.maximum(pw, self.c)) >> np.uint64(32),
                    np.uint64(self.v))
            is_hot_half = hot_site & (j < nhot_by_op[hop])
            L = np.where(is_hot_half, P.hot_L[oo[hop]], P.lem_L[oo[hop]])
            thr = np.where(is_hot_half, P.hot_thr[oo[hop]],
                           P.lem_thr[oo[hop]])
            m = hv * L
            rej = np.flatnonzero((m & np.uint64(0xFFFFFFFF)) < thr)
            cut = min(limit, int(hop[rej[0]])) if rej.size else limit
            if cut <= walked:
                break
            nres = int(zop.searchsorted(cut))
            sites, vals, extras = self._zig_chain(zpos, f, nres, s)
            f, walked = nres, cut
            if not sites:
                break
            idx = zpos.searchsorted(sites)
            ze[idx] = extras
            np.add.at(op_extras, zop[idx], extras)
            s += sum(extras)
            slow += idx.tolist()
            slow_vals += vals

        zri = tape.take(zpos + _excl_cumsum(ze)) >> np.uint64(3)
        zval = (zri >> np.uint64(8)).astype(np.float64) \
            * WE[(zri & np.uint64(0xFF)).astype(np.intp)]
        zval[slow] = slow_vals
        zgap = np.ceil(zval / P.gap_denom[oo[zop]]).astype(np.int64)
        wsh = wstart + opshift
        self._decode(kinds, nn, oo, ch, rowstart, out, cut, wsh,
                     zop, zgap, nho, in_hot, hop, m)

        # Advance the state to the cut point.
        if cut < nops:
            self.c = int(wsh[cut])
            self.b = int(par[cut])
            pw = int(prevw[cut])
            if pw >= 0:
                self.v = tape.word(pw) >> 32
            return cut
        self.c = end_c + s
        self.b = int((self.b + int((h & 1).sum())) & 1)
        last = int(lastw_s.max()) if len(lastw_s) else -1
        if last >= 0:
            self.v = tape.word(last) >> 32
        return None

    def _zig_chain(self, zpos, f, nres, s):
        """Resolve the ziggurat slow paths of zig draws ``f..nres-1``,
        read ``s`` words late, in one linear walk.

        A slow path consumes extra words and shifts every later read, so
        which later draws fail depends on the shift accumulated so far.
        But whether a draw fails depends only on the word it reads.  So
        the walk goes once, in order, through the failing words: a
        failing word ``p`` under shift ``s`` is a slow path iff
        ``p - s`` is a zig site past the frontier.  The slow path then
        runs over plain ints, and ``s`` grows by the extra words it
        consumed.  Failing words are found up to the last site plus a
        slack, and further whenever the shift outruns it.

        Returns ``(sites, vals, extras)``: the base position of each
        slow path, its exact exponential variate and its extra words.
        """
        sites: list[int] = []
        vals: list[float] = []
        extras: list[int] = []
        if f >= nres:
            return sites, vals, extras
        lo, qmax = int(zpos[f]), int(zpos[nres - 1])
        mask = np.zeros(qmax - lo + 1, dtype=bool)
        mask[zpos[f:nres] - lo] = True
        is_site = mask.tobytes()
        slack = int((nres - f) * _WALK_SLACK) + 8
        last = lo - 1  # frontier: the last resolved site
        hi = lo + s    # failing words below ``hi`` are walked
        while hi <= qmax + s:
            top = qmax + s + slack
            # Two words more: a slow path's uniform and its redraw.
            w = self.tape.aslice(hi, top + 2)
            ri = w[:-2] >> np.uint64(3)
            fail = np.flatnonzero(
                (ri >> np.uint64(8)) >= KE[(ri & np.uint64(0xFF))
                                           .astype(np.intp)])
            for p, wv, uv, rv in zip((fail + hi).tolist(), w[fail].tolist(),
                                     w[fail + 1].tolist(),
                                     w[fail + 2].tolist()):
                q = p - s
                if q <= last:
                    continue
                if q > qmax:
                    break
                if not is_site[q - lo]:
                    continue
                ri = wv >> 3
                idx = ri & 0xFF
                x = (ri >> 8) * _WE[idx]
                u = (uv >> 11) * _DBL
                c = p + 2
                if idx == 0:
                    x = ZIGGURAT_EXP_R - math.log1p(-u)
                elif (_FE[idx - 1] - _FE[idx]) * u + _FE[idx] \
                        >= math.exp(-x):  # wedge rejects: draw again
                    ri = rv >> 3
                    idx = ri & 0xFF
                    if (ri >> 8) < _KE[idx]:
                        x, c = (ri >> 8) * _WE[idx], p + 3
                    else:
                        x, c = self._zig_slow(c)
                sites.append(q)
                vals.append(x)
                extras.append(c - p - 1)
                s += c - p - 1
                last = q
            else:  # no site past ``qmax`` reached yet: scan further
                hi = top
                continue
            break
        return sites, vals, extras

    def _decode(self, kinds, nn, oo, ch, rowstart, out, end, wstart,
                zop, zgap, nho, in_hot, hop, m):
        """Decode the event-free ops ``[0:end)`` into the output columns."""
        if end == 0:
            return
        P, tape = self.P, self.tape
        off, wr, dep, gap = out

        def site_rows(ops):
            return (np.repeat(rowstart[ch[ops]], nn[ops])
                    + _ragged_arange(nn[ops]))

        def uniforms(ops):
            pos = np.repeat(wstart[ops], nn[ops]) + _ragged_arange(nn[ops])
            return _doubles(tape.take(pos))

        sel = np.flatnonzero(kinds[:end] == _K_WR)
        if sel.size:
            wr[site_rows(sel)] = uniforms(sel) < np.repeat(P.wf[oo[sel]],
                                                           nn[sel])
        sel = np.flatnonzero(kinds[:end] == _K_DEP)
        if sel.size:
            dep[site_rows(sel)] = uniforms(sel) < np.repeat(P.dp[oo[sel]],
                                                            nn[sel])
        sel = np.flatnonzero(kinds[:end] == _K_GS)
        if sel.size:
            u = uniforms(sel)
            rws = site_rows(sel)
            obs = np.repeat(oo[sel], nn[sel])
            for bi in np.unique(obs):
                pick = obs == bi
                gap[rws[pick]] = 1 + P.gap_tbl[bi].searchsorted(
                    u[pick], side="left")
        zin = zop < end
        if zin.any():
            rws = site_rows(np.flatnonzero(kinds[:end] == _K_GZ))
            gap[rws] = zgap[zin]
        lem_half = (kinds[hop] == _K_LEM) & (hop < end)
        if lem_half.any():
            sel = np.flatnonzero((kinds[:end] == _K_LEM)
                                 & ~P.lem_nohalf[oo[:end]])
            vals = (m[lem_half] >> np.uint64(32)).astype(np.int64)
            off[site_rows(sel)] = (vals // P.ab) * P.ab
        hin = nho < end
        if hin.any():
            hsel = nho[hin]
            urows = site_rows(hsel)
            uop = np.repeat(hsel, nn[hsel])
            order = np.argsort(uop * 2 + (~in_hot[:len(uop)]).astype(np.int64),
                               kind="stable")
            hot_half = (kinds[hop] == _K_HOT) & (hop < end)
            vals = (m[hot_half] >> np.uint64(32)).astype(np.int64)
            off[urows[order]] = (vals // P.ab) * P.ab

    # ---------------------------------------------------------- exact paths

    def _next_half(self) -> int:
        if self.b:
            self.b = 0
            return self.v
        w = self.tape.word(self.c)
        self.c += 1
        self.b = 1
        self.v = w >> 32
        return w & 0xFFFFFFFF

    def _lem_scalar(self, L: int, thr: int) -> int:
        while True:
            m = self._next_half() * L
            if (m & 0xFFFFFFFF) >= thr:
                return m >> 32

    def _zig_slow(self, c: int) -> tuple[float, int]:
        """One standard_exponential draw starting at word ``c``, full
        semantics (tail and wedge slow paths, libm log1p/exp)."""
        tape = self.tape
        while True:
            ri = tape.word(c) >> 3
            idx, k = ri & 0xFF, ri >> 8
            x = k * _WE[idx]
            if k < _KE[idx]:
                return x, c + 1
            u = (tape.word(c + 1) >> 11) * _DBL
            c += 2
            if idx == 0:
                return ZIGGURAT_EXP_R - math.log1p(-u), c
            if (_FE[idx - 1] - _FE[idx]) * u + _FE[idx] < math.exp(-x):
                return x, c

    def _eval_exact(self, kind, n, bi, row0, out):
        """Evaluate one event op (LEM or HOT) with full sequential
        semantics (event repair)."""
        P = self.P
        off = out[0]
        if kind == _K_LEM:
            L, thr = int(P.lem_L[bi]), int(P.lem_thr[bi])
            vals = np.asarray([self._lem_scalar(L, thr) for _ in range(n)],
                              dtype=np.int64)
            off[row0:row0 + n] = (vals // P.ab) * P.ab
        elif kind == _K_HOT:
            w = self.tape.aslice(self.c, self.c + n)
            self.c += n
            in_hot = _doubles(w) < float(P.hot_w[bi])
            n_hot = int(in_hot.sum())
            offs = np.zeros(n, dtype=np.int64)
            Lh, th = int(P.hot_L[bi]), int(P.hot_thr[bi])
            Lc, tc = int(P.lem_L[bi]), int(P.lem_thr[bi])
            if n_hot and Lh > 1:
                offs[in_hot] = [self._lem_scalar(Lh, th)
                                for _ in range(n_hot)]
            if n - n_hot and Lc > 1:
                offs[~in_hot] = [self._lem_scalar(Lc, tc)
                                 for _ in range(n - n_hot)]
            off[row0:row0 + n] = (offs // P.ab) * P.ab
        else:  # pragma: no cover - only LEM/HOT ops carry events
            raise AssertionError(f"unexpected event op kind {kind}")


def iter_kernel_blocks(builder, n_accesses: int, rng: np.random.Generator,
                       bases, ids):
    """Stream ``(vaddr, is_write, dep, obj_id, gaps)`` blocks, bit-equal
    to the reference loop's concatenated chunks.  The caller's ``rng``
    is advanced to the reference's exact end state once the generator
    is exhausted (not before)."""
    return _Kernel(builder, n_accesses, rng, bases, ids).blocks()
