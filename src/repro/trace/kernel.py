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
speculatively (no rejections, fast-path gaps), one window per block of
``_BLOCK_ACCESSES`` accesses, in units of half words.  Whether a gap
draw takes a slow path (~2.2% do) depends only on the word it reads,
and whether a half rejects only on its value and the op's span.  So
one linear walk per window over the failing words and the rejecting
halves resolves every slow path and every rand/chase rejection
exactly, with the shift of each later read known as it goes: a
rejection moves the stream on by one half (so the parity of the u32
buffer flips, and each later word draw moves by one word or none), a
slow path by its extra words (see ``_Kernel._layout_detect_decode``
and ``_Kernel._walk``).  Only hotspot ops cut a window: a rejection in
one (rare, detected vectorized under the walked shifts) and a
degenerate hotspot (whose half count depends on its draws) are
replayed scalar, and the layout restarts after them.  All bulk
decoding (burst schedule, offsets, write/dep flags, gaps) is
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
_KE11 = KE << np.uint64(11)  # fast-path limits on the whole word

__all__ = ["supported", "iter_kernel_blocks"]

_DBL = 2.0 ** -53
_M32 = np.uint64(0xFFFFFFFF)
_NEVER = 1 << 62
#: numpy's geometric() method cutover: search below, ziggurat inversion
#: at and above (the C constant rounds to the same double as 1/3).
_SEARCH_P_MIN = 1.0 / 3.0
#: Target accesses per walk block (one layout window unless a hotspot
#: cuts it): large enough to amortize numpy call overhead (120k-access
#: builds run 15-45% faster than at 2048 on a 2-CPU x86 VM; 16384 to
#: 65536 measured within that VM's noise).  The chunk count per block
#: is derived from the schedule's mean burst so blocks have comparable
#: size across workloads.
_BLOCK_ACCESSES = 8192
#: Slack of the walk's first candidate scan, in words per zig draw (and
#: per eight rand/chase draws) to resolve, plus a constant: about twice
#: the expected shift, so the walk rarely has to scan further.
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

        # One layout window per block; only hotspot ops cut it.  A
        # degenerate hotspot (one span of a single slot) draws a
        # data-dependent number of halves, so a window ends before it; a
        # hotspot rejection is found after the walk and cuts the window
        # there.  Either op is replayed scalar and the layout resumes.
        stops = np.append(
            np.flatnonzero((opk == _K_HOT) & P.hot_aev[opo]), nops)
        f = 0
        while f < nops:
            g = int(stops[stops.searchsorted(f)])
            if f < g:
                f += self._layout_detect_decode(
                    opk[f:g], opn[f:g], opo[f:g], opch[f:g], rowstart, out)
            if f < nops:
                self._eval_exact(int(opn[f]), int(opo[f]),
                                 int(rowstart[opch[f]]), out)
                f += 1

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
        """Lay out ops ``[0:]`` from the current state, resolve their
        data-dependent draws, decode them and advance the state.  Returns
        how many ops it decoded: all of them, or those before the first
        hotspot op with a rejection (the state is advanced to that op).

        Positions are *units*: a whole word takes two, a u32 half one,
        and unit ``2c`` is the low half of word ``c`` (a buffered half
        sits at the odd unit before).  The speculative layout — no
        rejection, fast-path gaps — puts each draw at a base unit ``u``.
        An event adds units to every later draw: a Lemire rejection one
        (its value is redrawn from the next half), a ziggurat slow path
        two per extra word.  With ``D`` the units added before a draw, a
        word draw reads word ``(u + D + 1) // 2`` and a half draw half
        ``u + D`` — except an op's first half on an odd unit, the carry:
        the high half of the last word the previous half op fetched,
        at ``cb + D`` with ``cb`` the unit just after that op's halves.
        So the parity of every later op flips with each rejection and
        its words move by whole words otherwise.  :meth:`_walk` resolves
        every rand/chase rejection and slow path in one pass; hotspot
        rejections (rare: 15-25 per million accesses in the stock apps)
        are detected under the walked shifts afterwards and cut the
        window.
        """
        P, tape = self.P, self.tape
        nops = len(kinds)
        h = nn * P.halfmul[oo, kinds]
        units = 2 * nn * P.wordmul[kinds] + h
        c0, V0 = self.c, 2 * self.c - self.b
        a = V0 + _excl_cumsum(units)
        Vend = int(a[-1] + units[-1])
        ah = a + 2 * nn * (kinds == _K_HOT)  # each op's first half
        hs = np.flatnonzero(h > 0)
        # The op starting at each half op's carry unit: the one after the
        # previous half op (halves end an op), or the window's first.
        cbo = np.zeros(nops, dtype=np.int64)
        cbo[hs[1:]] = hs[:-1] + 1

        def draws(ops, start, step=1):
            return (np.repeat(start[ops], nn[ops])
                    + step * _ragged_arange(nn[ops]))

        zo = np.flatnonzero(kinds == _K_GZ)
        zu = draws(zo, a, 2)
        lo = np.flatnonzero((kinds == _K_LEM) & (h > 0))
        app, dlt, slow_u, slow_x = self._walk(
            V0, Vend, zu, a[lo], nn[lo], a[cbo[lo]], oo[lo])
        order = np.argsort(app, kind="stable")
        app = app[order]
        cum = np.concatenate(([0], np.cumsum(dlt[order])))

        def shift(u, side="right"):
            return cum[app.searchsorted(u, side)]

        # Units added before each op; no event lies inside a word or
        # hotspot op, so it holds for all their draws.
        sa = shift(a, "left")
        a_s = a + sa

        def words(ops):
            return tape.take((draws(ops, a_s, 2) + 1) >> 1)

        def halves(ops, p):
            """The u32 each half draw of ``ops`` reads, given its half
            index ``p`` in the stream (a carry's is resolved here)."""
            f = _excl_cumsum(nn[ops])  # each op's first draw
            car = (p[f] == ah[ops] + sa[ops]) & (p[f] & 1 == 1)
            p[f[car]] = a_s[cbo[ops[car]]]
            v = (tape.take(np.maximum(p >> 1, c0))
                 >> (np.uint64(32) * (p & 1).astype(np.uint64))) & _M32
            v[p < 2 * c0] = self.v  # the half buffered before the window
            return v

        end = nops
        ho = np.flatnonzero((kinds == _K_HOT) & (h > 0))
        if ho.size:
            uop = np.repeat(ho, nn[ho])
            bo = oo[uop]
            in_hot = _doubles(words(ho)) < P.hot_w[bo]
            is_h = _ragged_arange(nn[ho]) < np.bincount(
                uop[in_hot], minlength=nops)[uop]
            hm = halves(ho, draws(ho, ah + sa)) * np.where(
                is_h, P.hot_L[bo], P.lem_L[bo])
            rej = np.flatnonzero((hm & _M32) < np.where(
                is_h, P.hot_thr[bo], P.lem_thr[bo]))
            if rej.size:
                end = int(uop[rej[0]])

        # Decode ops [0:end).
        off, wr, dep, gap = out

        def rows(ops):
            return (np.repeat(rowstart[ch[ops]], nn[ops])
                    + _ragged_arange(nn[ops]))

        for k, col, prob in ((_K_WR, wr, P.wf), (_K_DEP, dep, P.dp)):
            sel = np.flatnonzero(kinds[:end] == k)
            if sel.size:
                col[rows(sel)] = _doubles(words(sel)) < np.repeat(
                    prob[oo[sel]], nn[sel])
        sel = np.flatnonzero(kinds[:end] == _K_GS)
        if sel.size:
            u = _doubles(words(sel))
            rws = rows(sel)
            obs = np.repeat(oo[sel], nn[sel])
            for bi in np.unique(obs):
                pick = obs == bi
                gap[rws[pick]] = 1 + P.gap_tbl[bi].searchsorted(
                    u[pick], side="left")
        zo = zo[zo < end]
        if zo.size:
            zu = zu[:int(nn[zo].sum())]
            zri = tape.take((zu + shift(zu) + 1) >> 1) >> np.uint64(3)
            zval = (zri >> np.uint64(8)).astype(np.float64) \
                * WE[(zri & np.uint64(0xFF)).astype(np.intp)]
            si = zu.searchsorted(slow_u)
            keep = si < len(zu)
            zval[si[keep]] = slow_x[keep]
            gap[rows(zo)] = np.ceil(zval / np.repeat(
                P.gap_denom[oo[zo]], nn[zo])).astype(np.int64)
        lo = lo[lo < end]
        if lo.size:
            u = draws(lo, a)
            m = halves(lo, u + shift(u)) * np.repeat(P.lem_L[oo[lo]], nn[lo])
            off[rows(lo)] = ((m >> np.uint64(32)).astype(np.int64)
                             // P.ab) * P.ab
        if ho.size and ho[0] < end:
            keep = uop < end
            order = np.argsort(uop[keep] * 2 + ~in_hot[keep], kind="stable")
            vals = (hm[keep] >> np.uint64(32)).astype(np.int64)
            off[rows(ho[ho < end])[order]] = (vals // P.ab) * P.ab

        # Advance the state to the end (or the cut op).
        x = int(a_s[end]) if end < nops else Vend + int(cum[-1])
        self.c, self.b = (x + 1) >> 1, x & 1
        hs = hs[hs < end]
        if hs.size:  # the last fetched word's high half stays buffered
            g = int(hs[-1])
            u = int(ah[g] + h[g] - 1)
            p = u + int(shift(u))
            if p == ah[g] + sa[g] and p & 1:  # a lone draw, the carry
                p = int(a_s[cbo[g]])
            if p >= 2 * c0:
                self.v = tape.word(p >> 1) >> 32
        return end

    def _walk(self, V0, Vend, zu, la, ln, lcb, lb):
        """Resolve a window's rand/chase rejections and ziggurat slow
        paths in one linear walk.

        ``zu`` are the zig draws' base units; ``la``, ``ln``, ``lcb`` and
        ``lb`` give each rand/chase op's first unit, draw count, carry
        unit and behaviour.  Each event shifts every later read, so
        which later draws hit one depends on the shift ``D`` so far.
        But whether a word takes a slow path depends only on its value,
        and whether a half rejects only on its value and the op's span.
        So the walk goes once, in stream order, through the failing
        words and (per rand/chase behaviour) the rejecting halves: a
        candidate at half index ``p`` is an event iff unit ``p - D`` is
        a matching draw past the frontier (a word draw may start one
        unit earlier).  A rejected carry lies before the word draws that
        separate it from its op, so its unit counts only once the walk
        reaches the op.  Candidates are found up to the window end plus
        a slack, and further whenever the shift outruns it.

        Returns ``(app, delta, slow_u, slow_x)``: the base unit each
        event's units count from, how many it adds, and each slow path's
        base unit and exact exponential variate.
        """
        app: list[int] = []
        dlt: list[int] = []
        su: list[int] = []
        sx: list[float] = []
        nl = len(la)
        if not (len(zu) or nl):
            return (np.asarray(app, dtype=np.int64),) * 3 + (np.asarray(sx),)
        P, tape = self.P, self.tape
        span = Vend - V0
        zmap = np.zeros(span, dtype=np.uint8)  # 1 + unit of a zig draw
        zmap[zu - V0] = 1
        zmap[zu - V0 + 1] = 2
        zmap = zmap.tobytes()
        beh, slot = np.unique(lb, return_inverse=True)
        slot, first = slot.tolist(), la.tolist()
        spans = [(int(P.lem_L[b]), int(P.lem_thr[b])) for b in beh]
        if nl:
            ks = np.arange(1, nl + 1, dtype=np.int32)
            vmap = np.zeros(span, dtype=np.int32)  # 1 + op of each draw
            vmap[np.repeat(la - V0, ln) + _ragged_arange(ln)] = \
                np.repeat(ks, ln)
            cmap = np.zeros(span, dtype=np.int32)  # 1 + op of each carry
            cmap[lcb - V0] = ks
            vmap, cmap = memoryview(vmap), memoryview(cmap)
        Z = len(spans)  # the zig candidates' tag
        D, fb, last, pend = 0, V0, -1, _NEVER
        if nl and self.b and lcb[0] == V0:  # carry from before the window
            L, thr = spans[slot[0]]
            if (self.v * L) & 0xFFFFFFFF < thr:
                app.append(first[0])
                dlt.append(1)
                pend = first[0]
        slack = int((len(zu) + int(ln.sum()) // 8) * _WALK_SLACK) + 8
        hi = self.c
        while True:
            top = (Vend + D + 1) // 2 + slack
            w = tape.aslice(hi, top + 2)  # + a slow path's next two words
            keys = []
            if len(zu):  # (w >> 11) >= KE[(w >> 3) & 0xFF], in one compare
                idx = (w[:-2] >> np.uint64(3)) & np.uint64(0xFF)
                fail = np.flatnonzero(w[:-2] >= _KE11[idx.astype(np.intp)])
                keys.append((fail + hi) * (2 * Z + 2) + Z)
            if spans:  # u32 products wrap: (v * L) mod 2**32 < thr
                half = w[:-2].astype("<u8", copy=False).view("<u4")
                for s, (L, thr) in enumerate(spans):
                    rej = np.flatnonzero(
                        half * np.uint32(L) < np.uint32(thr))
                    keys.append((rej + 2 * hi) * (Z + 1) + s)
            keys = np.sort(np.concatenate(keys))
            ps = keys // (Z + 1)
            for p, t in zip(ps.tolist(), (keys - ps * (Z + 1)).tolist()):
                u = p - D
                if u > pend:  # the walk reached a rejected carry's op
                    D += 1
                    u -= 1
                    pend = _NEVER
                if t == Z:
                    if u < fb:
                        continue
                    if u >= Vend:
                        break
                    z = zmap[u - V0]
                    if not z:
                        continue
                    u -= z - 1
                    q = p >> 1  # the slow path's word, uniform, redraw
                    wv, uv, rv = w[q - hi:q - hi + 3].tolist()
                    ri = wv >> 3
                    idx = ri & 0xFF
                    x = (ri >> 8) * _WE[idx]
                    uf = (uv >> 11) * _DBL
                    c = q + 2
                    if idx == 0:
                        x = ZIGGURAT_EXP_R - math.log1p(-uf)
                    elif (_FE[idx - 1] - _FE[idx]) * uf + _FE[idx] \
                            >= math.exp(-x):  # wedge rejects: draw again
                        ri = rv >> 3
                        idx = ri & 0xFF
                        if (ri >> 8) < _KE[idx]:
                            x, c = (ri >> 8) * _WE[idx], c + 1
                        else:
                            x, c = self._zig_slow(c)
                    e = 2 * (c - q - 1)
                    app.append(u + 1)
                    dlt.append(e)
                    su.append(u)
                    sx.append(x)
                    D += e
                    fb = u + 2
                    continue
                if u < fb:
                    continue
                if u >= Vend:
                    break
                k = vmap[u - V0] - 1
                if k >= 0:
                    # Another span's candidate, or the unit of a carry
                    # (whose half lies elsewhere): not this draw's half.
                    if slot[k] != t or (
                            u == first[k] and p & 1 and last != u):
                        continue
                    app.append(u)
                    dlt.append(1)
                    D += 1
                    fb = last = u
                    continue
                k = cmap[u - V0] - 1
                if k >= 0 and slot[k] == t and p & 1:
                    app.append(first[k])
                    dlt.append(1)
                    pend = first[k]
                    fb = u
            else:  # the window end not reached yet: scan further
                if 2 * top > Vend + D + 1:
                    break
                hi = top
                continue
            break
        return (np.asarray(app, dtype=np.int64),
                np.asarray(dlt, dtype=np.int64),
                np.asarray(su, dtype=np.int64), np.asarray(sx))

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

    def _eval_exact(self, n, bi, row0, out):
        """Replay one hotspot op that cuts the window (degenerate, or
        with a rejection) with full sequential semantics."""
        P = self.P
        w = self.tape.aslice(self.c, self.c + n)
        self.c += n
        in_hot = _doubles(w) < float(P.hot_w[bi])
        n_hot = int(in_hot.sum())
        offs = np.zeros(n, dtype=np.int64)
        Lh, th = int(P.hot_L[bi]), int(P.hot_thr[bi])
        Lc, tc = int(P.lem_L[bi]), int(P.lem_thr[bi])
        if n_hot and Lh > 1:
            offs[in_hot] = [self._lem_scalar(Lh, th) for _ in range(n_hot)]
        if n - n_hot and Lc > 1:
            offs[~in_hot] = [self._lem_scalar(Lc, tc)
                             for _ in range(n - n_hot)]
        out[0][row0:row0 + n] = (offs // P.ab) * P.ab


def iter_kernel_blocks(builder, n_accesses: int, rng: np.random.Generator,
                       bases, ids):
    """Stream ``(vaddr, is_write, dep, obj_id, gaps)`` blocks, bit-equal
    to the reference loop's concatenated chunks.  The caller's ``rng``
    is advanced to the reference's exact end state once the generator
    is exhausted (not before)."""
    return _Kernel(builder, n_accesses, rng, bases, ids).blocks()
