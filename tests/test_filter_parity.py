"""Kernel ↔ reference parity for the cache-filter front end.

The vectorized filter kernel (``repro.cpu.filter_kernel``) must be
*byte-identical* to the reference loop, the oracle
``reference_filter.filter_trace`` — same ``MissStream`` arrays
(values and dtypes), same ``CacheStats`` including per-object tallies
and their first-touch ordering, same final tag-store state.  This suite
pins that over randomized traces and geometries, plus the engineered
corners (every per-level engine against the dict automaton below, the
kernel's engine dispatch, and ``filtered_stream``'s shared-identity
contract).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import reference_filter

from repro.cpu import filter_kernel
from repro.cpu.cache import SetAssocCache
from repro.cpu.hierarchy import KIND_WRITEBACK, CacheHierarchy
from repro.obs.registry import OBS
from repro.trace.events import AccessTrace, VirtualLayout
from repro.util.rng import stream


def _make_trace(n, seed, *, n_objects=3, obj_kib=96, write_frac=0.3,
                dep_frac=0.1, hot=False):
    """A synthetic AccessTrace over a few heap objects (no TraceBuilder:
    parity needs adversarial address patterns, not realistic ones)."""
    layout = VirtualLayout()
    for i in range(n_objects):
        layout.place(f"obj{i}", obj_kib * 1024, site=i + 1)
    rng = stream("tests", "filter_parity", seed)
    which = rng.integers(0, n_objects, size=n)
    if hot:
        # Hammer a single line's worth of offsets: maximal per-set skew.
        offs = rng.integers(0, 64, size=n)
    else:
        offs = rng.integers(0, obj_kib * 1024, size=n)
    vaddr = np.empty(n, dtype=np.int64)
    for i in range(n_objects):
        m = which == i
        vaddr[m] = layout.objects[i].vbase + offs[m]
    inst = np.cumsum(rng.integers(1, 12, size=n)).astype(np.int64)
    return AccessTrace(
        inst=inst,
        vaddr=vaddr,
        is_write=rng.random(n) < write_frac,
        obj_id=layout.resolve(vaddr),
        dep=rng.random(n) < dep_frac,
        layout=layout,
        total_instructions=int(inst[-1]) if n else 0,
    )


def _assert_identical(res_kernel, res_reference):
    s_k, c_k = res_kernel
    s_r, c_r = res_reference
    for name in ("inst", "vline", "obj_id", "dep", "kind"):
        a, b = getattr(s_k, name), getattr(s_r, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert s_k.total_instructions == s_r.total_instructions
    assert c_k == c_r
    # dataclass == ignores dict ordering; first-touch order is part of
    # the contract (MOCA's profiling tables iterate it).
    assert list(c_k.per_object) == list(c_r.per_object)


def _reference(h, trace, warmup=0.2):
    """The reference loop on ``trace``, at ``filter_trace``'s boundary."""
    return reference_filter.filter_trace(h, trace, int(len(trace) * warmup))


def _assert_same_state(h_a, h_b):
    for lvl_a, lvl_b in ((h_a.l1, h_b.l1), (h_a.l2, h_b.l2)):
        addr_a, dirty_a = lvl_a.resident_arrays()
        addr_b, dirty_b = lvl_b.resident_arrays()
        assert np.array_equal(addr_a, addr_b)
        assert np.array_equal(dirty_a, dirty_b)
        assert (lvl_a.n_hits, lvl_a.n_misses) == (lvl_b.n_hits,
                                                  lvl_b.n_misses)


GEOMETRIES = [
    # (l1_size, l1_assoc, l2_size, l2_assoc, line_bytes) — tiny caches so
    # a few hundred accesses exercise conflict and capacity behaviour.
    (4 * 1024, 1, 16 * 1024, 2, 64),
    (2 * 1024, 2, 8 * 1024, 16, 32),
    (8 * 1024, 16, 32 * 1024, 16, 128),
    (4 * 1024, 2, 16 * 1024, 1, 64),
]


class TestRandomizedParity:
    @given(
        n=st.integers(min_value=1, max_value=500),
        seed=st.integers(min_value=0, max_value=10_000),
        geom=st.sampled_from(GEOMETRIES),
        write_frac=st.sampled_from([0.0, 0.3, 1.0]),
        warmup=st.sampled_from([0.0, 0.1, 0.35]),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernel_matches_reference(self, n, seed, geom, write_frac,
                                      warmup):
        l1s, l1a, l2s, l2a, lb = geom
        trace = _make_trace(n, seed, write_frac=write_frac)
        h_k = CacheHierarchy(l1s, l1a, l2s, l2a, lb)
        h_r = CacheHierarchy(l1s, l1a, l2s, l2a, lb)
        res_k = h_k.filter_trace(trace, warmup_frac=warmup)
        res_r = _reference(h_r, trace, warmup)
        _assert_identical(res_k, res_r)
        _assert_same_state(h_k, h_r)

    @given(n=st.integers(min_value=1, max_value=400),
           seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_skewed_traces_match(self, n, seed):
        """Single-set hammering drives the kernel's scalar dispatch."""
        trace = _make_trace(n, seed, hot=True)
        h_k, h_r = CacheHierarchy(), CacheHierarchy()
        res_k = h_k.filter_trace(trace)
        res_r = _reference(h_r, trace)
        _assert_identical(res_k, res_r)
        _assert_same_state(h_k, h_r)

    def test_warm_hierarchy_continues_exactly(self):
        """Filtering is stateful across calls; the kernel must seed its
        matrices from the existing tag stores, not from empty caches."""
        t1 = _make_trace(300, 1)
        t2 = _make_trace(300, 2)
        h_k, h_r = CacheHierarchy(), CacheHierarchy()
        h_k.filter_trace(t1)
        _reference(h_r, t1)
        res_k = h_k.filter_trace(t2, warmup_frac=0.0)
        res_r = _reference(h_r, t2, 0.0)
        _assert_identical(res_k, res_r)
        _assert_same_state(h_k, h_r)


def _level_outputs(r):
    """Everything a LevelResult promises, victims masked to real ones."""
    vm = r.victim_mask
    return (r.hit, vm, r.victim_line[vm], r.victim_dirty[vm],
            r.state_sets, r.state_stack, r.state_dirty)


def _automaton(cache, line, is_write):
    """The dict-based LRU automaton: :meth:`SetAssocCache.access` minus
    the stat counters, one Python step per access, in
    :func:`_level_outputs` form.  The oracle of every per-level engine.

    Continues from ``cache``'s tag store and leaves its final state
    there, as :meth:`SetAssocCache.access` would.
    """
    assoc, set_mask, sets = cache.assoc, cache._set_mask, cache._sets
    touched = np.unique(line & set_mask).astype(np.int64)
    hit, victim = [], []
    for ln, wr in zip(line.tolist(), is_write.tolist()):
        s = sets[ln & set_mask]
        if ln in s:
            prev = s.pop(ln)
            s[ln] = prev or wr
            hit.append(True)
            continue
        hit.append(False)
        if len(s) >= assoc:
            tag = next(iter(s))
            victim.append((True, tag, s.pop(tag)))
        else:
            victim.append((False, 0, False))
        s[ln] = wr
    vm = np.zeros(len(hit), dtype=bool)
    vm[~np.asarray(hit, dtype=bool)] = [v[0] for v in victim]
    real = [v for v in victim if v[0]]
    stack = np.full((len(touched), assoc), -1, dtype=np.int64)
    dirty = np.zeros((len(touched), assoc), dtype=bool)
    for row, set_idx in enumerate(touched.tolist()):
        resident = sets[set_idx]
        stack[row, :len(resident)] = list(reversed(resident.keys()))
        dirty[row, :len(resident)] = list(reversed(resident.values()))
    return (np.asarray(hit, dtype=bool), vm,
            np.asarray([v[1] for v in real], dtype=np.int64),
            np.asarray([v[2] for v in real], dtype=bool),
            touched, stack, dirty)


class TestKernelModes:
    @given(
        assoc=st.sampled_from([1, 2, 4, 16]),
        n_sets=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
        seed=st.integers(min_value=0, max_value=10_000),
        sizes=st.lists(st.integers(min_value=0, max_value=300),
                       min_size=3, max_size=3),
        span=st.sampled_from([1, 2, 4]),
        write_frac=st.sampled_from([0.0, 0.3, 1.0]),
        cutover=st.sampled_from([0, 3, filter_kernel._ACTIVE_CUTOVER,
                                 1 << 30]),
        exact=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_engines_match_scalar(self, assoc, n_sets, seed, sizes, span,
                                  write_frac, cutover, exact):
        """Each engine agrees with the dict automaton on every output —
        hits, victims with dirty bits, final state in recency order —
        over three consecutive calls, so later calls start from warm,
        dirty and partly filled sets.  A cutover of ``1 << 30`` runs the
        stack-distance engine over whole levels; ``exact`` drops its
        window counts and cuts its exact counts into tiny batches."""
        modes = ["rounds"] + (["runs"] if assoc <= 2 else [])
        size = n_sets * assoc * 64
        ref = SetAssocCache(size, assoc)
        caches = {m: SetAssocCache(size, assoc) for m in modes}
        rng = stream("tests", "filter_modes", seed)
        knobs = {"_ACTIVE_CUTOVER": cutover}
        if exact:
            knobs.update(_WINDOWS=(), _EXACT_BATCH=7)
        with mock.patch.multiple(filter_kernel, **knobs):
            for n in sizes:
                # A universe of ``span`` lines per way keeps hits common.
                line = rng.integers(0, n_sets * assoc * span, size=n)
                wr = rng.random(n) < write_frac
                want = _automaton(ref, line, wr)
                for mode, cache in caches.items():
                    got = filter_kernel.simulate_lru(cache, line, wr,
                                                     mode=mode)
                    assert got.engine == mode
                    for a, b in zip(_level_outputs(got), want):
                        assert a.dtype == b.dtype, mode
                        assert np.array_equal(a, b), mode
                    filter_kernel.install_state(cache, got)

    def test_auto_dispatch(self):
        """Two ways take the closed form even on a one-set hammer; 16
        ways take the stamp rounds, whose stack-distance tail finishes
        such skew."""
        hammer = np.arange(4000, dtype=np.int64) % 5 * 512
        spread = np.arange(4000, dtype=np.int64) * 7
        wr = np.zeros(4000, dtype=bool)
        l1 = SetAssocCache(64 * 1024, 2)
        l2 = SetAssocCache(512 * 1024, 16)
        assert filter_kernel.simulate_lru(l1, hammer, wr).engine == "runs"
        assert filter_kernel.simulate_lru(l1, spread, wr).engine == "runs"
        assert filter_kernel.simulate_lru(l2, spread, wr).engine == "rounds"
        hammer_l2 = filter_kernel.simulate_lru(l2, hammer, wr)
        assert hammer_l2.engine == "rounds"
        # One active set: the tail takes all of it below any cutover > 1.
        if filter_kernel._ACTIVE_CUTOVER > 1:
            assert (hammer_l2.rounds, hammer_l2.tail) == (0, 4000)
        for a, b in zip(_level_outputs(hammer_l2),
                        _automaton(l2, hammer, wr)):
            assert np.array_equal(a, b)

    def test_runs_rejects_wide_sets(self):
        c = SetAssocCache(4 * 1024, 4)
        with pytest.raises(ValueError, match="assoc"):
            filter_kernel.simulate_lru(c, np.zeros(1, dtype=np.int64),
                                       np.zeros(1, dtype=bool), mode="runs")

    def test_unknown_mode_rejected(self):
        c = SetAssocCache(4 * 1024, 2)
        for mode in ("bogus", "scalar"):
            with pytest.raises(ValueError):
                filter_kernel.simulate_lru(c, np.zeros(1, dtype=np.int64),
                                           np.zeros(1, dtype=bool),
                                           mode=mode)

    def test_empty_input(self):
        c = SetAssocCache(4 * 1024, 2)
        r = filter_kernel.simulate_lru(c, np.zeros(0, dtype=np.int64),
                                       np.zeros(0, dtype=bool))
        assert len(r.hit) == 0 and len(r.victim_mask) == 0


class TestTailCounters:
    """With OBS on, every L2 call reports its stamp rounds and the
    accesses its stack-distance tail resolved."""

    def _filter(self, monkeypatch, trace, enabled):
        calls = []
        real = filter_kernel.simulate_lru

        def spy(cache, line, is_write, **kw):
            calls.append((cache, line))
            return real(cache, line, is_write, **kw)
        monkeypatch.setattr(filter_kernel, "simulate_lru", spy)
        h = CacheHierarchy()
        OBS.reset()
        OBS.enabled = enabled
        try:
            h.filter_trace(trace, warmup_frac=0.0)
            counters = dict(OBS.counters)
        finally:
            OBS.reset().disable()
        (line2,) = [line for cache, line in calls if cache is h.l2]
        return h, line2, counters

    def test_rounds_plus_tail_cover_the_l2(self, monkeypatch):
        h, line2, counters = self._filter(monkeypatch,
                                          _make_trace(6000, 21), True)
        rounds = counters["filter.l2.rounds"]
        tail = counters["filter.l2.tail_accesses"]
        # Round r resolves one access of every set with more than r (at
        # the stock cutover this trace takes both paths).
        per_set = np.bincount(line2 & h.l2._set_mask)
        assert rounds <= per_set.max()
        in_rounds = int(np.minimum(per_set, rounds).sum())
        assert in_rounds + tail == line2.size == h.l2.n_hits + h.l2.n_misses

    def test_nothing_published_with_obs_off(self, monkeypatch):
        _, _, counters = self._filter(monkeypatch, _make_trace(600, 22),
                                      False)
        assert not any(k.startswith("filter.") for k in counters)


class TestEngineSelection:
    """``filter_trace`` has one engine: the kernel."""

    def test_default_dispatch_reaches_kernel(self, monkeypatch):
        calls = []
        real = filter_kernel.run_filter

        def spy(*a, **k):
            calls.append(1)
            return real(*a, **k)
        monkeypatch.setattr(filter_kernel, "run_filter", spy)
        h = CacheHierarchy()
        h.filter_trace(_make_trace(100, 13))
        assert calls == [1]


class TestFilteredStreamContract:
    def test_shared_identity_preserved(self):
        """Same key → the very same objects, kernel era included."""
        from repro.sim.single import filter_provenance, filtered_stream
        a_stream, a_stats = filtered_stream("stitch", "ref", 4000)
        b_stream, b_stats = filtered_stream("stitch", "ref", 4000)
        assert a_stream is b_stream and a_stats is b_stats
        prov = filter_provenance("stitch", "ref", 4000)
        assert prov is not None and prov["engine"] in ("kernel", "store")

    def test_engines_produce_identical_streams(self):
        """The memoized stream is the reference loop's, byte for byte."""
        from repro.sim.single import filtered_stream
        from repro.workloads.inputs import build_app_trace
        s_k, c_k = filtered_stream("stitch", "ref", 4001)
        trace = build_app_trace("stitch", "ref", 4001)
        s_r, c_r = _reference(CacheHierarchy(), trace)
        _assert_identical((s_k, c_k), (s_r, c_r))


class TestKnownDeviations:
    def test_l1_victims_reach_l2_clean(self):
        """Known deviation: clean L1 victims (docs/modeling.md, Known
        limits; EXPERIMENTS.md, Known deviations).

        Neither engine writes an evicted L1 line back into the L2, so a
        line that is loaded, then stored while it sits in the L1, stays
        clean in the L2 and is later evicted from it without a
        ``KIND_WRITEBACK`` record.  A full L1→L2 writeback model would
        emit one here.  This pins today's behaviour in both engines: a
        change that models the writeback has to update this test (and
        every pinned figure row and stream digest) on purpose.
        """
        layout = VirtualLayout()
        base = layout.place("obj", 4096, site=1).vbase
        a, b, c = base, base + 64, base + 128
        vaddr = np.asarray([a, a, b, c, b, c], dtype=np.int64)
        inst = np.arange(1, 7, dtype=np.int64) * 10
        trace = AccessTrace(
            inst=inst, vaddr=vaddr,
            is_write=np.asarray([False, True] + [False] * 4),
            obj_id=layout.resolve(vaddr), dep=np.zeros(6, dtype=bool),
            layout=layout, total_instructions=70)
        # One-set caches: a 1-way 64 B L1 and a 2-way L2.
        geometry = dict(l1_size=64, l1_assoc=1, l2_size=128, l2_assoc=2)
        kernel_out = CacheHierarchy(**geometry).filter_trace(trace, 0.0)
        ref_out = _reference(CacheHierarchy(**geometry), trace, 0.0)
        _assert_identical(kernel_out, ref_out)
        stream_, stats = kernel_out
        # A (clean in L2) is the L2's LRU line when C misses: evicted
        # without a writeback although the L1 held it dirty.
        assert stats.n_writebacks == 0
        assert stats.l2_misses == 3 and stats.l2_hits == 2
        assert not np.any(stream_.kind == KIND_WRITEBACK)
