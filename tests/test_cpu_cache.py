"""Tests for the set-associative cache and the L1+L2 hierarchy."""

from unittest import mock

import numpy as np
import pytest
import reference_filter

from repro.cpu import filter_kernel
from repro.cpu.cache import SetAssocCache
from repro.cpu.hierarchy import (
    CacheHierarchy,
    KIND_LOAD,
    KIND_STORE,
    KIND_WRITEBACK,
    SEG_STACK,
)
from repro.trace.builder import ObjectBehavior, TraceBuilder
from repro.util.rng import stream
from repro.util.units import KIB, MIB


class TestSetAssocCache:
    def test_geometry(self):
        c = SetAssocCache(64 * KIB, 2)
        assert c.n_sets == 512
        assert c.line_bytes == 64

    def test_cold_miss_then_hit(self):
        c = SetAssocCache(4096, 2)
        hit, _ = c.access(0, False)
        assert not hit
        hit, _ = c.access(8, False)  # same line
        assert hit

    def test_line_granularity(self):
        c = SetAssocCache(4096, 2)
        c.access(0, False)
        assert c.access(63, False)[0]
        assert not c.access(64, False)[0]

    def test_lru_eviction_order(self):
        c = SetAssocCache(2 * 64, 2, line_bytes=64)  # 1 set, 2 ways
        c.access(0, False)
        c.access(64, False)
        c.access(0, False)          # touch line 0 -> MRU
        _, evicted = c.access(128, False)
        assert evicted is not None
        assert evicted.line_addr == 64  # the LRU victim

    def test_dirty_writeback_on_eviction(self):
        c = SetAssocCache(2 * 64, 2, line_bytes=64)
        c.access(0, True)  # dirty
        c.access(64, False)
        _, evicted = c.access(128, False)
        assert evicted.line_addr == 0
        assert evicted.dirty

    def test_clean_eviction_not_dirty(self):
        c = SetAssocCache(2 * 64, 2, line_bytes=64)
        c.access(0, False)
        c.access(64, False)
        _, evicted = c.access(128, False)
        assert not evicted.dirty

    def test_write_hit_marks_dirty(self):
        c = SetAssocCache(2 * 64, 2, line_bytes=64)
        c.access(0, False)
        c.access(0, True)  # now dirty
        c.access(64, False)
        _, evicted = c.access(128, False)
        assert evicted.dirty

    def test_occupancy_never_exceeds_assoc(self):
        c = SetAssocCache(4 * 64, 4, line_bytes=64)
        for i in range(20):
            c.access(i * 4 * 64, False)  # all same set
        assert all(len(s) <= 4 for s in c._sets)

    def test_miss_rate(self):
        c = SetAssocCache(4096, 2)
        c.access(0, False)
        c.access(0, False)
        assert c.miss_rate == pytest.approx(0.5)

    def test_working_set_larger_than_cache_thrashes(self):
        c = SetAssocCache(8 * KIB, 2)
        # Cyclic sweep over 4x the capacity: LRU worst case, ~0 hits.
        for _ in range(3):
            for a in range(0, 32 * KIB, 64):
                c.access(a, False)
        assert c.miss_rate > 0.99

    def test_working_set_smaller_than_cache_hits(self):
        c = SetAssocCache(64 * KIB, 2)
        for _ in range(3):
            for a in range(0, 16 * KIB, 64):
                c.access(a, False)
        assert c.n_hits > c.n_misses

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SetAssocCache(1000, 2)  # not a power of two
        with pytest.raises(ValueError):
            SetAssocCache(64, 128)  # smaller than one set


class TestResidentAccessors:
    """The vector-friendly state accessors the parity harness uses."""

    def test_resident_arrays_orders_lru_to_mru(self):
        c = SetAssocCache(2 * 64, 2, line_bytes=64)  # 1 set, 2 ways
        c.access(0, False)
        c.access(64, False)
        c.access(0, True)           # line 0 -> MRU (and dirty)
        addrs, dirty = c.resident_arrays()
        assert addrs.tolist() == [64, 0]    # LRU first
        assert dirty.tolist() == [False, True]

    def test_resident_arrays_set_major(self):
        c = SetAssocCache(4 * 64, 2, line_bytes=64)  # 2 sets
        c.access(64, True)          # set 1
        c.access(0, False)          # set 0
        addrs, dirty = c.resident_arrays()
        assert addrs.tolist() == [0, 64]    # set order, not access order
        assert dirty.tolist() == [False, True]

    def test_resident_arrays_empty(self):
        addrs, dirty = SetAssocCache(4096, 2).resident_arrays()
        assert len(addrs) == 0 and len(dirty) == 0
        assert addrs.dtype == np.int64 and dirty.dtype == bool


class TestCacheHierarchy:
    def _trace(self, behaviors, n=20_000, key="h"):
        return TraceBuilder(behaviors).build(n, stream("tests", key))

    def test_filter_produces_stream_and_stats(self, tiny_trace):
        s, stats = CacheHierarchy().filter_trace(tiny_trace)
        assert len(s) > 0
        assert stats.l2_misses == int(s.demand_mask.sum())
        assert stats.total_instructions > 0

    def test_small_object_caches_well(self):
        b = [ObjectBehavior("small", 32 * KIB, 1.0, pattern="seq",
                            gap_mean=5, site=1)]
        s, stats = CacheHierarchy().filter_trace(self._trace(b))
        assert stats.l2_mpki < 0.5

    def test_big_random_object_misses(self):
        b = [ObjectBehavior("big", 8 * MIB, 1.0, pattern="rand",
                            gap_mean=5, site=1)]
        s, stats = CacheHierarchy().filter_trace(self._trace(b))
        assert stats.l2_mpki > 20

    def test_warmup_excludes_cold_misses(self):
        b = [ObjectBehavior("hot", 256 * KIB, 1.0, pattern="hotspot",
                            hot_fraction=0.5, hot_weight=1.0, gap_mean=5,
                            site=1)]
        t = self._trace(b)
        _, cold = CacheHierarchy().filter_trace(t, warmup_frac=0.0)
        _, warm = CacheHierarchy().filter_trace(t, warmup_frac=0.5)
        assert warm.l2_mpki < cold.l2_mpki

    def test_warmup_frac_validated(self, tiny_trace):
        with pytest.raises(ValueError):
            CacheHierarchy().filter_trace(tiny_trace, warmup_frac=1.0)

    def test_writebacks_attributed_to_owner(self):
        b = [ObjectBehavior("w", 4 * MIB, 1.0, pattern="strided", stride=256,
                            gap_mean=4, write_frac=1.0, site=1)]
        t = self._trace(b)
        s, stats = CacheHierarchy().filter_trace(t)
        wb = s.obj_id[s.kind == KIND_WRITEBACK]
        assert len(wb) > 0
        assert (wb == 0).all()  # single heap object -> obj_id 0

    def test_kinds_partition_stream(self, tiny_stream):
        kinds = set(np.unique(tiny_stream.kind).tolist())
        assert kinds <= {KIND_LOAD, KIND_STORE, KIND_WRITEBACK}
        assert KIND_LOAD in kinds

    def test_stream_inst_nondecreasing(self, tiny_stream):
        assert (np.diff(tiny_stream.inst) >= 0).all()

    def test_stream_mpki_matches_stats(self, tiny_trace):
        s, stats = CacheHierarchy().filter_trace(tiny_trace)
        assert s.mpki() == pytest.approx(stats.l2_mpki, rel=1e-6)

    def test_segment_stats_present(self, tiny_trace):
        # tiny_behaviors has no segments; add a stack behaviour.
        b = [ObjectBehavior("stk", 16 * KIB, 1.0, pattern="hotspot",
                            gap_mean=4, segment=SEG_STACK)]
        t = TraceBuilder(b).build(5000, stream("tests", "seg"))
        _, stats = CacheHierarchy().filter_trace(t)
        assert SEG_STACK in stats.per_object

    def test_per_object_counts_sum_to_accesses(self, tiny_trace):
        _, stats = CacheHierarchy().filter_trace(tiny_trace, warmup_frac=0.0)
        assert sum(v[0] for v in stats.per_object.values()) == len(tiny_trace)


def _stream_tuples(s):
    return [(a.dtype, a.tolist())
            for a in (s.inst, s.vline, s.obj_id, s.dep, s.kind)]


def _filter(trace, warmup_frac, kernel):
    """``filter_trace`` on the kernel, or with the reference loop
    substituted for it (same warmup-boundary arithmetic either way)."""
    h = CacheHierarchy()
    if kernel:
        return h.filter_trace(trace, warmup_frac=warmup_frac)
    with mock.patch.object(filter_kernel, "run_filter",
                           lambda t, hier, warm_until:
                           reference_filter.filter_trace(hier, t,
                                                         warm_until)):
        return h.filter_trace(trace, warmup_frac=warmup_frac)


class TestWarmupBoundary:
    """The ``inst_offset`` edge cases, pinned on both filter engines."""

    def _trace(self, n, key="warm"):
        b = [ObjectBehavior("o", 1 * MIB, 1.0, pattern="rand",
                            gap_mean=5, site=1)]
        return TraceBuilder(b).build(n, stream("tests", key))

    @pytest.mark.parametrize("kernel", [True, False])
    def test_zero_warmup_keeps_trace_numbering(self, kernel):
        t = self._trace(5000)
        s, stats = _filter(t, 0.0, kernel)
        # No offset: the stream keeps the trace's own instruction counts
        # and the full trace length is the measured window.
        assert stats.total_instructions == int(t.inst[-1])
        # Every record carries a raw trace instruction count.
        assert len(s) > 0 and np.isin(s.inst, t.inst).all()

    @pytest.mark.parametrize("kernel", [True, False])
    def test_nonzero_warmup_offsets_numbering(self, kernel):
        t = self._trace(5000)
        s, stats = _filter(t, 0.5, kernel)
        boundary = int(t.inst[int(len(t) * 0.5) - 1])
        assert stats.total_instructions == int(t.inst[-1]) - boundary
        assert len(s) > 0 and int(s.inst.min()) >= 0

    @pytest.mark.parametrize("kernel", [True, False])
    def test_tiny_trace_flooring_equals_zero_warmup(self, kernel):
        # 9 accesses at warmup_frac=0.1 floors to warm_until == 0: the
        # documented contract is exact warmup_frac=0.0 behaviour (no
        # exclusion window, no offset) — not a silent half-state.
        t = self._trace(9, key="tinywarm")
        assert int(len(t) * 0.1) == 0
        floored = _filter(t, 0.1, kernel)
        explicit = _filter(t, 0.0, kernel)
        assert _stream_tuples(floored[0]) == _stream_tuples(explicit[0])
        assert floored[0].total_instructions == explicit[0].total_instructions
        assert floored[1] == explicit[1]
