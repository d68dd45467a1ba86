"""Tests for the OS substrate: frame pools, page table, TLB, allocator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.hierarchy import MissStream
from repro.moca.allocation import CORE_STRIDE, HomogeneousPolicy, \
    plan_placement
from repro.trace.events import PAGE_BYTES
from repro.vm.allocator import OSPageAllocator
from repro.vm.heap import FALLBACK_CHAINS, ObjectType, TypedHeap
from repro.vm.pagetable import PageTable, TLB
from repro.vm.physmem import FramePool, OutOfMemory
from repro.util.units import MIB


class TestFramePool:
    def test_sequential_allocation(self):
        p = FramePool(4 * PAGE_BYTES, group=0)
        assert [p.allocate() for _ in range(4)] == [0, 1, 2, 3]

    def test_exhaustion_returns_none(self):
        p = FramePool(PAGE_BYTES, group=0)
        assert p.allocate() == 0
        assert p.allocate() is None
        assert p.full

    def test_free_and_reuse(self):
        p = FramePool(2 * PAGE_BYTES, group=0)
        f = p.allocate()
        p.allocate()
        p.free(f)
        assert not p.full
        assert p.allocate() == f

    def test_free_validates(self):
        p = FramePool(2 * PAGE_BYTES, group=0)
        with pytest.raises(ValueError):
            p.free(1)  # never allocated

    def test_utilization(self):
        p = FramePool(4 * PAGE_BYTES, group=0)
        p.allocate()
        assert p.utilization == pytest.approx(0.25)

    def test_utilization_after_full_shrink(self):
        p = FramePool(4 * PAGE_BYTES, group=0)
        p.shrink(1.0)  # FaultPlan allows shrink_fraction=1.0
        assert p.n_frames == 0
        assert p.utilization == 0.0
        p.allocate_overcommit()
        assert p.utilization == float("inf")

    def test_frames_left_never_negative_after_overcommit(self):
        p = FramePool(2 * PAGE_BYTES, group=0)
        p.allocate()
        p.allocate()
        p.allocate_overcommit()
        assert p.frames_left == 0
        assert p.full
        assert p.allocate() is None
        alloc = OSPageAllocator({0: p}, roles={"main": 0})
        assert alloc.free_frames() == {0: 0}
        p.free(2)  # an overcommitted frame comes back: reusable
        assert p.frames_left == 1 and not p.full
        assert p.allocate() == 2

    def test_allocate_run_matches_scalar_order(self):
        def pool():
            p = FramePool(8 * PAGE_BYTES, group=0)
            frames = [p.allocate() for _ in range(5)]
            for f in (frames[3], frames[0], frames[4]):
                p.free(f)
            return p
        scalar, run = pool(), pool()
        want = [scalar.allocate() for _ in range(10)]
        got = run.allocate_run(10).tolist()
        assert got == [f for f in want if f is not None] == [4, 0, 3, 5, 6, 7]
        assert (run._next, run._free, run.n_allocated) == \
            (scalar._next, scalar._free, scalar.n_allocated)
        assert len(run.allocate_run(3)) == 0

    def test_free_run_matches_scalar_frees(self):
        scalar, run = (FramePool(8 * PAGE_BYTES, group=0) for _ in "ab")
        scalar.allocate_run(6)
        run.allocate_run(6)
        for f in (4, 1, 5):
            scalar.free(f)
        run.free_run([4, 1, 5])
        run.free_run([])
        assert (run._free, run.n_allocated) == (scalar._free,
                                                scalar.n_allocated)
        assert run.allocate() == 5
        with pytest.raises(ValueError, match="never allocated"):
            run.free_run([0, 6])

    def test_overcommit_run(self):
        p = FramePool(2 * PAGE_BYTES, group=0)
        p.allocate_run(2)
        assert p.allocate_overcommit_run(3).tolist() == [2, 3, 4]
        assert (p.n_allocated, p.n_overcommitted, p.frames_left) == (5, 3, 0)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            FramePool(100, group=0)


class TestPageTable:
    def test_map_and_lookup(self):
        pt = PageTable()
        pt.map_page(10, group=1, frame=5)
        assert pt.lookup(10) == (1, 5)
        assert 10 in pt
        assert len(pt) == 1

    def test_double_map_rejected(self):
        pt = PageTable()
        pt.map_page(10, 0, 0)
        with pytest.raises(ValueError):
            pt.map_page(10, 0, 1)

    def test_page_fault(self):
        with pytest.raises(KeyError, match="page fault"):
            PageTable().lookup(3)

    def test_translate_lines(self):
        pt = PageTable()
        pt.map_page(0, group=0, frame=7)
        pt.map_page(1, group=1, frame=2)
        vlines = np.asarray([64, PAGE_BYTES + 128])
        groups, gaddr = pt.translate_lines(vlines)
        assert groups.tolist() == [0, 1]
        assert gaddr.tolist() == [7 * PAGE_BYTES + 64, 2 * PAGE_BYTES + 128]

    def test_translate_unmapped_raises(self):
        pt = PageTable()
        pt.map_page(0, 0, 0)
        with pytest.raises(KeyError, match="page fault"):
            pt.translate_lines(np.asarray([5 * PAGE_BYTES]))

    def test_translate_after_incremental_maps(self):
        """A map or remap made after a translation shows up in the next."""
        pt = PageTable()
        pt.map_page(0, 0, 0)
        first = pt.translate_lines(np.asarray([0]))
        pt.map_page(1, 0, 1)
        groups, gaddr = pt.translate_lines(np.asarray([0, PAGE_BYTES]))
        assert gaddr.tolist() == [0, PAGE_BYTES]
        assert pt.remap(0, 1, 9) == (0, 0)
        groups, gaddr = pt.translate_lines(np.asarray([0, PAGE_BYTES]))
        assert groups.tolist() == [1, 0]
        assert gaddr.tolist() == [9 * PAGE_BYTES, PAGE_BYTES]
        assert first[0].tolist() == [0]  # earlier results are not aliased

    def test_map_pages_run(self):
        pt = PageTable()
        pt.map_pages([7, 3, 5], group=2, frames=[0, 1, 2])
        pt.map_pages(range(10, 13), group=[0, 1, 0], frames=[4, 5, 6])
        pt.map_pages([4, 6], 1, [8, 9])  # interleaves mapped pages
        assert pt.snapshot() == [(3, 2, 1), (4, 1, 8), (5, 2, 2), (6, 1, 9),
                                 (7, 2, 0), (10, 0, 4), (11, 1, 5),
                                 (12, 0, 6)]
        assert pt.lookup(11) == (1, 5) and len(pt) == 8

    @pytest.mark.parametrize("run", [[20, 5], [9, 8, 9], [1, 3], [4, 5]])
    def test_duplicate_run_rejected_whole(self, run):
        pt = PageTable()
        pt.map_pages([5, 2, 3], 0, [0, 1, 2])
        before = pt.snapshot()
        with pytest.raises(ValueError, match="already mapped"):
            pt.map_pages(run, 1, list(range(len(run))))
        assert pt.snapshot() == before

    def test_remap_keeps_lookup_constant_time_index(self):
        pt = PageTable()
        pt.map_pages(range(100), 0, range(100))
        for vp in range(0, 100, 7):
            assert pt.remap(vp, 1, 1000 + vp) == (0, vp)
        assert pt.lookup(14) == (1, 1014)
        assert pt.pages_in_group(1) == len(range(0, 100, 7))
        with pytest.raises(KeyError, match="page fault"):
            pt.remap(100, 0, 0)

    def test_pages_in_group(self):
        pt = PageTable()
        pt.map_page(0, 0, 0)
        pt.map_page(1, 1, 0)
        pt.map_page(2, 1, 1)
        assert pt.pages_in_group(1) == 2


def _oracle_translate(pt, vlines):
    """Per-record translation: one ``searchsorted`` per record over the
    page table's snapshot (the path the page split replaced)."""
    snap = pt.snapshot()
    keys = np.asarray([k for k, _, _ in snap], dtype=np.int64)
    groups = np.asarray([g for _, g, _ in snap], dtype=np.int32)
    frames = np.asarray([f for _, _, f in snap], dtype=np.int64)
    vpages = vlines // PAGE_BYTES
    idx = np.searchsorted(keys, vpages)
    miss = keys[np.minimum(idx, len(keys) - 1)] != vpages if len(keys) \
        else np.ones(len(vpages), dtype=bool)
    if miss.any():
        missing = vpages[miss]
        raise KeyError(f"page fault on {len(missing)} pages, first "
                       f"{missing[0]:#x}")
    return groups[idx], frames[idx] * PAGE_BYTES + vlines % PAGE_BYTES


def _stream(records):
    n = len(records)
    return MissStream(
        inst=np.arange(n, dtype=np.int64),
        vline=np.asarray([p * PAGE_BYTES + 64 * line for p, line in records],
                         dtype=np.int64).reshape(-1),
        obj_id=np.zeros(n, dtype=np.int32), dep=np.zeros(n, dtype=bool),
        kind=np.zeros(n, dtype=np.int8), total_instructions=n)


@st.composite
def split_worlds(draw):
    """A page table built by ``map_pages`` runs and ``remap``s in one
    core's key space, and a stream over its pages with repeats (and,
    sometimes, pages it never mapped)."""
    core = draw(st.sampled_from([0, 1, 3]))
    base = core * (CORE_STRIDE // PAGE_BYTES)
    pages = draw(st.lists(st.integers(0, 200), unique=True, min_size=1,
                          max_size=60))
    pt = PageTable()
    n_mapped = draw(st.integers(0, len(pages)))
    i = 0
    while i < n_mapped:
        run = pages[i:min(n_mapped, i + draw(st.integers(1, 8)))]
        per_page = draw(st.booleans())
        group = [draw(st.integers(0, 2)) for _ in run] if per_page \
            else draw(st.integers(0, 2))
        frames = [draw(st.integers(0, 10_000)) for _ in run]
        pt.map_pages([base + p for p in run], group, frames)
        i += len(run)
    mapped = pages[:i]
    for _ in range(draw(st.integers(0, 6))):
        if mapped:
            pt.remap(base + draw(st.sampled_from(mapped)),
                     draw(st.integers(0, 2)), draw(st.integers(0, 10_000)))
    touch = mapped or pages
    if draw(st.booleans()):
        touch = touch + draw(st.lists(st.integers(201, 260), max_size=3))
    records = draw(st.lists(st.tuples(st.sampled_from(touch),
                                      st.integers(0, 63)), max_size=120))
    return pt, core, _stream(records), pages[i:]


def _translate_both(pt, core, stream):
    """(split result or KeyError text, oracle result or KeyError text)."""
    out = []
    for fn in (lambda: pt.translate_lines(
                   stream.vline,
                   (stream.page_split()[0] + core * (CORE_STRIDE // PAGE_BYTES),
                    stream.page_split()[1])),
               lambda: _oracle_translate(pt, stream.vline + core * CORE_STRIDE)):
        try:
            out.append(fn())
        except KeyError as exc:
            out.append(str(exc))
    return out


class TestSplitTranslation:
    """Translation through a stream's distinct pages equals a per-record
    ``searchsorted`` in values, dtypes and page-fault text."""

    def _assert_same(self, got, want):
        if isinstance(want, str):
            assert got == want
            return
        assert not isinstance(got, str), got
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    @given(split_worlds())
    @settings(max_examples=200, deadline=None)
    def test_split_matches_per_record_oracle(self, world):
        pt, core, stream, _ = world
        got, want = _translate_both(pt, core, stream)
        self._assert_same(got, want)
        # The plain path (no split) is the same translation.
        try:
            plain = pt.translate_lines(stream.vline + core * CORE_STRIDE)
        except KeyError as exc:
            plain = str(exc)
        self._assert_same(plain, want)

    @given(split_worlds(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_map_or_remap_after_memoized_split_shows(self, world, data):
        pt, core, stream, unmapped = world
        base = core * (CORE_STRIDE // PAGE_BYTES)
        stream.page_split()  # memoize before the table changes
        _translate_both(pt, core, stream)
        version = pt.version
        snap = pt.snapshot()
        if unmapped and (not snap or data.draw(st.booleans())):
            pt.map_pages([base + p for p in unmapped], 1, range(len(unmapped)))
        else:
            key = data.draw(st.sampled_from(snap))[0]
            pt.remap(key, data.draw(st.integers(0, 2)),
                     data.draw(st.integers(0, 10_000)))
        assert pt.version > version
        got, want = _translate_both(pt, core, stream)
        self._assert_same(got, want)

    @given(st.lists(st.lists(st.tuples(st.integers(0, 40),
                                       st.integers(0, 63)), max_size=80),
                    min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_plan_placement_keys_each_core(self, cores):
        """Each core's split is shifted into that core's key space."""
        streams = [_stream(records) for records in cores]
        alloc = OSPageAllocator(_pools([MIB]), roles={"main": 0})
        plan = plan_placement(streams, HomogeneousPolicy(), alloc)
        for core, stream in enumerate(streams):
            want = _oracle_translate(alloc.page_table,
                                     stream.vline + core * CORE_STRIDE)
            self._assert_same((plan.groups[core], plan.gaddrs[core]), want)

    def test_split_dtype_and_memo(self):
        small = _stream([(p % 7, p % 64) for p in range(50)])
        pages, inverse = small.page_split()
        assert inverse.dtype == np.uint16 and pages.tolist() == list(range(7))
        assert small.page_split()[1] is inverse
        wide = _stream([(p, 0) for p in range(70_000)])
        assert wide.page_split()[1].dtype != np.uint16
        sl = small.slice(0, 10)
        assert "_page_split" not in vars(sl)  # never shared with slices

    def test_bulk_lookup_and_remap(self):
        pt = PageTable()
        pt.map_pages(range(10), 0, range(10))
        version = pt.version
        groups, frames = pt.lookup_pages([3, 7])
        assert groups.tolist() == [0, 0] and frames.tolist() == [3, 7]
        pt.remap_pages([7, 3], [1, 2], [70, 30])
        assert pt.version == version + 1
        assert pt.lookup(3) == (2, 30) and pt.lookup(7) == (1, 70)
        with pytest.raises(KeyError, match="page fault"):
            pt.lookup_pages([3, 11])
        with pytest.raises(KeyError, match="page fault"):
            pt.remap_pages([11], [0], [0])


class TestTLB:
    def test_hit_after_touch(self):
        t = TLB(entries=4)
        assert not t.access(1)
        assert t.access(1)

    def test_lru_eviction(self):
        t = TLB(entries=2)
        t.access(1)
        t.access(2)
        t.access(1)   # 1 MRU
        t.access(3)   # evicts 2
        assert t.access(1)
        assert not t.access(2)

    def test_hit_rate_on_stream(self):
        t = TLB(entries=64)
        vlines = np.arange(1000) % 10 * PAGE_BYTES
        assert t.simulate_stream(vlines) > 0.9

    def test_entries_validated(self):
        with pytest.raises(ValueError):
            TLB(entries=0)


class TestTypedHeap:
    def test_default_type(self):
        h = TypedHeap()
        assert h.type_of(42) == ObjectType.POW

    def test_set_and_get(self):
        h = TypedHeap()
        h.set_type(1, ObjectType.LAT)
        assert h.type_of(1) == ObjectType.LAT

    def test_partition_counts(self):
        h = TypedHeap()
        h.set_type(1, ObjectType.LAT)
        h.set_type(2, ObjectType.LAT)
        h.set_type(3, ObjectType.BW)
        assert h.partition_counts() == {
            ObjectType.LAT: 2, ObjectType.BW: 1, ObjectType.POW: 0}

    def test_chains_cover_all_types(self):
        for typ in ObjectType:
            assert FALLBACK_CHAINS[typ][0] in ("lat", "bw", "pow")

    def test_bw_falls_back_to_pow_first(self):
        """Sec. III-C: the next best module for HBM is LPDDR."""
        chain = FALLBACK_CHAINS[ObjectType.BW]
        assert chain.index("pow") < chain.index("lat")


def _pools(caps):
    return {i: FramePool(c, group=i) for i, c in enumerate(caps)}


class TestOSPageAllocator:
    def test_best_fit_first(self):
        alloc = OSPageAllocator(_pools([MIB, MIB, MIB]),
                                roles={"lat": 0, "bw": 1, "pow": 2})
        g, f = alloc.allocate_page(0, ObjectType.LAT)
        assert g == 0
        g, f = alloc.allocate_page(1, ObjectType.BW)
        assert g == 1
        g, f = alloc.allocate_page(2, ObjectType.POW)
        assert g == 2

    def test_fallback_when_full(self):
        alloc = OSPageAllocator(_pools([PAGE_BYTES, MIB, MIB]),
                                roles={"lat": 0, "bw": 1, "pow": 2})
        alloc.allocate_page(0, ObjectType.LAT)   # fills RL
        g, _ = alloc.allocate_page(1, ObjectType.LAT)
        assert g == 1  # spilled to bw
        assert alloc.stats.spills[ObjectType.LAT] == 1

    def test_bw_spills_to_pow_before_lat(self):
        alloc = OSPageAllocator(_pools([MIB, PAGE_BYTES, MIB]),
                                roles={"lat": 0, "bw": 1, "pow": 2})
        alloc.allocate_page(0, ObjectType.BW)
        g, _ = alloc.allocate_page(1, ObjectType.BW)
        assert g == 2

    def test_out_of_memory(self):
        alloc = OSPageAllocator(_pools([PAGE_BYTES]), roles={"main": 0})
        alloc.allocate_page(0, ObjectType.POW)
        with pytest.raises(OutOfMemory):
            alloc.allocate_page(1, ObjectType.POW)

    def test_missing_roles_are_skipped(self):
        alloc = OSPageAllocator(_pools([MIB]), roles={"main": 0})
        for typ in ObjectType:
            assert alloc.chain_for(typ) == [0]

    def test_chain_includes_all_groups_as_last_resort(self):
        alloc = OSPageAllocator(_pools([MIB, MIB]),
                                roles={"lat": 0})  # group 1 has no role
        assert set(alloc.chain_for(ObjectType.LAT)) == {0, 1}

    def test_roles_must_reference_pools(self):
        with pytest.raises(ValueError):
            OSPageAllocator(_pools([MIB]), roles={"lat": 5})

    def test_stats_record_placements(self):
        alloc = OSPageAllocator(_pools([MIB, MIB, MIB]),
                                roles={"lat": 0, "bw": 1, "pow": 2})
        for vp in range(5):
            alloc.allocate_page(vp, ObjectType.POW)
        assert alloc.stats.placed[ObjectType.POW][2] == 5
        assert alloc.stats.total_pages == 5
        assert alloc.stats.spill_rate(ObjectType.POW) == 0.0

    def test_free_frames_accounting(self):
        alloc = OSPageAllocator(_pools([2 * PAGE_BYTES]), roles={"main": 0})
        alloc.allocate_page(0, ObjectType.POW)
        assert alloc.free_frames() == {0: 1}

    def test_needs_pools(self):
        with pytest.raises(ValueError):
            OSPageAllocator({}, roles={})

    def test_run_spills_down_the_chain(self):
        alloc = OSPageAllocator(_pools([2 * PAGE_BYTES, 3 * PAGE_BYTES, MIB]),
                                roles={"lat": 0, "bw": 1, "pow": 2})
        groups, frames = alloc.allocate_pages(range(100, 107), ObjectType.LAT)
        assert groups.tolist() == [0, 0, 1, 1, 1, 2, 2]
        assert frames.tolist() == [0, 1, 0, 1, 2, 0, 1]
        assert alloc.stats.placed[ObjectType.LAT] == {0: 2, 1: 3, 2: 2}
        assert alloc.stats.spills[ObjectType.LAT] == 5
        assert alloc.page_table.lookup(104) == (1, 2)

    def test_run_raises_at_first_homeless_page(self):
        alloc = OSPageAllocator(_pools([2 * PAGE_BYTES]), roles={"main": 0})
        with pytest.raises(OutOfMemory):
            alloc.allocate_pages([5, 6, 7, 8], ObjectType.POW)
        assert [v for v, _, _ in alloc.page_table.snapshot()] == [5, 6]
        assert alloc.pages_offered == 3

    def test_run_overcommits_the_rest(self):
        alloc = OSPageAllocator(_pools([2 * PAGE_BYTES]), roles={"main": 0})
        groups, frames = alloc.allocate_pages([5, 6, 7, 8], ObjectType.POW,
                                              overcommit=True)
        assert frames.tolist() == [0, 1, 2, 3]
        assert alloc.stats.exhausted[ObjectType.POW] == 2
        assert alloc.pools[0].n_overcommitted == 2
        assert alloc.free_frames() == {0: 0}

    def test_trigger_splits_a_run(self):
        alloc = OSPageAllocator(_pools([MIB, MIB]), roles={"lat": 0, "pow": 1})
        fired = []
        alloc.arm_trigger(3, lambda: (fired.append(alloc.pages_offered),
                                      alloc.pools[0].offline()))
        alloc.allocate_pages([0, 1], ObjectType.LAT)
        assert not fired
        groups, _ = alloc.allocate_pages([2, 3, 4], ObjectType.LAT)
        assert fired == [3]  # after exactly three offered pages
        assert groups.tolist() == [0, 1, 1]
        alloc.allocate_pages([9], ObjectType.LAT)
        assert fired == [3]  # fires once
