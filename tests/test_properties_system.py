"""Property-based tests for system-level invariants: the interval core,
placement planning, and the memory system's conservation laws."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.core import CoreParams, InOrderWindowCore
from repro.cpu.hierarchy import KIND_LOAD, KIND_STORE, KIND_WRITEBACK, MissStream
from repro.memctrl.system import ChannelGroup, MemorySystem
from repro.memdev.presets import DDR3, LPDDR2, RLDRAM3
from repro.moca.allocation import MocaPolicy, plan_placement
from repro.trace.events import PAGE_BYTES
from repro.util.units import MIB
from repro.vm.allocator import OSPageAllocator
from repro.vm.heap import ObjectType
from repro.vm.pagetable import PageTable
from repro.vm.physmem import FramePool


# ---- strategies -------------------------------------------------------------------

record = st.tuples(
    st.integers(1, 60),                     # instruction gap
    st.integers(0, 4000),                   # line index
    st.sampled_from([KIND_LOAD, KIND_LOAD, KIND_STORE, KIND_WRITEBACK]),
    st.booleans(),                          # dep
)


def _make_stream(records) -> MissStream:
    gaps = [r[0] for r in records]
    inst = np.cumsum(np.asarray(gaps, dtype=np.int64))
    return MissStream(
        inst=inst,
        vline=np.asarray([r[1] * 64 for r in records], dtype=np.int64),
        obj_id=np.asarray([r[1] % 3 for r in records], dtype=np.int32),
        dep=np.asarray([r[3] for r in records], dtype=bool),
        kind=np.asarray([r[2] for r in records], dtype=np.int8),
        total_instructions=int(inst[-1]) + 50,
    )


def _memsys() -> MemorySystem:
    return MemorySystem({"main": ChannelGroup(DDR3, 2, 8 * MIB)})


class TestCoreInvariants:
    @given(st.lists(record, min_size=1, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_conservation_and_attribution(self, records):
        """Counted records partition exactly; per-object attributions sum
        to the totals; execution covers all instructions."""
        s = _make_stream(records)
        groups = np.zeros(len(s), dtype=np.int32)
        gaddrs = s.vline % (8 * MIB)
        core = InOrderWindowCore(s, groups, gaddrs)
        r = core.run_to_completion(_memsys())
        assert r.n_demand + r.n_writebacks == len(s)
        assert sum(r.load_misses_by_obj.values()) == r.n_load_misses
        assert sum(r.stall_by_obj.values()) == r.load_stall_cycles
        assert r.cycles >= s.total_instructions  # ipc=1 floor
        assert r.load_stall_cycles >= 0
        assert r.mem_access_cycles >= r.n_demand  # every request takes >=1

    @given(st.lists(record, min_size=1, max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_stall_bounded_by_latency_sum(self, records):
        """ROB-head stall can never exceed total demand latency."""
        s = _make_stream(records)
        groups = np.zeros(len(s), dtype=np.int32)
        gaddrs = s.vline % (8 * MIB)
        r = InOrderWindowCore(s, groups, gaddrs).run_to_completion(_memsys())
        assert r.load_stall_cycles <= r.mem_access_cycles

    @given(st.lists(record, min_size=2, max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_episode_stepping_monotone(self, records):
        """Episode completions never decrease the core clock."""
        s = _make_stream(records)
        groups = np.zeros(len(s), dtype=np.int32)
        gaddrs = s.vline % (8 * MIB)
        core = InOrderWindowCore(s, groups, gaddrs)
        memsys = _memsys()
        last = 0
        while not core.finished:
            cycle = core.run_episode(memsys)
            assert cycle >= last
            last = cycle

    @given(st.lists(record, min_size=1, max_size=60),
           st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_smaller_mshr_never_more_parallel(self, records, mshr):
        """Restricting MLP never merges episodes and never changes what
        was executed — only when.

        End-to-end cycle counts are deliberately NOT compared: they are
        not monotone in MSHR count.  Episode boundaries are anchored at
        the ROB head, so shrinking the MSHR can shift a later miss into
        a window where it overlaps, and a narrower core also puts fewer
        simultaneous requests into the shared FR-FCFS queues, both of
        which can make the narrow core finish a particular trace sooner.
        """
        s = _make_stream(records)
        groups = np.zeros(len(s), dtype=np.int32)
        gaddrs = s.vline % (8 * MIB)
        wide = InOrderWindowCore(
            s, groups, gaddrs, CoreParams(mshr=20)).run_to_completion(_memsys())
        narrow = InOrderWindowCore(
            s, groups, gaddrs, CoreParams(mshr=mshr)).run_to_completion(_memsys())
        # Structural monotonicity: a batch that fits in `mshr` demands
        # also fits in 20, so narrowing can only split episodes.
        assert narrow.n_episodes >= wide.n_episodes
        # Timing-independent conservation: the MSHR width changes the
        # schedule, never the set of records replayed.
        assert narrow.n_demand == wide.n_demand
        assert narrow.n_writebacks == wide.n_writebacks
        assert narrow.n_load_misses == wide.n_load_misses
        assert narrow.total_instructions == wide.total_instructions


class TestPlacementInvariants:
    pages = st.lists(st.integers(0, 5000), min_size=1, max_size=300)

    @given(pages)
    @settings(max_examples=40, deadline=None)
    def test_every_line_translated_in_capacity(self, lines):
        s = MissStream(
            inst=np.arange(1, len(lines) + 1, dtype=np.int64) * 10,
            vline=np.asarray(lines, dtype=np.int64) * 64,
            obj_id=np.asarray([l % 2 for l in lines], dtype=np.int32),
            dep=np.zeros(len(lines), dtype=bool),
            kind=np.zeros(len(lines), dtype=np.int8),
            total_instructions=len(lines) * 10 + 10,
        )
        caps = [4 * MIB, 16 * MIB, 64 * MIB]
        pools = {i: FramePool(c, i) for i, c in enumerate(caps)}
        alloc = OSPageAllocator(pools, {"lat": 0, "bw": 1, "pow": 2},
                                PageTable())
        policy = MocaPolicy([{0: ObjectType.LAT, 1: ObjectType.BW}])
        plan = plan_placement([s], policy, alloc)
        for g, a in zip(plan.groups[0].tolist(), plan.gaddrs[0].tolist()):
            assert 0 <= a < caps[g]

    @given(pages)
    @settings(max_examples=40, deadline=None)
    def test_frames_unique_per_group(self, lines):
        s = MissStream(
            inst=np.arange(1, len(lines) + 1, dtype=np.int64) * 10,
            vline=np.asarray(lines, dtype=np.int64) * 64,
            obj_id=np.zeros(len(lines), dtype=np.int32),
            dep=np.zeros(len(lines), dtype=bool),
            kind=np.zeros(len(lines), dtype=np.int8),
            total_instructions=len(lines) * 10 + 10,
        )
        pools = {0: FramePool(64 * MIB, 0)}
        alloc = OSPageAllocator(pools, {"main": 0}, PageTable())
        policy = MocaPolicy([{}])
        plan = plan_placement([s], policy, alloc)
        frames = {}
        for vline, g, a in zip(s.vline.tolist(), plan.groups[0].tolist(),
                               plan.gaddrs[0].tolist()):
            frame = a // PAGE_BYTES
            vpage = vline // PAGE_BYTES
            # Same vpage always hits the same frame; distinct vpages never
            # share a frame within a group.
            key = (g, frame)
            assert frames.setdefault(key, vpage) == vpage

    @given(pages)
    @settings(max_examples=30, deadline=None)
    def test_same_page_same_offset_preserved(self, lines):
        s = MissStream(
            inst=np.arange(1, len(lines) + 1, dtype=np.int64) * 10,
            vline=np.asarray(lines, dtype=np.int64) * 64,
            obj_id=np.zeros(len(lines), dtype=np.int32),
            dep=np.zeros(len(lines), dtype=bool),
            kind=np.zeros(len(lines), dtype=np.int8),
            total_instructions=len(lines) * 10 + 10,
        )
        pools = {0: FramePool(64 * MIB, 0)}
        alloc = OSPageAllocator(pools, {"main": 0}, PageTable())
        plan = plan_placement([s], MocaPolicy([{}]), alloc)
        offs_v = s.vline % PAGE_BYTES
        offs_p = plan.gaddrs[0] % PAGE_BYTES
        assert (offs_v == offs_p).all()


class TestMemorySystemInvariants:
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2000)),
                    min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_summary_counts_requests(self, reqs):
        from repro.memctrl.request import MemRequest
        memsys = MemorySystem({
            "lat": ChannelGroup(RLDRAM3, 1, 4 * MIB),
            "bw": ChannelGroup(DDR3, 2, 8 * MIB),
            "pow": ChannelGroup(LPDDR2, 1, 8 * MIB),
        })
        batch = [MemRequest(group=g, gaddr=line * 64, issue_cycle=i)
                 for i, (g, line) in enumerate(reqs)]
        memsys.service_batch(batch)
        summary = memsys.summary(10_000_000)
        assert summary.n_requests == len(reqs)
        assert all(r.done_cycle > r.issue_cycle for r in batch)
        assert summary.power_w > 0
