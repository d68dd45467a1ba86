"""Tests for the interval core model: episodes, MLP, stall accounting."""

import numpy as np
import pytest
from reference_core import ReferenceCore

from repro.cpu.core import CoreParams, InOrderWindowCore
from repro.cpu.hierarchy import KIND_LOAD, KIND_WRITEBACK, MissStream
from repro.memctrl.system import ChannelGroup, MemorySystem
from repro.memdev.presets import DDR3
from repro.util.units import MIB


def _stream(inst, dep=None, kind=None, total=None, addr_stride=64 * 997):
    n = len(inst)
    return MissStream(
        inst=np.asarray(inst, dtype=np.int64),
        vline=np.arange(n, dtype=np.int64) * addr_stride,
        obj_id=np.zeros(n, dtype=np.int32),
        dep=np.asarray(dep if dep is not None else [False] * n, dtype=bool),
        kind=np.asarray(kind if kind is not None else [KIND_LOAD] * n,
                        dtype=np.int8),
        total_instructions=total or (int(inst[-1]) + 100 if n else 100),
    )


def _translate(stream):
    groups = np.zeros(len(stream), dtype=np.int32)
    gaddrs = stream.vline % (8 * MIB)
    return groups, gaddrs


def _system():
    return MemorySystem({"main": ChannelGroup(DDR3, 1, 8 * MIB)})


def run(stream, params=None):
    groups, gaddrs = _translate(stream)
    core = InOrderWindowCore(stream, groups, gaddrs, params)
    return core.run_to_completion(_system())


class TestEpisodes:
    def test_empty_stream_pure_compute(self):
        s = _stream([], total=1000)
        r = run(s)
        assert r.cycles == 1000
        assert r.n_load_misses == 0

    def test_single_miss_full_exposure(self):
        s = _stream([10])
        r = run(s)
        assert r.n_episodes == 1
        assert r.n_load_misses == 1
        # A lone load miss exposes its whole memory latency.
        assert r.load_stall_cycles == r.mem_access_cycles

    def test_independent_close_misses_overlap(self):
        """Two misses 10 instructions apart (inside the ROB) overlap, so
        total stall is well below 2x one miss's latency."""
        solo = run(_stream([10]))
        pair = run(_stream([10, 20]))
        assert pair.n_episodes == 1
        assert pair.load_stall_cycles < 2 * solo.load_stall_cycles

    def test_dependent_misses_serialize(self):
        dep = run(_stream([10, 20], dep=[False, True]))
        indep = run(_stream([10, 20]))
        assert dep.n_episodes == 2
        assert indep.n_episodes == 1
        assert dep.load_stall_cycles > indep.load_stall_cycles

    def test_rob_window_limits_overlap(self):
        p = CoreParams(rob_size=84)
        far = run(_stream([10, 200]), p)  # 190 apart > ROB
        assert far.n_episodes == 2

    def test_mshr_limits_overlap(self):
        p = CoreParams(mshr=2)
        insts = [10 + 2 * i for i in range(8)]
        r = run(_stream(insts), p)
        assert r.n_episodes >= 4  # ceil(8 / 2)

    def test_stall_per_miss_lower_with_mlp(self):
        chase = run(_stream([50 * i for i in range(1, 11)],
                            dep=[True] * 10))
        streamy = run(_stream([10 + 4 * i for i in range(10)]))
        assert streamy.stall_per_load_miss < chase.stall_per_load_miss / 2

    def test_writebacks_do_not_stall(self):
        s = _stream([10, 12], kind=[KIND_LOAD, KIND_WRITEBACK])
        r = run(s)
        assert r.n_load_misses == 1
        assert r.n_writebacks == 1

    def test_cycles_include_compute_tail(self):
        s = _stream([10], total=100_000)
        r = run(s)
        assert r.cycles > 100_000

    def test_ipc_reflects_stalls(self):
        light = run(_stream([10], total=100_000))
        heavy = run(_stream([10 * i for i in range(1, 101)],
                            dep=[True] * 100, total=100_000))
        assert heavy.ipc < light.ipc < 1.01

    def test_per_object_attribution_sums(self):
        s = _stream([10, 30, 300, 320])
        r = run(s)
        assert sum(r.load_misses_by_obj.values()) == r.n_load_misses
        assert sum(r.stall_by_obj.values()) == r.load_stall_cycles

    def test_mem_access_time_sums_demand_latencies(self):
        s = _stream([10, 1000])
        groups, gaddrs = _translate(s)
        core = InOrderWindowCore(s, groups, gaddrs)
        memsys = _system()
        r = core.run_to_completion(memsys)
        assert r.mem_access_cycles > 0
        assert r.n_demand == 2


class TestStepping:
    def test_peek_then_run_consistent(self):
        s = _stream([10, 500])
        groups, gaddrs = _translate(s)
        core = InOrderWindowCore(s, groups, gaddrs)
        memsys = _system()
        first_issue = core.peek_next_issue()
        assert first_issue == 10
        core.run_episode(memsys)
        assert core.peek_next_issue() > first_issue
        core.run_episode(memsys)
        assert core.finished
        assert core.peek_next_issue() == 1 << 62

    def test_translation_length_mismatch_rejected(self):
        s = _stream([10])
        with pytest.raises(ValueError):
            InOrderWindowCore(s, np.zeros(2, dtype=np.int32),
                              np.zeros(2, dtype=np.int64))

    def test_decreasing_inst_rejected(self):
        # Episode segmentation and the kernel's scheduler keys assume a
        # nondecreasing ``inst``; a decreasing stream used to replay to
        # a wrong cycle count without complaint.
        rng = np.random.default_rng(19)
        inst = rng.integers(200, 400, size=19)
        inst[:4] = [250, 273, 358, 231]
        kind = rng.integers(0, 3, size=19)
        params = CoreParams(mshr=4, rob_size=32)
        memsys = lambda: MemorySystem(  # noqa: E731
            {"main": ChannelGroup(DDR3, 2, 4 * MIB)})
        bad = _stream(inst, kind=kind, total=1000)
        groups, gaddrs = _translate(bad)
        with pytest.raises(ValueError, match="'inst'"):
            InOrderWindowCore(bad, groups, gaddrs, params)
        ok = _stream(np.sort(inst), kind=kind, total=1000)
        groups, gaddrs = _translate(ok)
        fused = InOrderWindowCore(ok, groups, gaddrs, params)
        ref = ReferenceCore(ok, groups, gaddrs, params)
        assert (fused.run_to_completion(memsys()).to_dict()
                == ref.run_to_completion(memsys()).to_dict())

    @pytest.mark.parametrize("bad_kind", [-1, 3])
    def test_unknown_kind_rejected(self, bad_kind):
        # The replay kernel's scheduler keys take the kind as the
        # FR-FCFS class (0..2); any other kind would land in a
        # neighbouring channel's key range.
        s = _stream([10, 20, 30], kind=[0, bad_kind, 2])
        groups, gaddrs = _translate(s)
        with pytest.raises(ValueError, match="'kind'"):
            InOrderWindowCore(s, groups, gaddrs)

    def test_start_cycle_offsets_everything(self):
        s = _stream([10])
        groups, gaddrs = _translate(s)
        a = InOrderWindowCore(s, groups, gaddrs, start_cycle=0)
        b = InOrderWindowCore(s, groups, gaddrs, start_cycle=1000)
        ra = a.run_to_completion(_system())
        rb = b.run_to_completion(_system())
        assert rb.cycles > ra.cycles

    def test_max_overlap_property(self):
        assert CoreParams(mshr=20, lq_size=32).max_overlap == 20
        assert CoreParams(mshr=40, lq_size=32).max_overlap == 32


class TestFractionalIPC:
    """Retire-gap arithmetic must be exact for non-integer IPC.

    ``ipc=0.1`` is stored as the nearest binary double, so the old
    ``int(gap / ipc)`` silently lost cycles (``int(3 / 0.1) == 29``).
    ``CoreParams.ipc_ratio`` recovers the intended rational once and all
    gap math is integer from there on."""

    def test_cycles_for_is_exact(self):
        p = CoreParams(ipc=0.1)
        assert p.ipc_ratio == (1, 10)
        assert p.cycles_for(3) == 30  # int(3 / 0.1) gives 29
        assert p.cycles_for(7) == 70
        assert CoreParams(ipc=0.3).cycles_for(3) == 10
        assert CoreParams(ipc=1.5).cycles_for(3) == 2
        assert CoreParams().cycles_for(123) == 123

    @pytest.mark.parametrize("fast", [True, False])
    def test_first_issue_uses_exact_gap(self, fast):
        s = _stream([3])
        groups, gaddrs = _translate(s)
        core_cls = InOrderWindowCore if fast else ReferenceCore
        core = core_cls(s, groups, gaddrs, CoreParams(ipc=0.1))
        # 3 instructions at 0.1 IPC = exactly 30 cycles, not 29.
        assert core.peek_next_issue() == 30

    def test_pure_compute_run_is_exact(self):
        r = run(_stream([], total=7), CoreParams(ipc=0.1))
        assert r.cycles == 70

    def test_fractional_gaps_accumulate_exactly(self):
        """Three episodes with 3-instruction gaps at 0.1 IPC: each gap
        contributes exactly 30 cycles of compute, so total cycles equal
        the hand-computed compute time plus the measured memory time."""
        s = _stream([3, 6, 9], dep=[False, True, True], total=9)
        r = run(s, CoreParams(ipc=0.1))
        # Fully serial chain: every episode is one load, so total time
        # decomposes exactly into 3 gaps of 30 cycles plus the measured
        # memory time.  The old float arithmetic gave 29-cycle gaps.
        assert r.cycles == 90 + r.mem_access_cycles
