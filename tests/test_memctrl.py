"""Tests for the controller layer: address map, scheduler, channels."""

import numpy as np
import pytest

from repro.cpu.core import InOrderWindowCore
from repro.cpu.hierarchy import KIND_LOAD, MissStream
from repro.memctrl.addrmap import GroupAddressMap, LINE_BYTES
from repro.memctrl.batch import _scheduler_keys
from repro.memctrl.controller import ChannelController
from repro.memctrl.request import MemRequest
from repro.memctrl.scheduler import SCHEDULERS, fcfs_order, frfcfs_order
from repro.memctrl.system import ChannelGroup, MemorySystem
from repro.memdev.module import MemoryModule
from repro.memdev.presets import DDR3, HBM, LPDDR2, RLDRAM3
from repro.util.units import MIB


class TestGroupAddressMap:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_roundtrip(self, n):
        amap = GroupAddressMap(n)
        for gaddr in (0, 64, 100, 4096, 9_999_936):
            ch, local = amap.route(gaddr)
            assert amap.inverse(ch, local) == (gaddr // 64) * 64 + gaddr % 64

    def test_consecutive_lines_stripe_channels(self):
        """Every aligned 4-line block covers all four channels (order may
        be permuted by the anti-camping hash)."""
        amap = GroupAddressMap(4)
        for block in range(4):
            channels = {amap.route((block * 4 + i) * LINE_BYTES)[0]
                        for i in range(4)}
            assert channels == {0, 1, 2, 3}

    def test_pow2_strides_do_not_camp(self):
        """The reason the hash exists: every-4th/8th/16th-line streams
        still spread over multiple channels."""
        amap = GroupAddressMap(4)
        for stride_lines in (4, 8, 16, 64):
            chans = {amap.route(i * stride_lines * LINE_BYTES)[0]
                     for i in range(64)}
            assert len(chans) >= 2, stride_lines

    def test_offset_preserved(self):
        amap = GroupAddressMap(2)
        _, local = amap.route(64 + 17)
        assert local % 64 == 17

    def test_single_channel_identity(self):
        amap = GroupAddressMap(1)
        assert amap.route(12345) == (0, 12345)

    def test_invalid_channel_count(self):
        with pytest.raises(ValueError):
            GroupAddressMap(0)

    def test_inverse_validates_channel(self):
        with pytest.raises(ValueError):
            GroupAddressMap(2).inverse(5, 0)

    def test_local_addresses_dense(self):
        """Local line numbers are compact: line k -> k // n on its channel."""
        amap = GroupAddressMap(4)
        _, local = amap.route(7 * LINE_BYTES)
        assert local == (7 // 4) * LINE_BYTES


def _req(gaddr, issue=0, **kw):
    r = MemRequest(group=0, gaddr=gaddr, issue_cycle=issue, **kw)
    r.local_addr = gaddr
    return r


class TestSchedulers:
    def test_fcfs_preserves_issue_order(self):
        m = MemoryModule(DDR3, 16 * MIB)
        reqs = [_req(100 * 64, 5), _req(200 * 64, 1), _req(300 * 64, 3)]
        ordered = fcfs_order(m, reqs)
        assert [r.issue_cycle for r in ordered] == [1, 3, 5]

    def test_frfcfs_prefers_open_row(self):
        m = MemoryModule(DDR3, 16 * MIB)
        m.access(0, 0)  # open row 0 of bank 0
        far = _req(DDR3.effective_row_bytes * DDR3.n_banks * 8, issue=0)
        hit = _req(64, issue=10)  # same open row, younger
        ordered = frfcfs_order(m, [far, hit])
        assert ordered[0] is hit

    def test_frfcfs_reads_before_writebacks(self):
        m = MemoryModule(DDR3, 16 * MIB)
        wb = _req(0, issue=0, is_write=True, demand=False)
        rd = _req(64 * 999, issue=5)
        ordered = frfcfs_order(m, [wb, rd])
        assert ordered[0] is rd

    def test_frfcfs_loads_before_demand_stores(self):
        m = MemoryModule(DDR3, 16 * MIB)
        st = _req(0, issue=0, is_write=True, demand=True)
        ld = _req(64 * 999, issue=5, is_write=False, demand=True)
        ordered = frfcfs_order(m, [st, ld])
        assert ordered[0] is ld

    def test_frfcfs_degrades_to_fcfs_without_locality(self):
        m = MemoryModule(DDR3, 16 * MIB)
        reqs = [_req(64 * 1000 * (i + 1), issue=i) for i in range(4)]
        assert [r.issue_cycle for r in frfcfs_order(m, reqs)] == [0, 1, 2, 3]

    def test_registry(self):
        assert SCHEDULERS["frfcfs"] is frfcfs_order
        assert SCHEDULERS["fcfs"] is fcfs_order

    def test_replay_kernel_rejects_custom_scheduler(self):
        """The replay kernel runs only the registered schedulers; a
        custom one fails at replay with an error naming the choices."""
        memsys = MemorySystem({"main": ChannelGroup(
            DDR3, 1, 8 * MIB, scheduler=lambda module, batch: list(batch))})
        stream = MissStream(
            inst=np.array([1], dtype=np.int64),
            vline=np.zeros(1, dtype=np.int64),
            obj_id=np.zeros(1, dtype=np.int32),
            dep=np.zeros(1, dtype=bool),
            kind=np.array([KIND_LOAD], dtype=np.int8),
            total_instructions=10)
        core = InOrderWindowCore(stream, np.zeros(1, dtype=np.int32),
                                 np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError, match=r"<lambda>.*repro\.memctrl"
                           r"\.scheduler\.SCHEDULERS \(fcfs, frfcfs\)"):
            core.run_to_completion(memsys)

    def test_replay_keys_order_wide_gaddrs(self):
        """Addresses too wide to pack beside the tie-run index take the
        lexsort path and give the same scheduler keys."""
        ctrl = np.zeros(5, dtype=np.int64)
        klass = np.array([0, 2, 0, 0, 1])
        fcfs = np.array([False])
        ep_of = np.array([0, 0, 0, 0, 1])
        off = np.array([0, 3, 3, 3, 0])
        narrow = np.array([9, 8, 7, 5, 1]) * 64
        keys = [_scheduler_keys(ctrl, klass, fcfs, ep_of, off, g)
                for g in (narrow, narrow + (1 << 61))]
        for got, want in zip(keys[1], keys[0]):
            assert np.array_equal(got, want)
        hit, miss, mask = keys[0]
        assert sorted(hit[:4].tolist()) == hit[[0, 3, 2, 1]].tolist()
        assert np.all(miss > hit)
        assert (hit & mask).tolist() == [0, 1, 2, 3, 4]

    def test_frfcfs_row_hit_is_a_batch_snapshot(self):
        """Hit/miss classification is frozen when the batch arrives: a
        request targeting the row an earlier same-batch request is about
        to open still sorts — and pays — as a miss.  Pins the snapshot
        policy documented on :func:`frfcfs_order`, which the SoA fast
        path reproduces."""
        m = MemoryModule(DDR3, 16 * MIB)
        row_stride = (DDR3.effective_row_bytes * DDR3.n_banks
                      * DDR3.n_subchannels)
        b = _req(7 * row_stride, issue=0)        # row 7
        d = _req(9 * row_stride, issue=3)        # row 9, same bank
        a = _req(7 * row_stride + 64, issue=5)   # row 7 again
        assert [m.decode(r.local_addr) for r in (b, d, a)] == [
            (0, 0, 7), (0, 0, 9), (0, 0, 7)]
        # Every bank is closed at batch arrival, so the snapshot sorts
        # all three as misses and pure issue order wins: A does NOT jump
        # ahead of D to catch the row B is about to open.
        assert frfcfs_order(m, [a, d, b]) == [b, d, a]
        ChannelController(m).service_batch([a, d, b])
        # Served B, D, A: B opens row 7, D closes it for row 9, A pays a
        # full conflict reopening row 7 — no access was a row hit.
        assert [r.row_hit for r in (b, d, a)] == [False, False, False]
        assert b.done_cycle < d.done_cycle < a.done_cycle


class TestChannelController:
    def test_batch_fills_request_fields(self):
        ctl = ChannelController(MemoryModule(DDR3, 16 * MIB))
        reqs = [_req(i * 64, issue=0) for i in range(4)]
        ctl.service_batch(reqs)
        for r in reqs:
            assert r.done_cycle > 0
            assert r.service_cycles > 0
            assert r.latency == r.queue_cycles + r.service_cycles

    def test_counters(self):
        ctl = ChannelController(MemoryModule(DDR3, 16 * MIB))
        ctl.service_batch([_req(0), _req(64, issue=1)])
        assert ctl.n_served == 2
        assert ctl.mean_latency > 0

    def test_empty_batch_noop(self):
        ctl = ChannelController(MemoryModule(DDR3, 16 * MIB))
        ctl.service_batch([])
        assert ctl.n_served == 0


class TestMemorySystem:
    def test_describe_mentions_groups(self, hetero_system):
        desc = hetero_system.describe()
        assert "RLDRAM3" in desc and "HBM" in desc and "LPDDR2" in desc

    def test_group_lookup(self, hetero_system):
        assert hetero_system.group("lat").timing is RLDRAM3
        assert hetero_system.group("bw").timing is HBM
        assert hetero_system.group("pow").timing is LPDDR2

    def test_modules_flattened(self, hetero_system):
        assert len(hetero_system.modules) == 4  # 1 RL + 1 HBM + 2 LP

    def test_capacity_sums(self, hetero_system):
        assert hetero_system.capacity_bytes == (8 + 16 + 2 * 16) * MIB

    def test_requests_route_to_right_group(self, hetero_system):
        r_lat = MemRequest(group=0, gaddr=0, issue_cycle=0)
        r_bw = MemRequest(group=1, gaddr=0, issue_cycle=0)
        hetero_system.service_batch([r_lat, r_bw])
        assert hetero_system.group("lat").modules[0].n_accesses == 1
        assert hetero_system.group("bw").modules[0].n_accesses == 1

    def test_lp_group_stripes_two_channels(self, hetero_system):
        reqs = [MemRequest(group=2, gaddr=i * 64, issue_cycle=0)
                for i in range(4)]
        hetero_system.service_batch(reqs)
        lp = hetero_system.group("pow")
        assert lp.modules[0].n_accesses == 2
        assert lp.modules[1].n_accesses == 2

    def test_summary_counts(self, ddr3_system):
        reqs = [MemRequest(group=0, gaddr=i * 64, issue_cycle=0)
                for i in range(10)]
        ddr3_system.service_batch(reqs)
        s = ddr3_system.summary(10_000)
        assert s.n_requests == 10
        assert s.total_latency_cycles > 0
        assert s.power_w > 0
        assert s.energy_j > 0

    def test_reset_stats(self, ddr3_system):
        ddr3_system.service_one(MemRequest(group=0, gaddr=0, issue_cycle=0))
        ddr3_system.reset_stats()
        assert ddr3_system.summary(1000).n_requests == 0

    def test_rl_group_serves_faster_than_lp(self, hetero_system):
        lat = {}
        for gname in ("lat", "pow"):
            gi = hetero_system.group_index[gname]
            reqs = [MemRequest(group=gi, gaddr=i * 64 * 997, issue_cycle=0)
                    for i in range(50)]
            hetero_system.service_batch(reqs)
            lat[gname] = sum(r.latency for r in reqs)
        assert lat["lat"] < lat["pow"]

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError):
            MemorySystem({})

    def test_single_channel_group_rejected_zero(self):
        with pytest.raises(ValueError):
            ChannelGroup(DDR3, 0, 16 * MIB)
