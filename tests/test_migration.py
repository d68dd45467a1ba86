"""Tests for the page-migration baseline (mechanism + runner)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import SCENARIOS, FaultPlan
from repro.sim.spec import RunSpec, run
from repro.trace.events import PAGE_BYTES
from repro.vm.allocator import OSPageAllocator
from repro.vm.heap import ObjectType
from repro.vm.migration import HotPageMigrator, MigrationConfig, MigrationStats
from repro.vm.pagetable import PageTable
from repro.vm.physmem import FramePool
from repro.memctrl.system import ChannelGroup, MemorySystem
from repro.memdev.presets import HBM, LPDDR2, RLDRAM3
from repro.util.units import MIB


@pytest.fixture
def setup():
    memsys = MemorySystem({
        "lat": ChannelGroup(RLDRAM3, 1, 1 * MIB, name="RL"),
        "pow": ChannelGroup(LPDDR2, 1, 64 * MIB, name="LP"),
    })
    pools = {0: FramePool(1 * MIB, 0), 1: FramePool(64 * MIB, 1)}
    alloc = OSPageAllocator(pools, {"lat": 0, "pow": 1}, PageTable())
    return memsys, alloc


class TestHotPageMigrator:
    def _populate(self, alloc, n_pages):
        for vp in range(n_pages):
            alloc.allocate_page(vp, ObjectType.POW)

    def test_promotes_hottest_pages(self, setup):
        memsys, alloc = setup
        self._populate(alloc, 16)
        mig = HotPageMigrator(alloc, memsys,
                              MigrationConfig(max_migrations_per_epoch=2))
        # Page 3 is by far the hottest, then page 7.
        vpages = np.asarray([3] * 50 + [7] * 20 + [1, 2, 4])
        overhead = mig.end_epoch(vpages)
        assert overhead > 0
        assert alloc.page_table.lookup(3)[0] == 0
        assert alloc.page_table.lookup(7)[0] == 0
        assert alloc.page_table.lookup(1)[0] == 1
        assert mig.stats.n_migrations == 2

    def test_old_frames_freed(self, setup):
        memsys, alloc = setup
        self._populate(alloc, 4)
        before = alloc.pools[1].n_allocated
        mig = HotPageMigrator(alloc, memsys)
        mig.end_epoch(np.asarray([0] * 10))
        assert alloc.pools[1].n_allocated == before - 1

    def test_swaps_when_target_full(self, setup):
        memsys, alloc = setup
        self._populate(alloc, 600)
        mig = HotPageMigrator(alloc, memsys,
                              MigrationConfig(max_migrations_per_epoch=512))
        # Fill the 256-frame RL module with warm pages...
        mig.end_epoch(np.repeat(np.arange(256), 2))
        assert alloc.pools[0].frames_left == 0
        # ...then a much hotter page must displace a resident one.
        mig.end_epoch(np.asarray([400] * 99))
        assert alloc.page_table.lookup(400)[0] == 0
        assert mig.stats.n_swaps >= 1

    def test_no_swap_for_colder_page(self, setup):
        memsys, alloc = setup
        self._populate(alloc, 600)
        mig = HotPageMigrator(alloc, memsys,
                              MigrationConfig(max_migrations_per_epoch=512))
        mig.end_epoch(np.repeat(np.arange(256), 10))  # heat 10 each
        swaps_before = mig.stats.n_swaps
        mig.end_epoch(np.asarray([500] * 3))  # heat 3 < resident 10
        assert mig.stats.n_swaps == swaps_before
        assert alloc.page_table.lookup(500)[0] == 1

    def test_empty_epoch_noop(self, setup):
        memsys, alloc = setup
        mig = HotPageMigrator(alloc, memsys)
        assert mig.end_epoch(np.asarray([], dtype=np.int64)) == 0

    def test_requires_target_role(self, setup):
        memsys, alloc = setup
        with pytest.raises(ValueError):
            HotPageMigrator(alloc, memsys, MigrationConfig(target_role="bw"))

    def test_copy_charges_both_buses(self, setup):
        memsys, alloc = setup
        self._populate(alloc, 4)
        mig = HotPageMigrator(alloc, memsys)
        before = [g.modules[0].bus_busy_cycles for g in memsys.groups]
        mig.end_epoch(np.asarray([0] * 10))
        after = [g.modules[0].bus_busy_cycles for g in memsys.groups]
        assert after[0] > before[0] and after[1] > before[1]
        assert mig.stats.bytes_copied == 2 * PAGE_BYTES

    @staticmethod
    def _three_pools(lp_pages):
        """RL (2 frames), HBM and an LP pool of ``lp_pages`` frames."""
        memsys = MemorySystem({
            "lat": ChannelGroup(RLDRAM3, 1, 1 * MIB, name="RL"),
            "bw": ChannelGroup(HBM, 1, 64 * MIB, name="HBM"),
            "pow": ChannelGroup(LPDDR2, 1, 64 * MIB, name="LP"),
        })
        pools = {0: FramePool(2 * PAGE_BYTES, 0),
                 1: FramePool(64 * MIB, 1),
                 2: FramePool(lp_pages * PAGE_BYTES, 2)}
        alloc = OSPageAllocator(pools, {"lat": 0, "bw": 1, "pow": 2},
                                PageTable())
        return memsys, pools, alloc

    @staticmethod
    def _bus_state(memsys):
        """(busy cycles, bytes moved) on each group's bus."""
        return [(g.modules[0].bus_busy_cycles,
                 g.modules[0].bytes_transferred) for g in memsys.groups]

    def _bus_delta(self, memsys, before):
        return [(c - c0, b - b0) for (c, b), (c0, b0)
                in zip(self._bus_state(memsys), before)]

    def test_swap_demotes_to_the_victims_origin(self):
        """A swap victim goes back to the pool it was promoted from, even
        when an earlier pool (HBM) has room."""
        memsys, pools, alloc = self._three_pools(64 * MIB // PAGE_BYTES)
        self._populate(alloc, 4)
        assert {alloc.page_table.lookup(vp)[0] for vp in range(4)} == {2}
        mig = HotPageMigrator(alloc, memsys)
        mig.end_epoch(np.asarray([0, 1, 1]))  # fills the two RL frames
        assert pools[0].full
        before = self._bus_state(memsys)
        # Page 2 (in LP) is hotter than both residents: page 0, the
        # coldest, returns to LP and page 2 takes its RL frame.
        mig.end_epoch(np.asarray([2] * 5))
        assert mig.stats.n_swaps == 1
        assert alloc.page_table.lookup(0)[0] == 2
        assert alloc.page_table.lookup(2)[0] == 0
        assert pools[1].n_allocated == 0
        copy = [g.timing.transfer_cycles(PAGE_BYTES) for g in memsys.groups]
        # RL carries both copies; LP the demotion and the promotion.
        want = [(2 * copy[0], 2 * PAGE_BYTES), (0, 0),
                (2 * copy[2], 2 * PAGE_BYTES)]
        assert self._bus_delta(memsys, before) == want

    def test_swap_charges_the_victims_destination(self):
        """When the victim's origin is full it falls back to the first
        other pool with room, which need not be where the promoted page
        came from: the demotion copy is billed to the victim's
        destination."""
        memsys, pools, alloc = self._three_pools(3)
        self._populate(alloc, 3)
        mig = HotPageMigrator(alloc, memsys)
        mig.end_epoch(np.asarray([0, 1, 1]))  # fills the two RL frames
        assert pools[0].full
        for vp in (3, 4):  # refill the LP frames pages 0 and 1 left
            alloc.allocate_page(vp, ObjectType.POW)
        assert pools[2].full
        before = self._bus_state(memsys)
        # Page 2 (in LP) is hotter than both residents: page 0, the
        # coldest, cannot return to the full LP and goes to HBM, the
        # first non-RL pool with room; page 2 takes its frame.
        mig.end_epoch(np.asarray([2] * 5))
        assert mig.stats.n_swaps == 1
        assert alloc.page_table.lookup(0)[0] == 1
        assert alloc.page_table.lookup(2)[0] == 0
        copy = [g.timing.transfer_cycles(PAGE_BYTES) for g in memsys.groups]
        # RL carries both copies; HBM the demotion; LP the promotion.
        want = [(2 * copy[0], 2 * PAGE_BYTES), (copy[1], PAGE_BYTES),
                (copy[2], PAGE_BYTES)]
        assert self._bus_delta(memsys, before) == want


def _migrate(app, config, migration=None, n_accesses=120_000):
    """One migration run through ``run(RunSpec(...))`` and its stats."""
    m = run(RunSpec(app, config, "homogen", n_accesses,
                    migration=migration or MigrationConfig()))
    return m, MigrationStats.from_dict(m.meta["migration"])


class TestMigrationRunner:
    def test_produces_metrics_and_stats(self):
        m, stats = _migrate("gcc", "Heter-config1",
                            MigrationConfig(epoch_misses=300),
                            n_accesses=20_000)
        assert m.policy == "migration"
        assert m.exec_cycles > 0
        assert stats.n_epochs >= 2
        assert stats.overhead_cycles > 0

    def test_migration_moves_hot_pages_to_rl(self):
        _, stats = _migrate("gcc", "Heter-config1",
                            MigrationConfig(epoch_misses=300),
                            n_accesses=20_000)
        assert stats.n_migrations > 0

    def test_moca_beats_migration_on_chase_heavy_app(self):
        """The paper's argument: allocation-time placement beats runtime
        migration, which keeps paying copy costs and only ever catches a
        few pages of a large pointer-chased object."""
        mig, _ = _migrate("mcf", "Heter-config1", n_accesses=30_000)
        moca = run(RunSpec("mcf", "Heter-config1", "moca", 30_000))
        assert moca.mem_access_cycles < mig.mem_access_cycles
        assert moca.exec_cycles < mig.exec_cycles

    def test_homogeneous_target_rejected(self):
        with pytest.raises(ValueError):
            _migrate("gcc", "Homogen-DDR3", n_accesses=5_000)

    def test_runspec_migration_field_dispatches(self):
        """A RunSpec carrying a MigrationConfig routes through run() and
        through the engine's result cache with the same results."""
        from repro.experiments.engine import run_cached
        cfg = MigrationConfig(epoch_misses=300)
        spec = RunSpec("gcc", "Heter-config1", "homogen", 20_000,
                       migration=cfg)
        m = run(spec)
        assert m.policy == "migration"
        assert m.meta["migration_config"] == cfg.to_dict()
        cached = run_cached(spec)
        assert (MigrationStats.from_dict(m.meta["migration"])
                == MigrationStats.from_dict(cached.meta["migration"]))
        assert m.exec_cycles == cached.exec_cycles

    def test_migration_needs_homogen_policy(self):
        with pytest.raises(ValueError, match="homogen"):
            RunSpec("gcc", "Heter-config1", "moca", 20_000,
                    migration=MigrationConfig())

    @pytest.mark.parametrize("plan", [SCENARIOS["offline-lat"],
                                      FaultPlan(degrade_role="pow",
                                                degrade_factor=4.0)])
    def test_migration_rejects_fault_plans(self, plan):
        """The migration driver injects no faults, so a fault plan would
        label (and cache-key) a clean run as a faulted one."""
        with pytest.raises(ValueError, match="migration runs inject no "
                                             "faults"):
            RunSpec("gcc", "Heter-config1", "homogen", 20_000,
                    faults=plan, migration=MigrationConfig(epoch_misses=500))


class TestSerialization:
    stats_ints = st.integers(0, 2**40)

    @given(st.builds(lambda *v: v, *[stats_ints] * 6))
    @settings(max_examples=60, deadline=None)
    def test_migration_stats_roundtrip_is_lossless(self, values):
        from repro.vm.migration import MigrationStats
        stats = MigrationStats(*values)
        clone = MigrationStats.from_dict(stats.to_dict())
        assert clone == stats
        assert clone.overhead_cycles == stats.overhead_cycles

    @given(epoch=st.integers(1, 10**6), cap=st.integers(1, 4096),
           shoot=st.integers(0, 10**5))
    @settings(max_examples=40, deadline=None)
    def test_migration_config_roundtrip(self, epoch, cap, shoot):
        cfg = MigrationConfig(epoch_misses=epoch,
                              max_migrations_per_epoch=cap,
                              shootdown_cycles=shoot)
        assert MigrationConfig.from_dict(cfg.to_dict()) == cfg
