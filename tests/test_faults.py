"""Tests for the fault-injection layer (``repro.faults``).

Covers plan validation and identity (cache-key separation from clean
runs), capacity faults on frame pools (offline/shrink/trigger/
overcommit), the dedicated exhaustion error, timing derating, LUT
drop/scramble determinism, and end-to-end faulted runs degrading
gracefully instead of crashing.
"""

import dataclasses
import math
import re

import pytest

from repro.faults import FaultPlan, SCENARIOS, apply_lut_faults, \
    apply_system_faults, arm_allocator
from repro.memdev.presets import DDR3
from repro.moca.profiler import profile_app
from repro.sim.config import HETER_CONFIG1, HOMOGEN_DDR3
from repro.sim.spec import RunSpec, run
from repro.vm.allocator import OSPageAllocator, OutOfFramesError
from repro.vm.heap import ObjectType
from repro.vm.pagetable import PageTable
from repro.vm.physmem import FramePool, OutOfMemory
from repro.util.units import MIB


def small_allocator(frames_per_pool: int = 8) -> OSPageAllocator:
    size = frames_per_pool * 4096
    pools = {i: FramePool(size, i, f"pool{i}") for i in range(3)}
    return OSPageAllocator(pools, {"lat": 0, "bw": 1, "pow": 2},
                           PageTable())


class TestFaultPlan:
    def test_clean_by_default(self):
        assert FaultPlan().is_clean
        assert FaultPlan().describe() == "clean"

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(offline_role="nope")
        with pytest.raises(ValueError):
            FaultPlan(shrink_role="pow")  # fraction missing
        with pytest.raises(ValueError):
            FaultPlan(shrink_role="pow", shrink_fraction=1.5)
        with pytest.raises(ValueError):
            FaultPlan(degrade_role="bw", degrade_factor=0.5)
        with pytest.raises(ValueError):
            FaultPlan(trigger_page=-1)

    @pytest.mark.parametrize("kwargs, match", [
        ({"degrade_role": "lat", "degrade_factor": math.nan},
         "degrade_factor=nan must be finite"),
        ({"degrade_role": "lat", "degrade_factor": math.inf},
         "degrade_factor=inf must be finite"),
        ({"shrink_role": "pow", "shrink_fraction": math.nan},
         "shrink_fraction=nan"),
        ({"lut_drop_fraction": math.inf}, "lut_drop_fraction=inf"),
        ({"lut_scramble_fraction": math.nan}, "lut_scramble_fraction=nan"),
        ({"offline_role": "lat", "trigger_page": 1.5},
         "trigger_page=1.5 is not an int"),
        ({"offline_role": "lat", "trigger_page": True},
         "trigger_page=True is not an int"),
    ])
    def test_rejects_non_finite_and_non_integral(self, kwargs, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            FaultPlan(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match=r"\['offline_rol'\]"):
            FaultPlan.from_dict({"offline_rol": "lat"})

    def test_roundtrip(self):
        for plan in SCENARIOS.values():
            assert FaultPlan.from_dict(plan.canonical()) == plan

    def test_scenarios_are_not_clean(self):
        for name, plan in SCENARIOS.items():
            assert not plan.is_clean, name
            assert plan.describe() != "clean"

    def test_family_flags(self):
        assert FaultPlan(offline_role="lat").has_capacity_fault
        assert FaultPlan(degrade_role="bw",
                         degrade_factor=2.0).has_timing_fault
        assert FaultPlan(lut_drop_fraction=0.5).has_lut_fault


class TestSpecIdentity:
    def test_clean_spec_key_has_no_faults_entry(self):
        spec = RunSpec("mcf", "Homogen-DDR3", "homogen", 1000)
        assert "faults" not in spec.canonical()

    def test_clean_plan_normalizes_to_none(self):
        spec = RunSpec("mcf", "Homogen-DDR3", "homogen", 1000,
                       faults=FaultPlan())
        assert spec.faults is None
        assert spec.key() == RunSpec("mcf", "Homogen-DDR3", "homogen",
                                     1000).key()

    def test_fault_runs_never_collide_with_clean(self):
        clean = RunSpec("mcf", "Heter-config1", "moca", 1000)
        keys = {clean.key()}
        for plan in SCENARIOS.values():
            keys.add(dataclasses.replace(clean, faults=plan).key())
        assert len(keys) == 1 + len(SCENARIOS)

    def test_seed_distinguishes_plans(self):
        a = FaultPlan(lut_drop_fraction=0.5, seed=0)
        b = FaultPlan(lut_drop_fraction=0.5, seed=1)
        sa = RunSpec("mcf", "Heter-config1", "moca", 1000, faults=a)
        sb = RunSpec("mcf", "Heter-config1", "moca", 1000, faults=b)
        assert sa.key() != sb.key()

    def test_describe_carries_fault_label(self):
        spec = RunSpec("mcf", "Heter-config1", "moca", 1000,
                       faults=FaultPlan(offline_role="lat"))
        assert "offline-lat" in spec.describe()


class TestCapacityFaults:
    def test_offline_pool_accepts_nothing(self):
        pool = FramePool(8 * 4096, 0, "p")
        pool.offline()
        assert pool.frames_left == 0
        assert pool.allocate() is None

    def test_shrink_never_revokes_granted_frames(self):
        pool = FramePool(8 * 4096, 0, "p")
        for _ in range(5):
            assert pool.allocate() is not None
        pool.shrink(0.9)  # would leave 0 frames, but 5 are granted
        assert pool.n_frames == 5
        assert pool.frames_left == 0

    def test_immediate_offline_spills_down_chain(self):
        alloc = small_allocator()
        arm_allocator(alloc, FaultPlan(offline_role="lat"))
        group, _ = alloc.allocate_page(0, ObjectType.LAT)
        assert group != 0  # LAT pool is gone; page went down the chain
        assert alloc.stats.spills[ObjectType.LAT] == 1

    def test_triggered_fault_fires_mid_run(self):
        alloc = small_allocator()
        arm_allocator(alloc, FaultPlan(offline_role="lat", trigger_page=2))
        g0, _ = alloc.allocate_page(0, ObjectType.LAT)
        g1, _ = alloc.allocate_page(1, ObjectType.LAT)
        assert g0 == 0 and g1 == 0  # before the trigger: normal service
        g2, _ = alloc.allocate_page(2, ObjectType.LAT)
        assert g2 != 0  # the trigger tripped; pool offline

    def test_out_of_frames_error_payload(self):
        alloc = small_allocator(frames_per_pool=2)
        with pytest.raises(OutOfFramesError) as excinfo:
            for v in range(100):
                alloc.allocate_page(v, ObjectType.BW)
        err = excinfo.value
        assert err.object_type is ObjectType.BW
        assert set(err.occupancy) == {0, 1, 2}
        assert all(used == total for used, total in err.occupancy.values())
        assert isinstance(err, OutOfMemory)  # legacy contract preserved

    def test_overcommit_never_raises(self):
        alloc = small_allocator(frames_per_pool=2)
        for v in range(20):
            try:
                alloc.allocate_page(v, ObjectType.POW)
            except OutOfFramesError:
                alloc.allocate_overcommit(v, ObjectType.POW)
        assert alloc.stats.total_pages == 20
        assert alloc.stats.total_exhausted == 20 - 6
        assert alloc.stats.to_dict()["exhausted"] == 14

    def test_overcommit_skips_offline_pools(self):
        alloc = small_allocator(frames_per_pool=1)
        chain = alloc.chain_for(ObjectType.LAT)
        alloc.pools[chain[-1]].offline()
        for v in range(5):
            try:
                alloc.allocate_page(v, ObjectType.LAT)
            except OutOfFramesError:
                g, _ = alloc.allocate_overcommit(v, ObjectType.LAT)
                assert not alloc.pools[g].is_offline


class TestTimingFaults:
    def test_scaled_timing(self):
        slow = DDR3.scaled(2.0)
        assert slow.tCK_ns == pytest.approx(DDR3.tCK_ns * 2)
        assert slow.tRC_ns == pytest.approx(DDR3.tRC_ns * 2)
        assert slow.tREFI_ns == DDR3.tREFI_ns  # refresh does not relax
        assert slow.n_banks == DDR3.n_banks
        assert slow.tRAS_ns <= slow.tRC_ns

    def test_scaled_rejects_speedup(self):
        with pytest.raises(ValueError):
            DDR3.scaled(0.9)

    def test_apply_system_faults_derates_group(self):
        memsys = HETER_CONFIG1.build()
        before = memsys.group("bw").timing.tCK_ns
        apply_system_faults(memsys, FaultPlan(degrade_role="bw",
                                              degrade_factor=4.0))
        group = memsys.group("bw")
        assert group.timing.tCK_ns == pytest.approx(before * 4)
        assert all(m.timing.tCK_ns == pytest.approx(before * 4)
                   for m in group.modules)
        # the other groups are untouched
        assert memsys.group("lat").timing.tCK_ns < before * 4

    def test_missing_role_is_noop(self):
        memsys = HOMOGEN_DDR3.build()
        before = memsys.group("main").timing.tCK_ns
        apply_system_faults(memsys, FaultPlan(degrade_role="bw",
                                              degrade_factor=4.0))
        assert memsys.group("main").timing.tCK_ns == before

    def test_derate_rejects_geometry_change(self):
        from repro.memdev.presets import HBM
        memsys = HOMOGEN_DDR3.build()
        with pytest.raises(ValueError):
            memsys.group("main").modules[0].derate(HBM)


class TestLutFaults:
    @pytest.fixture(scope="class")
    def profiled(self):
        return profile_app("mcf", n_accesses=8_000)

    def test_drop_is_deterministic_and_nonempty(self, profiled):
        plan = FaultPlan(lut_drop_fraction=0.5)
        a = apply_lut_faults(profiled, plan)
        b = apply_lut_faults(profiled, plan)
        assert sorted(map(str, a.lut.names())) == \
            sorted(map(str, b.lut.names()))
        assert 0 < len(a.lut) < len(profiled.lut)

    def test_drop_leaves_original_untouched(self, profiled):
        n = len(profiled.lut)
        apply_lut_faults(profiled, FaultPlan(lut_drop_fraction=0.9))
        assert len(profiled.lut) == n

    def test_seed_changes_selection(self, profiled):
        a = apply_lut_faults(profiled, FaultPlan(lut_drop_fraction=0.5,
                                                 seed=0))
        b = apply_lut_faults(profiled, FaultPlan(lut_drop_fraction=0.5,
                                                 seed=7))
        assert (sorted(map(str, a.lut.names()))
                != sorted(map(str, b.lut.names())))

    def test_scramble_keeps_names_swaps_stats(self, profiled):
        plan = FaultPlan(lut_scramble_fraction=1.0)
        scrambled = apply_lut_faults(profiled, plan)
        assert sorted(map(str, scrambled.lut.names())) == \
            sorted(map(str, profiled.lut.names()))
        moved = sum(
            1 for name in profiled.lut.names()
            if scrambled.lut.get(name).llc_misses
            != profiled.lut.get(name).llc_misses)
        assert moved >= 2  # a cyclic shift moved at least one pair

    def test_scramble_is_not_applied_in_place(self, profiled):
        snapshot = {str(n): profiled.lut.get(n).llc_misses
                    for n in profiled.lut.names()}
        apply_lut_faults(profiled, FaultPlan(lut_scramble_fraction=1.0))
        assert snapshot == {str(n): profiled.lut.get(n).llc_misses
                            for n in profiled.lut.names()}

    def test_clean_plan_returns_same_object(self, profiled):
        plan = FaultPlan(offline_role="lat")  # no LUT component
        assert apply_lut_faults(profiled, plan) is profiled


class TestEndToEnd:
    N = 8_000

    def test_offline_lat_degrades_but_completes(self):
        clean = run(RunSpec("mcf", "Heter-config1", "moca", self.N))
        faulted = run(RunSpec("mcf", "Heter-config1", "moca", self.N,
                              faults=FaultPlan(offline_role="lat")))
        assert faulted.exec_cycles > 0
        c = clean.meta["placement"]
        f = faulted.meta["placement"]
        assert f["spill_rate"] >= c["spill_rate"]
        assert f["pages"] == c["pages"]  # every page still got a frame
        assert faulted.meta["faults"]["label"] == "offline-lat"

    def test_faulted_run_is_reproducible(self):
        spec = RunSpec("mcf", "Heter-config1", "moca", self.N,
                       faults=FaultPlan(lut_scramble_fraction=0.5))
        a, b = run(spec).to_dict(), run(spec).to_dict()
        a["meta"].pop("created_utc")
        b["meta"].pop("created_utc")
        assert a == b

    def test_clean_run_records_no_fault_meta(self):
        m = run(RunSpec("mcf", "Homogen-DDR3", "homogen", self.N))
        assert "faults" not in m.meta
        assert m.meta["placement"]["pages"] > 0

    def test_extreme_shrink_overcommits_instead_of_crashing(self):
        # Shrink every pool's role target hard; with only the pow pool
        # shrunk the other groups absorb the pages, so push further by
        # offlining bw too via a combined plan.
        plan = FaultPlan(shrink_role="pow", shrink_fraction=1.0,
                         offline_role="bw")
        m = run(RunSpec("mcf", "Heter-config1", "heter-app", self.N,
                        faults=plan))
        placement = m.meta["placement"]
        assert placement["pages"] > 0
        assert m.exec_cycles > 0
