"""Tests for the profiler, framework, and placement policies."""

import numpy as np
import pytest

from repro.cpu.hierarchy import CacheHierarchy, SEG_STACK
from repro.moca.allocation import (
    CORE_STRIDE,
    HeterAppPolicy,
    HomogeneousPolicy,
    MocaPolicy,
    plan_placement,
)
from repro.moca.classify import Thresholds
from repro.moca.framework import MocaFramework
from repro.moca.profiler import (
    MemoryObjectProfiler,
    default_profiling_system,
    profile_app,
)
from repro.moca.naming import name_from_site
from repro.trace.builder import ObjectBehavior, TraceBuilder
from repro.trace.events import PAGE_BYTES
from repro.util.rng import stream
from repro.util.units import KIB, MIB
from repro.vm.allocator import OSPageAllocator
from repro.vm.heap import ObjectType
from repro.vm.pagetable import PageTable
from repro.vm.physmem import FramePool


@pytest.fixture
def profiled(tiny_trace):
    return MemoryObjectProfiler().profile_trace(tiny_trace, "tinyapp")


class TestProfiler:
    def test_every_heap_object_in_lut(self, profiled, tiny_trace):
        assert len(profiled.lut) == len(tiny_trace.layout.objects)

    def test_names_derived_from_sites(self, profiled):
        assert profiled.lut.get(name_from_site(1)) is not None
        assert profiled.lut.get(name_from_site(2)) is not None

    def test_chase_object_has_high_stall(self, profiled):
        chase = profiled.lut.get(name_from_site(1))
        streamy = profiled.lut.get(name_from_site(2))
        assert chase.stall_per_load_miss > streamy.stall_per_load_miss

    def test_hot_object_low_mpki(self, profiled):
        hot = profiled.lut.get(name_from_site(3))
        chase = profiled.lut.get(name_from_site(1))
        assert hot.llc_mpki < chase.llc_mpki / 5

    def test_sizes_recorded(self, profiled, tiny_trace):
        for obj in tiny_trace.layout.objects:
            assert profiled.lut.get(name_from_site(obj.site)).size_bytes \
                == obj.size_bytes

    def test_aggregates_match_lut(self, profiled):
        mpki, spm = profiled.lut.totals()
        assert profiled.app_mpki == pytest.approx(mpki)
        assert profiled.app_stall_per_miss == pytest.approx(spm)

    def test_profile_app_memoized(self):
        a = profile_app("sift", "train", 10_000)
        b = profile_app("sift", "train", 10_000)
        assert a is b

    def test_default_profiling_system_is_ddr3(self):
        sys = default_profiling_system()
        assert len(sys.groups) == 1
        assert sys.groups[0].timing.name == "DDR3"
        assert sys.groups[0].n_channels == 4


class TestFramework:
    def test_instrument_types_every_object(self, profiled):
        fw = MocaFramework()
        inst = fw.instrument("tinyapp", profiled)
        assert len(inst.types) == len(profiled.lut)

    def test_expected_classes(self, profiled):
        fw = MocaFramework()
        inst = fw.instrument("tinyapp", profiled)
        assert inst.type_of_site(1) == ObjectType.LAT    # chase
        assert inst.type_of_site(2) == ObjectType.BW     # stream
        assert inst.type_of_site(3) == ObjectType.POW    # hotspot

    def test_unprofiled_site_is_none(self, profiled):
        inst = MocaFramework().instrument("tinyapp", profiled)
        assert inst.type_of_site(999) is None

    def test_thresholds_change_classes(self, profiled):
        strict = MocaFramework(thresholds=Thresholds(thr_lat=1e9))
        inst = strict.instrument("tinyapp", profiled)
        assert all(t == ObjectType.POW for t in inst.types.values())

    def test_runtime_types_resolve_by_site(self, profiled, tiny_trace):
        fw = MocaFramework()
        inst = fw.instrument("tinyapp", profiled)
        types = fw.runtime_types(inst, tiny_trace.layout)
        assert types[0] == ObjectType.LAT
        assert types[1] == ObjectType.BW

    def test_runtime_heat_positive_for_hot(self, profiled, tiny_trace):
        fw = MocaFramework()
        inst = fw.instrument("tinyapp", profiled)
        heat = fw.runtime_heat(inst, tiny_trace.layout)
        assert heat[0] > 0

    def test_partition_histogram(self, profiled):
        inst = MocaFramework().instrument("tinyapp", profiled)
        hist = inst.partition_histogram()
        assert sum(hist.values()) == len(inst.types)


def _allocator(caps, roles):
    pools = {i: FramePool(c, group=i) for i, c in enumerate(caps)}
    return OSPageAllocator(pools, roles, PageTable())


HETERO_ROLES = {"lat": 0, "bw": 1, "pow": 2}


class TestPolicies:
    def test_homogeneous_single_group(self, tiny_stream):
        alloc = _allocator([64 * MIB], {"main": 0})
        plan = plan_placement([tiny_stream], HomogeneousPolicy(), alloc)
        assert (plan.groups[0] == 0).all()

    def test_heter_app_routes_whole_app(self, tiny_stream):
        alloc = _allocator([64 * MIB] * 3, HETERO_ROLES)
        plan = plan_placement([tiny_stream],
                              HeterAppPolicy([ObjectType.LAT]), alloc)
        assert (plan.groups[0] == 0).all()

    def test_heter_app_needs_types(self):
        with pytest.raises(ValueError):
            HeterAppPolicy([])

    def test_moca_routes_by_object(self, tiny_stream):
        policy = MocaPolicy([{0: ObjectType.LAT, 1: ObjectType.BW}])
        alloc = _allocator([64 * MIB] * 3, HETERO_ROLES)
        plan = plan_placement([tiny_stream], policy, alloc)
        g = plan.groups[0]
        obj = tiny_stream.obj_id
        assert (g[obj == 0] == 0).all()
        assert (g[obj == 1] == 1).all()
        assert (g[obj == 2] == 2).all()   # unmapped -> POW
        assert (g[obj == SEG_STACK] == 2).all()

    def test_moca_heat_priority_wins_contended_module(self, tiny_stream,
                                                      tiny_trace):
        """With RL big enough for only one object, the hotter one gets it."""
        types = [{0: ObjectType.LAT, 1: ObjectType.LAT}]
        small_rl = 5 * MIB  # each object is ~4 MiB
        cold_first = MocaPolicy(types, [{0: 0.1, 1: 5.0}])
        alloc = _allocator([small_rl, 64 * MIB, 64 * MIB], HETERO_ROLES)
        plan = plan_placement([tiny_stream], cold_first, alloc,
                              layouts=[tiny_trace.layout])
        g = plan.groups[0]
        obj = tiny_stream.obj_id
        assert (g[obj == 1] == 0).all()      # hotter object in RL
        assert (g[obj == 0] == 1).mean() > 0.5  # colder spilled to HBM

    def test_moca_heat_must_parallel_types(self):
        with pytest.raises(ValueError):
            MocaPolicy([{}], [{}, {}])

    def test_instantiation_order_ties(self, tiny_stream, tiny_trace):
        """Without priorities, earlier-instantiated objects claim the
        contended module (the Heter-App failure mode of Sec. VI-A)."""
        policy = HeterAppPolicy([ObjectType.LAT])
        alloc = _allocator([5 * MIB, 64 * MIB, 64 * MIB], HETERO_ROLES)
        plan = plan_placement([tiny_stream], policy, alloc,
                              layouts=[tiny_trace.layout])
        g = plan.groups[0]
        obj = tiny_stream.obj_id
        assert (g[obj == 0] == 0).all()       # first object holds RL
        assert (g[obj == 1] == 1).mean() > 0.5

    def test_eager_layout_allocation_consumes_extents(self, tiny_stream,
                                                      tiny_trace):
        alloc = _allocator([256 * MIB], {"main": 0})
        plan_placement([tiny_stream], HomogeneousPolicy(), alloc,
                       layouts=[tiny_trace.layout])
        expected = sum(len(r.pages()) for r in tiny_trace.layout.all_regions())
        assert alloc.stats.total_pages == expected

    def test_demand_mode_only_touched_pages(self, tiny_stream):
        alloc = _allocator([256 * MIB], {"main": 0})
        plan_placement([tiny_stream], HomogeneousPolicy(), alloc)
        touched = len(np.unique(tiny_stream.vline // PAGE_BYTES))
        assert alloc.stats.total_pages == touched

    def test_multicore_streams_isolated(self, tiny_stream):
        alloc = _allocator([512 * MIB], {"main": 0})
        plan = plan_placement([tiny_stream, tiny_stream],
                              HomogeneousPolicy(), alloc)
        # Same virtual addresses on two cores map to distinct frames.
        assert not np.array_equal(plan.gaddrs[0], plan.gaddrs[1])

    def test_layouts_length_checked(self, tiny_stream, tiny_trace):
        alloc = _allocator([256 * MIB], {"main": 0})
        with pytest.raises(ValueError):
            plan_placement([tiny_stream], HomogeneousPolicy(), alloc,
                           layouts=[tiny_trace.layout, tiny_trace.layout])

    def test_empty_streams_rejected(self):
        alloc = _allocator([MIB], {"main": 0})
        with pytest.raises(ValueError):
            plan_placement([], HomogeneousPolicy(), alloc)

    def test_core_stride_large_enough(self):
        assert CORE_STRIDE > (1 << 47)  # above the stack top
