"""Run-granular placement against a page-by-page oracle.

:func:`repro.moca.allocation.plan_placement` hands each object's whole
extent to :meth:`OSPageAllocator.allocate_pages` as one run.  The oracle
below is the page-at-a-time loop it replaced: every page walks its
type's chain through the scalar :meth:`FramePool.allocate`, degrades to
overcommit when every pool is full, and counts toward a capacity-fault
trigger that fires once ``trigger_page`` pages have been offered, before
the next one is placed.  Both
must leave identical page tables, allocation statistics, pool state,
``alloc.*``/``fault.*`` counters and warnings — over random multi-core
layouts, demand-paged streams, pool sizes, pre-freed frames, boot-time
and mid-placement faults, and full exhaustion.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.hierarchy import MissStream
from repro.faults.inject import _apply_pool_faults, arm_allocator
from repro.faults.plan import FaultPlan
from repro.moca.allocation import CORE_STRIDE, MocaPolicy, plan_placement
from repro.obs.registry import OBS
from repro.trace.events import PAGE_BYTES, VirtualLayout
from repro.vm.allocator import OSPageAllocator
from repro.vm.heap import ObjectType
from repro.vm.pagetable import PageTable
from repro.vm.physmem import FramePool

ROLE_SETS = (
    {"lat": 0, "bw": 1, "pow": 2},
    {"lat": 0, "pow": 1},
    {"main": 0},
    {"lat": 0, "bw": 1},          # no "pow" role
)
TYPES = (ObjectType.LAT, ObjectType.BW, ObjectType.POW)


# ---- oracle -----------------------------------------------------------------


def _objects(streams, policy, layouts):
    """Objects in allocation order, each with its page list."""
    objects = []
    if layouts is not None:
        for core, layout in enumerate(layouts):
            for region in layout.all_regions():
                prio = policy.object_priority(core, region.obj_id)
                objects.append((prio, region.obj_id, core,
                                list(region.pages())))
    else:
        for core, stream in enumerate(streams):
            if len(stream) == 0:
                continue
            vpages = stream.vline // PAGE_BYTES
            uniq, first_idx = np.unique(vpages, return_index=True)
            owners = stream.obj_id[first_idx]
            for obj in np.unique(owners):
                mask = owners == obj
                order = np.argsort(first_idx[mask], kind="stable")
                pages = uniq[mask][order]
                prio = policy.object_priority(core, int(obj))
                objects.append((prio, int(obj), core, pages.tolist()))
    objects.sort(key=lambda t: (t[0], t[1], t[2]))
    return objects


def reference_plan(streams, policy, allocator, layouts, plan: FaultPlan):
    """Page-at-a-time placement: one chain walk per page."""
    fired = plan.trigger_page <= 0
    if fired and plan.has_capacity_fault:
        _apply_pool_faults(allocator, plan)
    offered = 0
    pt = allocator.page_table
    stats = allocator.stats
    warned = False
    for _, obj, core, pages in _objects(streams, policy, layouts):
        typ = policy.object_type(core, obj)
        chain = allocator.chain_for(typ)
        base = core * (CORE_STRIDE // PAGE_BYTES)
        for vpage in pages:
            offered += 1
            if not fired and offered > plan.trigger_page:
                fired = True
                _apply_pool_faults(allocator, plan)
            for i, group in enumerate(chain):
                frame = allocator.pools[group].allocate()
                if frame is not None:
                    pt.map_page(base + vpage, group, frame)
                    stats.record(typ, group, spilled=i > 0)
                    OBS.add(f"alloc.placed.{typ.name}")
                    if i > 0:
                        OBS.add(f"alloc.spill.{typ.name}")
                    break
            else:
                OBS.add(f"alloc.oom.{typ.name}")
                if not warned:
                    warned = True
                    OBS.warn(f"placement: all frame pools exhausted placing "
                             f"{typ.name} pages; overcommitting (degraded run)")
                target = next((g for g in reversed(chain)
                               if not allocator.pools[g].is_offline),
                              chain[-1])
                frame = allocator.pools[target].allocate_overcommit()
                pt.map_page(base + vpage, target, frame)
                stats.record(typ, target, spilled=True)
                stats.exhausted[typ] += 1
                OBS.add(f"alloc.overcommit.{typ.name}")
    groups, gaddrs = [], []
    for core, stream in enumerate(streams):
        if len(stream) == 0:
            groups.append(np.empty(0, dtype=np.int32))
            gaddrs.append(np.empty(0, dtype=np.int64))
            continue
        g, a = pt.translate_lines(stream.vline + core * CORE_STRIDE)
        groups.append(g)
        gaddrs.append(a)
    return groups, gaddrs


# ---- worlds -----------------------------------------------------------------


def make_allocator(sizes, roles, prefill):
    """Pools of ``sizes`` frames.  ``prefill[g] = (taken, order)``: pool
    ``g`` hands out ``taken`` frames, then frees the ``order``-th of them
    in that order (so its free list is LIFO-ordered)."""
    pools = {}
    for g, n in enumerate(sizes):
        pool = FramePool(n * PAGE_BYTES, g, f"pool{g}")
        taken, order = prefill[g]
        frames = [pool.allocate() for _ in range(taken)]
        for i in order:
            pool.free(frames[i])
        pools[g] = pool
    return OSPageAllocator(pools, roles, PageTable())


def make_layouts(cores):
    layouts = []
    for segs, sizes in cores:
        layout = VirtualLayout(stack_bytes=segs[0] * PAGE_BYTES,
                               code_bytes=segs[1] * PAGE_BYTES,
                               global_bytes=segs[2] * PAGE_BYTES)
        for i, n in enumerate(sizes):
            layout.place(f"o{i}", n * PAGE_BYTES - 7, site=i + 1)
        layouts.append(layout)
    return layouts


def make_streams(cores):
    streams = []
    for records in cores:
        n = len(records)
        streams.append(MissStream(
            inst=np.arange(1, n + 1, dtype=np.int64) * 10,
            vline=np.asarray([p * PAGE_BYTES + 64 * (i % 64)
                              for i, (p, _) in enumerate(records)],
                             dtype=np.int64),
            obj_id=np.asarray([o for _, o in records], dtype=np.int32),
            dep=np.zeros(n, dtype=bool),
            kind=np.zeros(n, dtype=np.int8),
            total_instructions=n * 10 + 10))
    return streams


def _streams_for_layouts(layouts):
    """One record per page of every region, so translation covers all."""
    cores = []
    for layout in layouts:
        records = [(vp, r.obj_id) for r in layout.all_regions()
                   for vp in r.pages()]
        cores.append(records[::-1])
    return make_streams(cores)


def _policy(n_cores, types, heat):
    obj_types = [{o: TYPES[t % 3] for o, t in enumerate(types)}
                 for _ in range(n_cores)]
    obj_heat = [{o: float(h) for o, h in enumerate(heat)}
                for _ in range(n_cores)]
    return MocaPolicy(obj_types, obj_heat)


def _pool_state(allocator):
    return {g: (p._next, list(p._free), p.n_allocated, p.n_overcommitted,
                p.n_frames, p.is_offline)
            for g, p in allocator.pools.items()}


def _counters():
    return {k: v for k, v in OBS.counters.items()
            if k.startswith(("alloc.", "fault."))}


def _warnings():
    return [e.args["message"] for e in OBS.events if e.name == "warning"]


def check_parity(sizes, roles, prefill, streams, policy, layouts, plan):
    """Run both planners on twin worlds; returns the run-path allocator."""
    OBS.reset().enable()
    try:
        ref = make_allocator(sizes, roles, prefill)
        ref_groups, ref_gaddrs = reference_plan(streams, policy, ref,
                                                layouts, plan)
        ref_counters, ref_warnings = _counters(), _warnings()
        OBS.reset().enable()
        alloc = make_allocator(sizes, roles, prefill)
        arm_allocator(alloc, plan)
        out = plan_placement(streams, policy, alloc, layouts=layouts)
        counters, warnings = _counters(), _warnings()
    finally:
        OBS.reset().disable()
    assert alloc.page_table.snapshot() == ref.page_table.snapshot()
    for got, want in zip(out.groups + out.gaddrs, ref_groups + ref_gaddrs):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert alloc.stats.placed == ref.stats.placed
    assert alloc.stats.spills == ref.stats.spills
    assert alloc.stats.exhausted == ref.stats.exhausted
    assert _pool_state(alloc) == _pool_state(ref)
    assert counters == ref_counters
    assert warnings == ref_warnings
    assert len(warnings) == (1 if alloc.stats.total_exhausted else 0)
    return alloc


# ---- strategies -------------------------------------------------------------


@st.composite
def worlds(draw, demand: bool):
    roles = draw(st.sampled_from(ROLE_SETS))
    # Sometimes one more pool than roles: a role-less last resort.
    n_groups = max(roles.values()) + 1 + draw(st.integers(0, 1))
    sizes = draw(st.lists(st.integers(1, 40), min_size=n_groups,
                          max_size=n_groups))
    prefill = []
    for n in sizes:
        taken = draw(st.integers(0, n))
        order = draw(st.lists(st.integers(0, taken - 1), unique=True)) \
            if taken else []
        prefill.append((taken, order))
    n_cores = draw(st.integers(1, 3))
    n_objs = draw(st.integers(1, 5))
    types = draw(st.lists(st.integers(0, 2), min_size=n_objs,
                          max_size=n_objs))
    heat = draw(st.lists(st.integers(0, 3), min_size=n_objs,
                         max_size=n_objs))
    policy = _policy(n_cores, types, heat)
    if demand:
        cores = [draw(st.lists(st.tuples(st.integers(0, 120),
                                         st.integers(-3, n_objs - 1)),
                               max_size=150))
                 for _ in range(n_cores)]
        streams, layouts = make_streams(cores), None
        total = sum(len({p for p, _ in c}) for c in cores)
    else:
        cores = [(draw(st.tuples(*[st.integers(1, 4)] * 3)),
                  draw(st.lists(st.integers(1, 30), min_size=n_objs,
                                max_size=n_objs)))
                 for _ in range(n_cores)]
        layouts = make_layouts(cores)
        streams = _streams_for_layouts(layouts)
        total = sum(len(r.pages()) for lay in layouts
                    for r in lay.all_regions())
    fault = draw(st.sampled_from(["none", "boot", "mid", "boundary"]))
    role = draw(st.sampled_from(sorted(roles)))
    kind = draw(st.sampled_from(["offline", "shrink"]))
    if fault == "none":
        plan = FaultPlan()
    else:
        if fault == "boot":
            trigger = 0
        elif fault == "mid":
            trigger = draw(st.integers(1, total + 1))
        else:
            ends = np.cumsum([len(p) for *_, p in
                              _objects(streams, policy, layouts)]).tolist()
            trigger = draw(st.sampled_from(ends or [1]))
        if kind == "offline":
            plan = FaultPlan(offline_role=role, trigger_page=trigger)
        else:
            frac = draw(st.sampled_from([0.25, 0.5, 0.9, 1.0]))
            plan = FaultPlan(shrink_role=role, shrink_fraction=frac,
                             trigger_page=trigger)
    return sizes, roles, prefill, streams, policy, layouts, plan


# ---- tests ------------------------------------------------------------------


class TestPlacementParity:
    @given(worlds(demand=False))
    @settings(max_examples=150, deadline=None)
    def test_layout_runs_match_page_oracle(self, world):
        check_parity(*world)

    @given(worlds(demand=True))
    @settings(max_examples=150, deadline=None)
    def test_demand_paged_runs_match_page_oracle(self, world):
        check_parity(*world)


class TestNonVacuity:
    """The parity suite's interesting paths demonstrably happen."""

    def _layout_world(self, sizes, plan, roles=ROLE_SETS[0]):
        layouts = make_layouts([((1, 2, 1), [12, 5, 20]),
                                ((2, 1, 1), [7, 9, 3])])
        policy = _policy(2, [0, 1, 2], [3, 0, 1])
        return (sizes, roles, [(3, [2, 0]), (0, []), (2, [1])],
                _streams_for_layouts(layouts), policy, layouts, plan)

    def test_spills_and_overcommit_occur(self):
        alloc = check_parity(*self._layout_world([6, 8, 10], FaultPlan()))
        assert alloc.stats.total_spills > 0
        assert alloc.stats.total_exhausted > 0
        assert any(p.n_overcommitted for p in alloc.pools.values())

    @pytest.mark.parametrize("plan", [
        FaultPlan(offline_role="lat", trigger_page=9),
        FaultPlan(shrink_role="pow", shrink_fraction=0.5, trigger_page=30),
    ])
    def test_trigger_splits_a_run(self, plan):
        world = self._layout_world([20, 30, 40], plan)
        _, _, _, streams, policy, layouts, _ = world
        ends = np.cumsum([len(p) for *_, p in
                          _objects(streams, policy, layouts)]).tolist()
        assert plan.trigger_page not in ends   # strictly inside a run
        assert plan.trigger_page < ends[-1]
        alloc = check_parity(*world)
        fired_pools = {g for g, p in alloc.pools.items()
                         if p.is_offline or p.n_frames < [20, 30, 40][g]}
        assert fired_pools  # the fault fired during placement

    def test_offline_everything_overcommits_all(self):
        plan = FaultPlan(offline_role="main")
        layouts = make_layouts([((1, 1, 1), [4])])
        alloc = check_parity([3], ROLE_SETS[2], [(0, [])],
                             _streams_for_layouts(layouts),
                             _policy(1, [0], [0]), layouts, plan)
        assert alloc.stats.total_exhausted == alloc.stats.total_pages == 7
