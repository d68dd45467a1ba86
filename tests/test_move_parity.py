"""Batched service page moves against a page-by-page oracle.

:meth:`GuidanceService._apply_move` decides each page's destination in
page order but looks pages up, remaps them and charges their copies once
per object.  The oracle below is the loop it replaced: every page is
looked up, charged through :func:`charge_page_copy`, remapped and freed
on its own.  Both must leave identical page tables, pool free lists and
bump pointers, budgets, :class:`MigrationStats`, module bus and byte
counters, :class:`AllocationStats`, ``service.*``/``alloc.*`` counters
and return values — over pools with LIFO pre-freed frames, full and
offline pools, forced and unforced requests, budgets that run out in the
middle of an object, and overcommit.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memctrl.system import ChannelGroup, MemorySystem
from repro.memdev.presets import HBM, LPDDR2, RLDRAM3
from repro.moca.lut import ProfileLUT
from repro.obs.registry import OBS
from repro.service import GuidanceService, OnlineSpec
from repro.service.budget import MoveRequest
from repro.trace.events import PAGE_BYTES, VirtualLayout
from repro.util.units import MIB
from repro.vm.allocator import OSPageAllocator
from repro.vm.heap import ObjectType
from repro.vm.migration import charge_page_copy
from repro.vm.pagetable import PageTable
from repro.vm.physmem import FramePool

TYPES = (ObjectType.LAT, ObjectType.BW, ObjectType.POW)
DEVICES = (RLDRAM3, HBM, LPDDR2)
ROLE_SETS = ({"lat": 0, "bw": 1, "pow": 2}, {"lat": 0, "pow": 1})


# ---- oracle -----------------------------------------------------------------


class ReferenceService(GuidanceService):
    """The service with the page-at-a-time move loop."""

    def _apply_move(self, tenant, req, budget):
        allocator = tenant.allocator
        pt = allocator.page_table
        pools = allocator.pools
        chain = allocator.chain_for(req.target)
        shoot = self.spec.shootdown_cycles
        copy = [g.timing.transfer_cycles(PAGE_BYTES)
                for g in tenant.memsys.groups]
        overhead = 0
        pages_moved = 0
        for key in tenant.object_pages(req.obj_id):
            cur_group, cur_frame = pt.lookup(key)
            cur_offline = pools[cur_group].is_offline
            if req.forced and not cur_offline:
                continue
            dst = None
            frame = None
            for g in chain:
                if g == cur_group:
                    if not cur_offline:
                        break
                    continue
                f = pools[g].allocate()
                if f is not None:
                    dst, frame = g, f
                    break
            if dst is None:
                if not cur_offline:
                    continue
                dst = next((g for g in reversed(chain)
                            if not pools[g].is_offline), chain[-1])
                frame = pools[dst].allocate_overcommit()
                allocator.stats.exhausted[req.target] += 1
                if OBS.enabled:
                    OBS.add(f"alloc.overcommit.{req.target.name}")
            cost = copy[cur_group] + copy[dst] + shoot
            if not budget.can_move_page(cost):
                pools[dst].free(frame)
                return (overhead, pages_moved), True
            charge_page_copy(tenant.memsys, tenant.migration,
                             cur_group, dst, shoot)
            budget.charge_page(cost)
            pt.remap(key, dst, frame)
            pools[cur_group].free(cur_frame)
            overhead += cost
            pages_moved += 1
            tenant.migration.n_migrations += 1
        return (overhead, pages_moved), False


class _Classifier:
    def classify(self, luts, budget):
        return [{}]


# ---- worlds -----------------------------------------------------------------


def build(world, service_cls):
    """One tenant over the world's pools, objects placed by type."""
    roles, sizes, prefill, objects, offline, spec = world
    memsys = MemorySystem({
        role: ChannelGroup(DEVICES[g], 1, 64 * MIB, name=role)
        for role, g in roles.items()})
    pools = {}
    for g, n in enumerate(sizes):
        pool = FramePool(n * PAGE_BYTES, g)
        frames = [pool.allocate() for _ in range(prefill[g][0])]
        for i in prefill[g][1]:
            pool.free(frames[i])
        pools[g] = pool
    alloc = OSPageAllocator(pools, roles, PageTable())
    layout = VirtualLayout()
    types = {}
    for i, (n_pages, t) in enumerate(objects):
        obj = layout.place(f"o{i}", n_pages * PAGE_BYTES, site=i + 1)
        alloc.allocate_pages(obj.pages(), TYPES[t], overcommit=True)
        types[obj.obj_id] = TYPES[t]
    for g in offline:
        pools[g].offline()
    service = service_cls(spec)
    tenant = service.register("app", allocator=alloc, memsys=memsys,
                              layout=layout, lut=ProfileLUT(),
                              classifier=_Classifier(), types=types)
    return service, tenant


def state(tenant, drains):
    alloc = tenant.allocator
    return {
        "snapshot": alloc.page_table.snapshot(),
        "pools": {g: (p._next, list(p._free), p.n_allocated,
                      p.n_overcommitted, p.is_offline)
                  for g, p in alloc.pools.items()},
        "migration": tenant.migration,
        "modules": [(m.bus_busy_cycles, m.bytes_transferred)
                    for grp in tenant.memsys.groups for m in grp.modules],
        "alloc": (alloc.stats.placed, alloc.stats.spills,
                  alloc.stats.exhausted),
        "service": tenant.stats.to_dict(),
        "types": tenant.current_types,
        "queue": len(tenant.queue),
        "counters": {k: v for k, v in OBS.counters.items()
                     if k.startswith(("service.", "alloc."))},
        "drains": drains,
    }


def run(world, requests, service_cls):
    """Place, queue the requests, drain three epochs; returns the state."""
    OBS.reset().enable()
    try:
        service, tenant = build(world, service_cls)
        for obj_id, t, forced in requests:
            tenant.queue.push(MoveRequest(obj_id=obj_id, target=TYPES[t],
                                          heat=float(obj_id),
                                          forced=forced))
        drains = [service._drain_moves(tenant, epoch) for epoch in range(3)]
        return state(tenant, drains)
    finally:
        OBS.reset().disable()


@st.composite
def worlds(draw):
    roles = draw(st.sampled_from(ROLE_SETS))
    n_groups = len(roles)
    sizes = draw(st.lists(st.integers(1, 60), min_size=n_groups,
                          max_size=n_groups))
    prefill = []
    for n in sizes:
        taken = draw(st.integers(0, n // 2))
        order = draw(st.lists(st.integers(0, taken - 1), unique=True)) \
            if taken else []
        prefill.append((taken, order))
    objects = draw(st.lists(st.tuples(st.integers(1, 24), st.integers(0, 2)),
                            min_size=1, max_size=5))
    offline = draw(st.lists(st.integers(0, n_groups - 1), unique=True,
                            max_size=n_groups - 1))
    spec = OnlineSpec(max_pages_per_epoch=draw(st.integers(1, 40)),
                      max_cycles_per_epoch=draw(st.integers(2_000, 60_000)),
                      shootdown_cycles=draw(st.sampled_from([0, 1_000])))
    world = (roles, sizes, prefill, objects, offline, spec)
    # One request per object (the queue keeps only an object's last);
    # id len(objects) names no object.
    requests = draw(st.lists(
        st.tuples(st.integers(0, len(objects)), st.integers(0, 2),
                  st.booleans()), min_size=1, max_size=6,
        unique_by=lambda r: r[0]))
    return world, requests


# ---- tests ------------------------------------------------------------------


class TestMoveParity:
    @given(worlds())
    @settings(max_examples=200, deadline=None)
    def test_batched_moves_match_page_oracle(self, case):
        world, requests = case
        assert run(world, requests, GuidanceService) == \
            run(world, requests, ReferenceService)

    def test_cut_mid_object_charges_and_remaps_moved_pages_only(self):
        spec = OnlineSpec(max_pages_per_epoch=3)
        world = ({"lat": 0, "pow": 1}, [20, 30], [(0, []), (0, [])],
                 [(8, 2)], [], spec)
        got = run(world, [(0, 0, False)], GuidanceService)
        assert got == run(world, [(0, 0, False)], ReferenceService)
        assert [d[1] for d in got["drains"]] == [3, 3, 2]
        assert got["migration"].n_migrations == 8

    @pytest.mark.parametrize("forced", [False, True])
    def test_offline_source_overcommits(self, forced):
        """Every pool but a dead one is full: stranded pages overcommit."""
        world = ({"lat": 0, "bw": 1, "pow": 2}, [4, 2, 6],
                 [(0, []), (2, []), (0, [])], [(4, 2), (6, 2)], [2],
                 OnlineSpec())
        req = [(0, 0, forced), (1, 1, forced)]
        got = run(world, req, GuidanceService)
        assert got == run(world, req, ReferenceService)
        assert got["alloc"][2][ObjectType.BW] > 0
        assert any(p[3] for p in got["pools"].values())

    def test_frame_freed_earlier_in_object_is_reused(self):
        """A page vacating a frame frees it before the next page walks the
        chain: that page may take it (so frees cannot be batched)."""
        world = ({"lat": 0, "bw": 1, "pow": 2}, [1, 2, 10],
                 [(0, []), (0, []), (0, [])], [(4, 1)], [], OnlineSpec())
        got = run(world, [(0, 0, False)], GuidanceService)
        assert got == run(world, [(0, 0, False)], ReferenceService)
        # Page 0 moves bw -> lat; page 2 then takes its bw frame.
        assert got["snapshot"][0][1:] == (0, 0)
        assert got["snapshot"][2][1:] == (1, 0)
        assert got["migration"].n_migrations == 2
