"""Tests for the online guidance service (``repro.service``).

The hypothesis tests pin the service's three safety invariants from the
module contract: the per-epoch migration budget is never exceeded, two
opposing moves of one object never land within the cooldown window, and
a rejected (missing/short/corrupt) epoch leaves the page table — and
every estimator — byte-identical.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memctrl.system import ChannelGroup, MemorySystem
from repro.memdev.presets import LPDDR2, RLDRAM3
from repro.moca.lut import ObjectProfile, ProfileLUT
from repro.moca.naming import name_from_site
from repro.service import GuidanceService, OnlineSpec, degrade_sample
from repro.service.budget import DeferredMoveQueue, EpochBudget, MoveRequest
from repro.service.detector import PhaseChangeDetector
from repro.service.hysteresis import HysteresisGate
from repro.service.samples import EpochSample, ObjectSample, SampleGuard
from repro.faults.plan import FaultPlan
from repro.trace.events import PAGE_BYTES, VirtualLayout
from repro.util.units import MIB
from repro.vm.allocator import OSPageAllocator
from repro.vm.heap import ObjectType
from repro.vm.pagetable import PageTable
from repro.vm.physmem import FramePool


class ScriptedClassifier:
    """Classifier whose output the test scripts directly."""

    def __init__(self):
        self.assignment = {}

    def classify(self, luts, budget):
        return [dict(self.assignment)]


def make_world(spec, n_objs=3, pages_per_obj=4):
    """A tenant over a two-group system with every object born in POW."""
    memsys = MemorySystem({
        "lat": ChannelGroup(RLDRAM3, 1, 1 * MIB, name="RL"),
        "pow": ChannelGroup(LPDDR2, 1, 64 * MIB, name="LP"),
    })
    pools = {0: FramePool(1 * MIB, 0), 1: FramePool(64 * MIB, 1)}
    alloc = OSPageAllocator(pools, {"lat": 0, "pow": 1}, PageTable())
    layout = VirtualLayout()
    lut = ProfileLUT()
    types = {}
    for i in range(n_objs):
        obj = layout.place(f"obj{i}", pages_per_obj * PAGE_BYTES, site=i + 1)
        for vp in obj.pages():
            alloc.allocate_page(vp, ObjectType.POW)
        # Baseline profile: mpki 5, stall/miss 40, write frac 0.1.
        lut.register(ObjectProfile(
            name=name_from_site(obj.site), label=f"obj{i}",
            size_bytes=obj.size_bytes, accesses=1000, writes=100,
            llc_misses=5000, load_misses=1000, stall_cycles=40_000,
            kilo_instructions=1000.0))
        types[obj.obj_id] = ObjectType.POW
    classifier = ScriptedClassifier()
    service = GuidanceService(spec)
    tenant = service.register(
        "app", allocator=alloc, memsys=memsys, layout=layout, lut=lut,
        classifier=classifier, types=types,
        heat={i: float(n_objs - i) for i in range(n_objs)})
    return service, tenant, classifier


def healthy_sample(epoch, tenant, mpki=5, records=1000):
    """A valid sample reproducing each object's baseline behaviour."""
    objects = {
        obj_id: ObjectSample(obj_id, misses=mpki, load_misses=max(1, mpki),
                             stall_cycles=mpki * 40,
                             writes=max(0, mpki // 10))
        for obj_id in tenant.placements()
    }
    return EpochSample(epoch=epoch, instructions=1000, n_records=records,
                       objects=objects)


def assignment_for(tenant, target):
    return {name: target for name in tenant._objs_of_name}


# ---- hypothesis invariants ---------------------------------------------------


class TestServiceInvariants:
    @given(max_pages=st.integers(1, 16),
           max_cycles=st.integers(2_000, 200_000),
           flips=st.lists(st.booleans(), min_size=4, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_epoch_budget_never_exceeded(self, max_pages, max_cycles, flips):
        spec = OnlineSpec(hysteresis_epochs=1, cooldown_epochs=0,
                          warmup_epochs=0, min_epoch_records=1,
                          max_pages_per_epoch=max_pages,
                          max_cycles_per_epoch=max_cycles)
        service, tenant, cls = make_world(spec, n_objs=4, pages_per_obj=8)
        for epoch, flip in enumerate(flips):
            target = ObjectType.LAT if flip else ObjectType.POW
            cls.assignment = assignment_for(tenant, target)
            d = service.end_epoch(tenant, healthy_sample(epoch, tenant))
            assert d.pages_moved <= max_pages
            assert d.overhead_cycles <= max_cycles

    @given(schedule=st.lists(st.booleans(), min_size=6, max_size=24),
           cooldown=st.integers(0, 4), k=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_no_opposing_moves_within_cooldown(self, schedule, cooldown, k):
        spec = OnlineSpec(hysteresis_epochs=k, cooldown_epochs=cooldown,
                          warmup_epochs=0, min_epoch_records=1)
        service, tenant, cls = make_world(spec, n_objs=2)
        move_log = {}
        for epoch, flip in enumerate(schedule):
            target = ObjectType.LAT if flip else ObjectType.POW
            cls.assignment = assignment_for(tenant, target)
            d = service.end_epoch(tenant, healthy_sample(epoch, tenant))
            for obj_id, typ in d.moves:
                move_log.setdefault(obj_id, []).append((epoch, typ))
        for log in move_log.values():
            for (e1, t1), (e2, t2) in zip(log, log[1:]):
                assert t1 != t2, "consecutive moves must oppose"
                assert e2 - e1 > cooldown

    @given(kind=st.sampled_from(["missing", "short", "neg_instructions",
                                 "neg_counter", "nan_counter"]))
    @settings(max_examples=20, deadline=None)
    def test_rejected_epoch_leaves_page_table_identical(self, kind):
        spec = OnlineSpec(hysteresis_epochs=3, cooldown_epochs=2,
                          warmup_epochs=0, min_epoch_records=10)
        service, tenant, cls = make_world(spec)
        # Build up live state first: one accepted epoch with a pending
        # (hysteresis-building) proposal, so a buggy reject path would
        # have streaks and EWMAs to corrupt.
        cls.assignment = assignment_for(tenant, ObjectType.LAT)
        service.end_epoch(tenant, healthy_sample(0, tenant))

        bad = healthy_sample(1, tenant)
        if kind == "missing":
            bad = None
        elif kind == "short":
            bad.n_records = 3
        elif kind == "neg_instructions":
            bad.instructions = -7
        elif kind == "neg_counter":
            next(iter(bad.objects.values())).misses = -1
        else:
            next(iter(bad.objects.values())).stall_cycles = math.nan

        pt = tenant.allocator.page_table
        pt_before = pt.snapshot()
        ewma_before = {o: (s.ewma_mpki, s.ewma_spm, s.ewma_wf, s.epochs_seen)
                       for o, s in tenant.detector.objects.items()}
        streaks_before = dict(tenant.gate._streaks)
        queue_before = len(tenant.queue)

        d = service.end_epoch(tenant, bad)
        assert not d.accepted
        assert d.reject_reason in ("missing", "short", "corrupt")
        assert d.pages_moved == 0 and d.overhead_cycles == 0
        assert not d.moves
        assert pt.snapshot() == pt_before
        assert {o: (s.ewma_mpki, s.ewma_spm, s.ewma_wf, s.epochs_seen)
                for o, s in tenant.detector.objects.items()} == ewma_before
        assert dict(tenant.gate._streaks) == streaks_before
        assert len(tenant.queue) == queue_before
        assert tenant.stats.epochs_rejected == 1


# ---- service behaviour -------------------------------------------------------


class TestGuidanceService:
    def test_quiet_run_never_moves(self):
        """Samples matching the profile leave the placement untouched."""
        service, tenant, cls = make_world(OnlineSpec(warmup_epochs=0,
                                                     min_epoch_records=1))
        cls.assignment = assignment_for(tenant, ObjectType.POW)
        pt_before = tenant.allocator.page_table.snapshot()
        for epoch in range(6):
            d = service.end_epoch(tenant, healthy_sample(epoch, tenant))
            assert d.accepted and not d.moves
        assert tenant.stats.moves == 0
        assert tenant.allocator.page_table.snapshot() == pt_before

    def test_sustained_flip_moves_after_k_epochs(self):
        spec = OnlineSpec(hysteresis_epochs=2, warmup_epochs=0,
                          min_epoch_records=1)
        service, tenant, cls = make_world(spec)
        cls.assignment = assignment_for(tenant, ObjectType.LAT)
        d0 = service.end_epoch(tenant, healthy_sample(0, tenant))
        assert not d0.moves and d0.suppressed > 0  # building streak
        d1 = service.end_epoch(tenant, healthy_sample(1, tenant))
        assert d1.moves and d1.pages_moved > 0
        pt = tenant.allocator.page_table
        for obj_id, _ in d1.moves:
            for key in tenant.object_pages(obj_id):
                assert pt.lookup(key)[0] == 0  # now in the RL group
        assert tenant.stats.hysteresis_suppressed >= 3

    def test_warmup_epochs_freeze_placement(self):
        spec = OnlineSpec(hysteresis_epochs=1, warmup_epochs=3,
                          min_epoch_records=1)
        service, tenant, cls = make_world(spec)
        cls.assignment = assignment_for(tenant, ObjectType.LAT)
        for epoch in range(3):
            d = service.end_epoch(tenant, healthy_sample(epoch, tenant))
            assert not d.moves
        assert service.end_epoch(tenant, healthy_sample(3, tenant)).moves

    def test_deferred_moves_carry_over(self):
        """Moves that miss the budget drain in later epochs, not never."""
        spec = OnlineSpec(hysteresis_epochs=1, cooldown_epochs=0,
                          warmup_epochs=0, min_epoch_records=1,
                          max_pages_per_epoch=3)
        service, tenant, cls = make_world(spec, n_objs=3, pages_per_obj=4)
        cls.assignment = assignment_for(tenant, ObjectType.LAT)
        total = 0
        for epoch in range(8):
            d = service.end_epoch(tenant, healthy_sample(epoch, tenant))
            total += d.pages_moved
        assert total == 3 * 4  # every page eventually moved
        assert tenant.stats.deferred_moves > 0
        pt = tenant.allocator.page_table
        for obj_id in tenant.placements():
            assert all(pt.lookup(k)[0] == 0
                       for k in tenant.object_pages(obj_id))

    def test_capacity_fault_evacuates_stranded_pages(self):
        service, tenant, cls = make_world(OnlineSpec(warmup_epochs=0,
                                                     min_epoch_records=1))
        tenant.allocator.pools[1].offline()  # POW module dies mid-run
        assert service.on_capacity_fault(tenant) == 3  # every object hit
        cls.assignment = assignment_for(tenant, ObjectType.POW)
        d = service.end_epoch(tenant, healthy_sample(0, tenant))
        assert d.pages_moved == 3 * 4
        assert tenant.stats.forced_moves == 3
        pt = tenant.allocator.page_table
        for obj_id in tenant.placements():
            assert all(pt.lookup(k)[0] == 0
                       for k in tenant.object_pages(obj_id))

    def test_duplicate_tenant_rejected(self):
        service, tenant, _ = make_world(OnlineSpec())
        with pytest.raises(ValueError):
            service.register("app", allocator=tenant.allocator,
                             memsys=tenant.memsys, layout=tenant.layout,
                             lut=tenant.base_lut,
                             classifier=tenant.classifier,
                             types=tenant.placements())

    def test_stats_to_dict_mirrors_counters(self):
        service, tenant, cls = make_world(OnlineSpec(warmup_epochs=0,
                                                     min_epoch_records=1))
        cls.assignment = assignment_for(tenant, ObjectType.POW)
        service.end_epoch(tenant, healthy_sample(0, tenant))
        service.end_epoch(tenant, None)
        d = tenant.stats.to_dict()
        assert d["epochs"] == 2 and d["epochs_accepted"] == 1
        assert d["rejected_by_reason"] == {"missing": 1}


# ---- components --------------------------------------------------------------


class TestPhaseChangeDetector:
    def _primed(self, **kw):
        det = PhaseChangeDetector(alpha=0.5, sensitivity=1.5, **kw)
        det.prime(0, mpki=50.0, spm=40.0, wf=0.1)
        return det

    def _sample(self, epoch, misses, inst=1000):
        return EpochSample(epoch=epoch, instructions=inst, n_records=100,
                           objects={0: ObjectSample(0, misses=misses,
                                                    load_misses=misses or 1,
                                                    stall_cycles=0,
                                                    writes=0)})

    def test_collapse_to_cold_is_detected(self):
        """Hot-to-cold drift must trip: the ratio test's raison d'etre."""
        det = self._primed()
        for epoch in range(4):
            det.observe(self._sample(epoch, misses=0))
        assert 0 in det.changed()

    def test_rise_is_detected(self):
        det = self._primed()
        det.observe(self._sample(0, misses=500))
        assert 0 in det.changed()

    def test_near_zero_jitter_never_trips(self):
        """Features below the floors cannot trip on sampling noise."""
        det = PhaseChangeDetector(alpha=0.5, sensitivity=1.5)
        det.prime(0, mpki=0.5, spm=40.0, wf=0.0)
        det.observe(self._sample(0, misses=1))  # mpki 0.5 -> 1.0-ish
        assert 0 not in det.changed()

    def test_transient_burst_untrips_as_ewma_decays(self):
        det = self._primed()
        det.observe(self._sample(0, misses=500))
        assert 0 in det.changed()
        for epoch in range(1, 8):
            det.observe(self._sample(epoch, misses=50))
        assert 0 not in det.changed()

    def test_unknown_ids_are_ignored(self):
        det = self._primed(known={0})
        det.observe(EpochSample(
            epoch=0, instructions=1000, n_records=100,
            objects={-1: ObjectSample(-1, misses=900, load_misses=900)}))
        assert -1 not in det.objects

    def test_never_profiled_object_is_pinned_live(self):
        det = self._primed(known={0, 7})
        det.observe(EpochSample(
            epoch=0, instructions=1000, n_records=100,
            objects={7: ObjectSample(7, misses=2, load_misses=2)}))
        assert det.objects[7].pinned_live
        assert 7 in det.changed()

    def test_rebase_pins_and_reanchors(self):
        det = self._primed()
        det.observe(self._sample(0, misses=500))
        det.rebase(0)
        st0 = det.objects[0]
        assert st0.pinned_live and st0.base_mpki == st0.ewma_mpki
        assert not st0.phase_changed  # new baseline == current behaviour


class TestHysteresisGate:
    def test_releases_after_k_consecutive(self):
        gate = HysteresisGate(k=3, cooldown=2)
        for epoch in range(2):
            d = gate.check(1, ObjectType.POW, ObjectType.LAT, epoch)
            assert not d.release and d.reason == "building"
        assert gate.check(1, ObjectType.POW, ObjectType.LAT, 2).release

    def test_agreement_resets_streak(self):
        gate = HysteresisGate(k=2, cooldown=0)
        gate.check(1, ObjectType.POW, ObjectType.LAT, 0)
        assert gate.check(1, ObjectType.POW, ObjectType.POW, 1).reason \
            == "agree"
        assert not gate.check(1, ObjectType.POW, ObjectType.LAT, 2).release

    def test_cooldown_blocks_after_move(self):
        gate = HysteresisGate(k=1, cooldown=3)
        gate.record_move(1, epoch=5)
        for epoch in range(6, 9):
            d = gate.check(1, ObjectType.LAT, ObjectType.POW, epoch)
            assert not d.release and d.reason == "cooldown"
        assert gate.check(1, ObjectType.LAT, ObjectType.POW, 9).release


class TestDeferredMoveQueue:
    def test_forced_outranks_heat(self):
        q = DeferredMoveQueue()
        q.push(MoveRequest(1, ObjectType.LAT, heat=99.0))
        q.push(MoveRequest(2, ObjectType.POW, heat=0.0, forced=True))
        assert q.pop().obj_id == 2
        assert q.pop().obj_id == 1
        assert q.pop() is None

    def test_hotter_drains_first(self):
        q = DeferredMoveQueue()
        q.push(MoveRequest(1, ObjectType.LAT, heat=1.0))
        q.push(MoveRequest(2, ObjectType.LAT, heat=5.0))
        assert [q.pop().obj_id, q.pop().obj_id] == [2, 1]

    def test_reenqueue_supersedes_stale_target(self):
        q = DeferredMoveQueue()
        q.push(MoveRequest(1, ObjectType.LAT, heat=5.0))
        q.push(MoveRequest(1, ObjectType.POW, heat=5.0))
        assert len(q) == 1
        req = q.pop()
        assert req.target is ObjectType.POW
        assert q.pop() is None


class TestEpochBudget:
    def test_page_and_cycle_caps(self):
        b = EpochBudget(max_pages=2, max_cycles=100)
        assert b.can_move_page(60)
        b.charge_page(60)
        assert not b.can_move_page(60)  # cycle cap
        assert b.can_move_page(40)
        b.charge_page(40)
        assert b.exhausted

    @pytest.mark.parametrize("cost", [0, 1, 7, 60, 150])
    def test_pages_fitting_counts_grants_in_a_row(self, cost):
        for used_pages, used_cycles in ((0, 0), (3, 45), (5, 100)):
            batch = EpochBudget(max_pages=5, max_cycles=100)
            single = EpochBudget(max_pages=5, max_cycles=100)
            for b in (batch, single):
                b.pages_used, b.cycles_used = used_pages, used_cycles
            n = batch.pages_fitting(cost)
            batch.charge_pages(cost, n)
            grants = 0
            while single.can_move_page(cost):
                single.charge_page(cost)
                grants += 1
            assert n == grants
            assert (batch.pages_used, batch.cycles_used) == \
                (single.pages_used, single.cycles_used)


class TestSampleGuard:
    def test_reasons(self):
        guard = SampleGuard(min_records=10)
        ok = EpochSample(epoch=0, instructions=100, n_records=50,
                         objects={0: ObjectSample(0, misses=1)})
        assert guard.validate(ok) is None
        assert guard.validate(None) == "missing"
        short = EpochSample(epoch=0, instructions=100, n_records=3)
        assert guard.validate(short) == "short"
        corrupt = EpochSample(epoch=0, instructions=-1, n_records=50)
        assert guard.validate(corrupt) == "corrupt"

    def test_degrade_sample_is_deterministic(self):
        plan = FaultPlan(lut_scramble_fraction=0.5, seed=3)
        sample = EpochSample(epoch=4, instructions=100, n_records=50,
                             objects={0: ObjectSample(0, misses=9)})
        a = degrade_sample(sample, plan, "app")
        b = degrade_sample(sample, plan, "app")
        assert (a is None) == (b is None)
        if a is not None:
            assert a.instructions == b.instructions

    def test_scrambled_sample_is_rejected(self):
        plan = FaultPlan(lut_scramble_fraction=1.0)
        sample = EpochSample(epoch=0, instructions=100, n_records=50,
                             objects={0: ObjectSample(0, misses=9)})
        garbled = degrade_sample(sample, plan, "app")
        assert SampleGuard().validate(garbled) == "corrupt"

    def test_dropped_sample_goes_missing(self):
        plan = FaultPlan(lut_drop_fraction=1.0)
        sample = EpochSample(epoch=0, instructions=100, n_records=50)
        assert degrade_sample(sample, plan, "app") is None

    def test_clean_plan_passes_through(self):
        sample = EpochSample(epoch=0, instructions=100, n_records=50)
        assert degrade_sample(sample, FaultPlan(), "app") is sample
