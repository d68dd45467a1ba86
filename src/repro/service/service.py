"""The guidance service: epoch-driven reclassification and migration.

:class:`GuidanceService` is the long-running decision loop of the online
pipeline (the reproduction's analogue of arXiv:2110.02150's guidance
daemon).  Tenants — one per simulated application — register with their
allocator, layout, offline profile, and classifier; every epoch they
report an :class:`~repro.service.samples.EpochSample` and receive an
:class:`EpochDecision` describing what the service did:

1. **guard** — missing/short/corrupt samples are rejected; the epoch is
   a complete no-op (the page table stays byte-identical — pinned by a
   hypothesis test) and the last good placement holds;
2. **detect** — accepted samples feed per-object EWMAs; only objects
   whose smoothed behaviour departs from the offline baseline
   (phase changes) have their LUT slice rewritten with live features;
3. **classify** — the tenant's registered
   :class:`~repro.moca.policy.ClassificationPolicy` re-evaluates the
   updated LUT under the same capacity budget as the offline stage;
4. **gate** — hysteresis (K consecutive epochs) and per-object cooldown
   suppress ping-pong;
5. **move** — released moves drain through a per-epoch page+cycle
   budget, spill into the deferred queue, and are charged through the
   same :func:`~repro.vm.migration.charge_page_copy` accounting as the
   hot-page migrator (batched per object; pages decide a run of pages
   that share a source group at a time).

A capacity :class:`~repro.faults.plan.FaultPlan` firing mid-run calls
:meth:`GuidanceService.on_capacity_fault`: every object with pages
stranded in an offline pool gets a *forced* move that outranks the queue
and may fall back to overcommit — the allocator's graceful-degradation
path — when every pool is full.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.moca.lut import ObjectProfile, ProfileLUT
from repro.moca.naming import ObjectName, name_from_site
from repro.moca.policy import CapacityBudget, ClassificationPolicy, UNLIMITED
from repro.obs.registry import OBS
from repro.service.budget import DeferredMoveQueue, EpochBudget, MoveRequest
from repro.service.detector import PhaseChangeDetector
from repro.service.hysteresis import HysteresisGate
from repro.service.samples import EpochSample, SampleGuard
from repro.service.spec import OnlineSpec
from repro.trace.events import PAGE_BYTES, VirtualLayout
from repro.vm.allocator import OSPageAllocator
from repro.vm.heap import ObjectType
from repro.vm.migration import MigrationStats, charge_page_copy

__all__ = ["EpochDecision", "GuidanceService", "ServiceStats", "Tenant"]


@dataclass
class ServiceStats:
    """The service's robustness ledger for one tenant.

    Every counter is mirrored into :data:`~repro.obs.registry.OBS`
    (``service.*``), so an online run's manifest telemetry block carries
    the same numbers.
    """

    epochs: int = 0
    epochs_accepted: int = 0
    epochs_rejected: int = 0
    rejected_by_reason: dict[str, int] = field(default_factory=dict)
    phase_changes: int = 0
    moves: int = 0
    forced_moves: int = 0
    pages_moved: int = 0
    deferred_moves: int = 0
    hysteresis_suppressed: int = 0
    cooldown_suppressed: int = 0

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "epochs_accepted": self.epochs_accepted,
            "epochs_rejected": self.epochs_rejected,
            "rejected_by_reason": dict(self.rejected_by_reason),
            "phase_changes": self.phase_changes,
            "moves": self.moves,
            "forced_moves": self.forced_moves,
            "pages_moved": self.pages_moved,
            "deferred_moves": self.deferred_moves,
            "hysteresis_suppressed": self.hysteresis_suppressed,
            "cooldown_suppressed": self.cooldown_suppressed,
        }


@dataclass(frozen=True)
class EpochDecision:
    """What the service did at one epoch boundary."""

    epoch: int
    accepted: bool
    reject_reason: str | None = None
    overhead_cycles: int = 0
    pages_moved: int = 0
    moves: tuple[tuple[int, ObjectType], ...] = ()
    deferred: int = 0
    suppressed: int = 0


class Tenant:
    """One registered application's view of the service.

    Holds the per-tenant robustness state: working LUT (offline profile
    plus live rewrites), phase-change detector, hysteresis gate,
    deferred-move queue, and migration accounting.
    """

    def __init__(self, name: str, *, allocator: OSPageAllocator,
                 memsys, layout: VirtualLayout, lut: ProfileLUT,
                 classifier: ClassificationPolicy,
                 types: dict[int, ObjectType],
                 heat: dict[int, float] | None = None,
                 budget: CapacityBudget = UNLIMITED,
                 core: int = 0, spec: OnlineSpec | None = None):
        from repro.moca.allocation import CORE_STRIDE

        spec = spec or OnlineSpec()
        self.name = name
        self.allocator = allocator
        self.memsys = memsys
        self.layout = layout
        self.base_lut = lut
        self.working_lut = lut.clone()
        self.classifier = classifier
        self.capacity_budget = budget
        self.core = core
        #: Live placement class per heap object (the service's view of
        #: "where the object belongs"; pages follow the fallback chain).
        self.current_types = dict(types)
        self.heat = dict(heat or {})
        self.detector = PhaseChangeDetector(alpha=spec.ewma_alpha,
                                            sensitivity=spec.sensitivity,
                                            known=set())
        self.gate = HysteresisGate(k=spec.hysteresis_epochs,
                                   cooldown=spec.cooldown_epochs)
        self.guard = SampleGuard(min_records=spec.min_epoch_records)
        self.queue = DeferredMoveQueue()
        self.stats = ServiceStats()
        self.migration = MigrationStats()
        #: LUT names currently carrying a live rewrite (restored from
        #: the offline profile when the trip that caused them decays).
        self._rewritten: set[ObjectName] = set()
        # Object bookkeeping: names, sizes, and page-table keys.
        page_base = core * (CORE_STRIDE // PAGE_BYTES)
        self._name_of: dict[int, ObjectName] = {}
        self._objs_of_name: dict[ObjectName, list[int]] = {}
        self._pages_of: dict[int, np.ndarray] = {}
        self._size_of: dict[int, int] = {}
        for obj in layout.objects:
            name = name_from_site(obj.site)
            self._name_of[obj.obj_id] = name
            self._objs_of_name.setdefault(name, []).append(obj.obj_id)
            pages = obj.pages()
            self._pages_of[obj.obj_id] = np.arange(
                page_base + pages.start, page_base + pages.stop,
                dtype=np.int64)
            self._size_of[obj.obj_id] = obj.size_bytes
        self.detector.known = set(self._name_of)
        # Prime the detector with each profiled object's offline baseline.
        for obj_id, name in self._name_of.items():
            prof = lut.get(name)
            if prof is not None:
                self.detector.prime(obj_id, prof.llc_mpki,
                                    prof.stall_per_load_miss, prof.write_frac)

    def object_pages(self, obj_id: int) -> list[int]:
        pages = self._pages_of.get(obj_id)
        return [] if pages is None else pages.tolist()

    def placements(self) -> dict[int, ObjectType]:
        """Current per-object placement classes (copy)."""
        return dict(self.current_types)


class GuidanceService:
    """Epoch-boundary reclassification with drift/noise/fault hardening."""

    def __init__(self, spec: OnlineSpec | None = None):
        self.spec = spec or OnlineSpec()
        self.tenants: dict[str, Tenant] = {}

    # ---- registration --------------------------------------------------------

    def register(self, name: str, **kwargs) -> Tenant:
        """Register a tenant (see :class:`Tenant` for the arguments)."""
        if name in self.tenants:
            raise ValueError(f"tenant {name!r} is already registered")
        tenant = Tenant(name, spec=self.spec, **kwargs)
        self.tenants[name] = tenant
        return tenant

    # ---- the epoch boundary --------------------------------------------------

    def end_epoch(self, tenant: Tenant,
                  sample: EpochSample | None) -> EpochDecision:
        """Process one epoch's telemetry and decide moves.

        A rejected sample (missing/short/corrupt) makes the whole epoch
        a no-op: no estimator updates, no hysteresis advancement, no
        queue drain — the page table is untouched and the last good
        placement holds.
        """
        spec = self.spec
        stats = tenant.stats
        stats.epochs += 1
        epoch = stats.epochs - 1 if sample is None else sample.epoch
        if OBS.enabled:
            OBS.add("service.epoch")
        reason = tenant.guard.validate(sample)
        if reason is not None:
            stats.epochs_rejected += 1
            stats.rejected_by_reason[reason] = \
                stats.rejected_by_reason.get(reason, 0) + 1
            if OBS.enabled:
                OBS.add("service.rejected_epoch")
                OBS.add(f"service.rejected_epoch.{reason}")
            return EpochDecision(epoch=epoch, accepted=False,
                                 reject_reason=reason)
        stats.epochs_accepted += 1
        fresh = tenant.detector.observe(sample)
        if fresh:
            stats.phase_changes += len(fresh)
            if OBS.enabled:
                OBS.add("service.phase_change", len(fresh))
        if epoch < spec.warmup_epochs:
            # Estimators prime; placement is frozen.
            return EpochDecision(epoch=epoch, accepted=True)
        suppressed = self._propose_moves(tenant, epoch)
        overhead, pages, moves, deferred = self._drain_moves(tenant, epoch)
        return EpochDecision(epoch=epoch, accepted=True,
                             overhead_cycles=overhead, pages_moved=pages,
                             moves=tuple(moves), deferred=deferred,
                             suppressed=suppressed)

    # ---- fault reaction ------------------------------------------------------

    def on_capacity_fault(self, tenant: Tenant) -> int:
        """React to a capacity fault (module offlined/shrunk mid-run).

        Every object with pages stranded in an *offline* pool gets a
        forced move request — drained under the normal per-epoch budget,
        so re-placement is paced, not a stall-the-world event.  Returns
        the number of forced requests queued.
        """
        pt = tenant.allocator.page_table
        pools = tenant.allocator.pools
        forced = 0
        for obj_id, pages in tenant._pages_of.items():
            groups = np.unique(pt.lookup_pages(pages)[0]).tolist()
            stranded = any(pools[g].is_offline for g in groups)
            if not stranded:
                continue
            target = tenant.current_types.get(obj_id, ObjectType.POW)
            tenant.queue.push(MoveRequest(
                obj_id=obj_id, target=target,
                heat=tenant.heat.get(obj_id, 0.0), forced=True))
            forced += 1
        if forced and OBS.enabled:
            OBS.add("service.fault_replacements", forced)
        return forced

    # ---- internals -----------------------------------------------------------

    def _propose_moves(self, tenant: Tenant, epoch: int) -> int:
        """Reclassify against the live LUT and gate the proposals.

        Returns the number of suppressed (hysteresis/cooldown) proposals.
        """
        self._refresh_lut(tenant)
        assignment = tenant.classifier.classify(
            [tenant.working_lut], tenant.capacity_budget)[0]
        stats = tenant.stats
        suppressed = 0
        for name, proposed in assignment.items():
            for obj_id in tenant._objs_of_name.get(name, ()):
                current = tenant.current_types.get(obj_id, ObjectType.POW)
                decision = tenant.gate.check(obj_id, current, proposed, epoch)
                if decision.release:
                    tenant.queue.push(MoveRequest(
                        obj_id=obj_id, target=proposed,
                        heat=tenant.heat.get(obj_id, 0.0), epoch=epoch))
                elif decision.reason == "cooldown":
                    suppressed += 1
                    stats.cooldown_suppressed += 1
                    if OBS.enabled:
                        OBS.add("service.suppressed.cooldown")
                elif decision.reason == "building":
                    suppressed += 1
                    stats.hysteresis_suppressed += 1
                    if OBS.enabled:
                        OBS.add("service.suppressed.hysteresis")
        return suppressed

    def _refresh_lut(self, tenant: Tenant) -> None:
        """Rewrite phase-changed objects' LUT slices with live EWMAs.

        Objects without a detected phase change keep their offline
        profile verbatim, so a quiet run classifies exactly like the
        offline pipeline (convergence: zero net moves after warmup).
        When a transient trip decays, the rewritten slice is restored
        from the offline profile — a one-epoch burst leaves no residue.
        """
        changed = tenant.detector.changed()
        changed_names = {tenant._name_of[o] for o in changed
                         if o in tenant._name_of}
        for name in tenant._rewritten - changed_names:
            entry = tenant.base_lut.get(name)
            tenant.working_lut.remove(name)
            if entry is not None:
                # Fresh copy: ``register`` merges in place, and the
                # base LUT must stay pristine.
                tenant.working_lut.register(replace(entry))
            tenant._rewritten.discard(name)
        for obj_id in changed:
            state = tenant.detector.objects[obj_id]
            name = tenant._name_of.get(obj_id)
            if name is None:
                continue  # segment or unnamed object: never reclassified
            base = tenant.base_lut.get(name)
            size = tenant._size_of.get(obj_id,
                                       base.size_bytes if base else 0)
            # Stall-per-miss is a *pattern* feature: input-stable, and
            # its short-window live estimate is biased low by overlap
            # inside the core's miss window.  Profiled objects keep the
            # profile's value; only never-profiled objects fall back to
            # the live EWMA.
            spm = base.stall_per_load_miss if base else state.ewma_spm
            # Encode the features exactly: a synthetic 1k-instruction
            # window whose counters reproduce mpki/stall-per-miss/
            # write-frac under ObjectProfile's derived properties.
            entry = ObjectProfile(
                name=name,
                label=base.label if base else f"live:{obj_id}",
                size_bytes=size,
                start_vaddr=base.start_vaddr if base else 0,
                accesses=1000,
                writes=int(round(state.ewma_wf * 1000)),
                llc_misses=int(round(state.ewma_mpki * 1000)),
                load_misses=1000,
                stall_cycles=int(round(spm * 1000)),
                kilo_instructions=1000.0,
            )
            tenant.working_lut.remove(name)
            tenant.working_lut.register(entry)
            tenant._rewritten.add(name)

    def _drain_moves(self, tenant: Tenant, epoch: int,
                     ) -> tuple[int, int, list[tuple[int, ObjectType]], int]:
        """Execute queued moves under this epoch's page+cycle budget.

        Demotions (moves whose target chain does not start at the fast
        group) run before promotions so vacated fast-tier frames are
        reusable within the same epoch.  A request that runs out of
        budget mid-object is re-queued with its remaining pages still
        pending (the page table is always consistent — moves are
        page-atomic).
        """
        spec = self.spec
        budget = EpochBudget(spec.max_pages_per_epoch,
                             spec.max_cycles_per_epoch)
        fast_group = tenant.allocator.roles.get("lat")
        pending: list[MoveRequest] = []
        while True:
            req = tenant.queue.pop()
            if req is None:
                break
            pending.append(req)
        if fast_group is not None:
            pending.sort(key=lambda r: (
                not r.forced,
                tenant.allocator.chain_for(r.target)[0] == fast_group))
        overhead = 0
        pages_moved = 0
        moves: list[tuple[int, ObjectType]] = []
        deferred = 0
        stats = tenant.stats
        for i, req in enumerate(pending):
            if budget.exhausted:
                for rest in pending[i:]:
                    tenant.queue.push(rest)
                    deferred += 1
                    stats.deferred_moves += 1
                    if OBS.enabled:
                        OBS.add("service.deferred_move")
                break
            moved, ran_out = self._apply_move(tenant, req, budget)
            overhead += moved[0]
            pages_moved += moved[1]
            if ran_out:
                # Budget ran dry mid-object: the pages already copied are
                # real (and charged), so account them before re-queueing
                # the remainder for the next epoch's budget.
                stats.pages_moved += moved[1]
                tenant.queue.push(req)
                deferred += 1
                stats.deferred_moves += 1
                if OBS.enabled:
                    OBS.add("service.deferred_move")
                    if moved[1]:
                        OBS.add("service.pages_moved", moved[1])
                continue
            # The object's class follows the classifier even when no
            # page physically moved (full target pool = spill semantics,
            # identical to allocation-time overflow).
            tenant.current_types[req.obj_id] = req.target
            if moved[1] > 0:
                moves.append((req.obj_id, req.target))
                tenant.gate.record_move(req.obj_id, epoch)
                tenant.detector.rebase(req.obj_id)
                stats.moves += 1
                if req.forced:
                    stats.forced_moves += 1
                stats.pages_moved += moved[1]
                if OBS.enabled:
                    OBS.add("service.forced_move" if req.forced
                            else "service.move")
                    OBS.add("service.pages_moved", moved[1])
        return overhead, pages_moved, moves, deferred

    def _apply_move(self, tenant: Tenant, req: MoveRequest,
                    budget: EpochBudget) -> tuple[tuple[int, int], bool]:
        """Relocate one object's pages toward its target chain.

        Returns ``((overhead_cycles, pages_moved), ran_out_of_budget)``.
        Each page walks the target type's fallback chain: reaching its
        current group first means it already sits in the best available
        module and stays put.  Forced moves (fault reaction) only
        evacuate pages stranded in an offline group; a stranded page
        that finds every pool full overcommits the last online group of
        the chain — the allocator's degraded no-crash path.

        The result is the page-at-a-time loop's (``tests/
        test_move_parity.py``), decided a run at a time.  Consecutive
        pages that share a source group walk the chain together: a
        page's frames come from groups before its source and its freed
        frame goes to the source, so nothing a run frees changes where
        the run's own pages land (a later run may take those frames).
        Each group of the walk takes as many pages as it has frames and
        the budget grants at that group's copy cost (one
        :meth:`~repro.vm.physmem.FramePool.allocate_run`).  The page the
        budget refuses still takes its frame first and hands it back,
        as the page loop does.  Lookups, remap, frees and copy
        accounting (one :func:`charge_page_copy` per
        source/destination pair) are batched.
        """
        allocator = tenant.allocator
        pt = allocator.page_table
        pools = allocator.pools
        chain = allocator.chain_for(req.target)
        shoot = self.spec.shootdown_cycles
        copy = [g.timing.transfer_cycles(PAGE_BYTES)
                for g in tenant.memsys.groups]
        keys = tenant._pages_of.get(req.obj_id)
        if keys is None or not keys.size:
            return (0, 0), False
        cur_groups, cur_frames = pt.lookup_pages(keys)
        cuts = (np.flatnonzero(cur_groups[1:] != cur_groups[:-1]) + 1
                ).tolist()
        moved: list[tuple[int, int, np.ndarray]] = []  # (first, dst, frames)
        pairs: dict[tuple[int, int], int] = {}  # (src, dst) -> pages
        overhead = 0

        def place(first: int, src: int, dst: int, frames: np.ndarray) -> int:
            """Book pages ``first...`` moving to ``dst``; returns the next."""
            nonlocal overhead
            if not frames.size:
                return first
            cost = copy[src] + copy[dst] + shoot
            budget.charge_pages(cost, frames.size)
            overhead += cost * frames.size
            pairs[src, dst] = pairs.get((src, dst), 0) + frames.size
            moved.append((first, dst, frames))
            return first + frames.size

        refused = None  # the budget-refused page's pool and how it drew
        for lo, hi in zip([0] + cuts, cuts + [len(keys)]):
            src = int(cur_groups[lo])
            stranded = pools[src].is_offline
            if req.forced and not stranded:
                # Fault reaction only evacuates stranded pages; healthy
                # pages of the same object stay where they are.
                continue
            if stranded or src not in chain:
                walk = [g for g in chain if g != src]
            else:
                walk = chain[:chain.index(src)]
            taken = lo
            # Each group of the walk takes the run's pages in turn, until
            # it fills or the budget stops it.
            for g in walk:
                fit = budget.pages_fitting(copy[src] + copy[g] + shoot)
                taken = place(taken, src, g,
                              pools[g].allocate_run(min(hi - taken, fit)))
                if taken == hi:
                    break
                if not pools[g].full:
                    # ``g`` has room left, so the budget stopped the run.
                    refused = pools[g], pools[g].allocate
                    break
            else:
                if stranded:
                    # Stranded with every pool full: overcommit the last
                    # online pool in the chain (graceful degradation).
                    dst = next((g for g in reversed(chain)
                                if not pools[g].is_offline), chain[-1])
                    fit = budget.pages_fitting(copy[src] + copy[dst] + shoot)
                    n = min(hi - taken, fit)
                    taken = place(taken, src, dst,
                                  pools[dst].allocate_overcommit_run(n))
                    drawn = n + (taken < hi)
                    allocator.stats.exhausted[req.target] += drawn
                    if OBS.enabled and drawn:
                        OBS.add(f"alloc.overcommit.{req.target.name}",
                                drawn)
                    if taken < hi:
                        refused = pools[dst], pools[dst].allocate_overcommit
            pools[src].free_run(cur_frames[lo:taken])
            if refused is not None:
                # The refused page hands its frame straight back.
                pool, draw = refused
                pool.free(draw())
                break
        n_moved = sum(pairs.values())
        if n_moved:
            first, dst, frames = zip(*moved)
            sizes = [f.size for f in frames]
            pt.remap_pages(
                keys[np.concatenate([np.arange(f, f + n)
                                     for f, n in zip(first, sizes)])],
                np.repeat(dst, sizes), np.concatenate(frames))
            for (src, dst), n in pairs.items():
                charge_page_copy(tenant.memsys, tenant.migration, src, dst,
                                 shoot, n)
            tenant.migration.n_migrations += n_moved
        return (overhead, n_moved), refused is not None
