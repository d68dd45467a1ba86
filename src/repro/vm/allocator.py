"""The OS frame allocator with per-type fallback chains (paper Sec. IV-D).

Given the channel-group *roles* of a memory system (which group is the
latency module, which the bandwidth module, ...), the allocator resolves
an object type's fallback chain to concrete groups and hands out frames,
spilling to the next-best module when the preferred pool is full.

Allocation works on *runs* of pages: :meth:`OSPageAllocator.allocate_pages`
walks a whole object extent down its type's chain, each pool taking as
many pages as it has frames and the rest spilling to the next.  The
single-page calls are one-element runs.

Exhaustion is a first-class outcome, not just an exception: by default a
run raises :class:`OutOfFramesError` (carrying per-pool occupancy and the
requested type) at its first page that finds every pool in the chain out
of frames; with ``overcommit=True`` those pages instead take the degraded
path the placement planner uses rather than crashing — it models the OS
swapping past physical capacity, with every such page tallied in
:class:`AllocationStats` so a degraded run stays measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.obs.registry import OBS
from repro.vm.heap import FALLBACK_CHAINS, ObjectType
from repro.vm.pagetable import PageTable
from repro.vm.physmem import FramePool, OutOfMemory


class OutOfFramesError(OutOfMemory):
    """Every pool in a fallback chain is exhausted.

    Attributes:
        object_type: The :class:`ObjectType` whose chain came up empty.
        occupancy: group index → ``(allocated, total)`` frame counts at
            the moment of failure, so the failure is diagnosable without
            a debugger (which module filled first, which was offline).
    """

    def __init__(self, object_type: ObjectType,
                 occupancy: dict[int, tuple[int, int]]):
        self.object_type = object_type
        self.occupancy = dict(occupancy)
        detail = ", ".join(
            f"group {g}: {used}/{total}"
            for g, (used, total) in sorted(occupancy.items()))
        super().__init__(
            f"no frames left in any pool for type {object_type} ({detail})")


@dataclass
class AllocationStats:
    """Placement outcome counters.

    ``placed[type][group]`` counts pages of each object type per group;
    ``spills[type]`` counts pages that missed their first-choice module;
    ``exhausted[type]`` counts pages that found *every* pool full and had
    to be overcommitted (the degraded no-crash path).
    """

    placed: dict[ObjectType, dict[int, int]] = field(
        default_factory=lambda: {t: {} for t in ObjectType})
    spills: dict[ObjectType, int] = field(
        default_factory=lambda: {t: 0 for t in ObjectType})
    exhausted: dict[ObjectType, int] = field(
        default_factory=lambda: {t: 0 for t in ObjectType})

    def record(self, typ: ObjectType, group: int, spilled: bool,
               n: int = 1) -> None:
        """Count ``n`` pages of ``typ`` placed in ``group``."""
        by_group = self.placed[typ]
        by_group[group] = by_group.get(group, 0) + n
        if spilled:
            self.spills[typ] += n

    @property
    def total_pages(self) -> int:
        return sum(n for by_g in self.placed.values() for n in by_g.values())

    @property
    def total_spills(self) -> int:
        return sum(self.spills.values())

    @property
    def total_exhausted(self) -> int:
        return sum(self.exhausted.values())

    def spill_rate(self, typ: ObjectType) -> float:
        total = sum(self.placed[typ].values())
        return self.spills[typ] / total if total else 0.0

    @property
    def overall_spill_rate(self) -> float:
        total = self.total_pages
        return self.total_spills / total if total else 0.0

    def to_dict(self) -> dict:
        """Manifest/provenance-ready summary of the placement outcome."""
        return {
            "pages": self.total_pages,
            "spills": self.total_spills,
            "exhausted": self.total_exhausted,
            "spill_rate": round(self.overall_spill_rate, 6),
            "spills_by_type": {t.name: n for t, n in self.spills.items()},
            "exhausted_by_type": {t.name: n
                                  for t, n in self.exhausted.items()},
        }


class OSPageAllocator:
    """Demand-paging allocator over role-named frame pools.

    Args:
        pools: group index → :class:`FramePool` (one per channel group).
        roles: role name (``"lat" | "bw" | "pow" | "main"``) → group index.
            A role may be absent (e.g. no RLDRAM in a homogeneous system);
            chains skip absent roles.
        page_table: Shared page table to record mappings into.
    """

    def __init__(self, pools: dict[int, FramePool], roles: dict[str, int],
                 page_table: PageTable | None = None):
        if not pools:
            raise ValueError("allocator needs at least one pool")
        unknown = set(roles.values()) - set(pools)
        if unknown:
            raise ValueError(f"roles reference missing groups {sorted(unknown)}")
        self.pools = pools
        self.roles = dict(roles)
        self.page_table = page_table or PageTable()
        self.stats = AllocationStats()
        #: Pages offered to :meth:`allocate_pages` so far.
        self.pages_offered = 0
        self._trigger: tuple[int, Callable[[], None]] | None = None
        # Resolve each type's role chain to concrete group indices once.
        self._chains: dict[ObjectType, list[int]] = {}
        for typ, role_chain in FALLBACK_CHAINS.items():
            groups = [roles[r] for r in role_chain if r in roles]
            # Any group not already in the chain is a last-ditch fallback,
            # in index order (never raise while memory remains anywhere).
            for g in sorted(pools):
                if g not in groups:
                    groups.append(g)
            self._chains[typ] = groups

    def chain_for(self, typ: ObjectType) -> list[int]:
        """Concrete group order this type's pages try, best-fit first."""
        return list(self._chains[typ])

    def occupancy(self) -> dict[int, tuple[int, int]]:
        """Per-group ``(allocated, total)`` frame counts right now."""
        return {g: (p.n_allocated, p.n_frames)
                for g, p in self.pools.items()}

    def arm_trigger(self, after_pages: int,
                    action: Callable[[], None]) -> None:
        """Run ``action`` once, when ``after_pages`` more pages have been
        offered and the next one is about to be placed.

        Offered pages include those that end up overcommitted.  A run
        that crosses the threshold is split there: its first part is
        placed (overcommit included) before ``action`` runs, the rest
        after — the fault-injection layer (:mod:`repro.faults.inject`)
        uses this to offline/shrink a pool *while* a workload is placed.
        """
        self._trigger = (self.pages_offered + after_pages, action)

    def allocate_pages(self, vpages, typ: ObjectType, *,
                       overcommit: bool = False
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Map a run of vpages with frames of type ``typ``.

        Each pool of the type's chain takes as many of the remaining
        pages as it has frames, in page order.  Pages that find every
        pool full are overcommitted (``overcommit=True``, see
        :meth:`overcommit_pages`); otherwise the first of them raises
        :class:`OutOfFramesError` (an :class:`OutOfMemory`) with the pages
        before it mapped.  Returns the run's ``(groups, frames)``.
        """
        vpages = np.asarray(vpages, dtype=np.int64).reshape(-1)
        if self._trigger is not None:
            at, action = self._trigger
            k = at - self.pages_offered
            if k < len(vpages):
                head = self._place(vpages[:k], typ, overcommit)
                self._trigger = None
                action()
                tail = self._place(vpages[k:], typ, overcommit)
                return (np.concatenate((head[0], tail[0])),
                        np.concatenate((head[1], tail[1])))
        return self._place(vpages, typ, overcommit)

    def _place(self, vpages: np.ndarray, typ: ObjectType,
               overcommit: bool) -> tuple[np.ndarray, np.ndarray]:
        n = len(vpages)
        groups = np.empty(n, dtype=np.int32)
        frames = np.empty(n, dtype=np.int64)
        done = 0
        spilled = 0
        for i, group in enumerate(self._chains[typ]):
            if done == n:
                break
            got = self.pools[group].allocate_run(n - done)
            m = len(got)
            if not m:
                continue
            groups[done:done + m] = group
            frames[done:done + m] = got
            self.stats.record(typ, group, spilled=i > 0, n=m)
            done += m
            if i > 0:
                spilled += m
        if OBS.enabled and done:
            OBS.add(f"alloc.placed.{typ.name}", done)
            if spilled:
                # Paper Sec. IV-C/D: the preferred module was full and
                # the pages fell through its chain.
                OBS.add(f"alloc.spill.{typ.name}", spilled)
        short = n - done
        # Like page-at-a-time allocation, a run that cannot overcommit
        # stops at its first homeless page, which still counts as offered.
        self.pages_offered += n if overcommit or not short else done + 1
        self.page_table.map_pages(vpages[:done], groups[:done], frames[:done])
        if short:
            if OBS.enabled:
                OBS.add(f"alloc.oom.{typ.name}", short if overcommit else 1)
            if not overcommit:
                raise OutOfFramesError(typ, self.occupancy())
            groups[done:], frames[done:] = self.overcommit_pages(
                vpages[done:], typ)
        return groups, frames

    def overcommit_pages(self, vpages, typ: ObjectType
                         ) -> tuple[np.ndarray, np.ndarray]:
        """Degraded allocation when the whole chain is exhausted.

        Places the pages in the last online pool of the type's chain (the
        worst acceptable home) *beyond* its physical capacity — the
        reproduction's stand-in for the OS swapping — and tallies them in
        ``stats.exhausted`` so graceful degradation is visible in every
        report.  Returns the run's ``(groups, frames)``.
        """
        vpages = np.asarray(vpages, dtype=np.int64).reshape(-1)
        n = len(vpages)
        chain = self._chains[typ]
        target = next((g for g in reversed(chain)
                       if not self.pools[g].is_offline), chain[-1])
        frames = self.pools[target].allocate_overcommit_run(n)
        groups = np.full(n, target, dtype=np.int32)
        self.page_table.map_pages(vpages, groups, frames)
        self.stats.record(typ, target, spilled=True, n=n)
        self.stats.exhausted[typ] += n
        if OBS.enabled:
            OBS.add(f"alloc.overcommit.{typ.name}", n)
        return groups, frames

    def allocate_page(self, vpage: int, typ: ObjectType) -> tuple[int, int]:
        """Map one vpage; returns (group, frame).  A one-page
        :meth:`allocate_pages` run: raises :class:`OutOfFramesError` when
        every pool in the chain is exhausted."""
        groups, frames = self.allocate_pages((vpage,), typ)
        return int(groups[0]), int(frames[0])

    def allocate_overcommit(self, vpage: int,
                            typ: ObjectType) -> tuple[int, int]:
        """One-page :meth:`overcommit_pages`; returns (group, frame)."""
        groups, frames = self.overcommit_pages((vpage,), typ)
        return int(groups[0]), int(frames[0])

    def free_frames(self) -> dict[int, int]:
        """Remaining frames per group."""
        return {g: p.frames_left for g, p in self.pools.items()}
