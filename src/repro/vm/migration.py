"""Hotness-driven page migration — the runtime alternative MOCA argues
against (paper Sec. IV-E and related work [19], [33]–[36]).

Migration policies need no offline profile: they monitor per-page access
counts at runtime and periodically move the hottest pages into the
fastest module.  The price is continuous monitoring plus page-copy
traffic and TLB shootdowns on every migration — costs MOCA avoids by
deciding placement at allocation time.  This module provides the
mechanism so the trade-off can be measured (see
``repro.sim.migration`` and the migration benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.memctrl.system import MemorySystem
from repro.trace.events import PAGE_BYTES
from repro.vm.allocator import OSPageAllocator


@dataclass(frozen=True)
class MigrationConfig:
    """Knobs of the interval-based migrator.

    Frozen and hashable so it can sit directly in a
    :class:`~repro.sim.spec.RunSpec`; like ``faults`` it enters
    ``RunSpec.canonical()`` only when set, keeping every pre-existing
    cache key byte-stable.

    Attributes:
        epoch_misses: LLC misses between migration decisions.
        max_migrations_per_epoch: Hot-page moves per decision point.
        target_role: Module role hot pages are promoted into.
        shootdown_cycles: Fixed per-migration cost (TLB shootdown +
            kernel bookkeeping), charged to the core.
    """

    epoch_misses: int = 4_000
    max_migrations_per_epoch: int = 32
    target_role: str = "lat"
    shootdown_cycles: int = 1_000

    def __post_init__(self) -> None:
        if self.epoch_misses <= 0:
            raise ValueError("epoch_misses must be positive")
        if self.max_migrations_per_epoch <= 0:
            raise ValueError("max_migrations_per_epoch must be positive")
        if self.shootdown_cycles < 0:
            raise ValueError("shootdown_cycles must be non-negative")

    def canonical(self) -> dict:
        """Stable JSON form folded into ``RunSpec.canonical()``."""
        return {
            "epoch_misses": self.epoch_misses,
            "max_migrations_per_epoch": self.max_migrations_per_epoch,
            "target_role": self.target_role,
            "shootdown_cycles": self.shootdown_cycles,
        }

    to_dict = canonical

    @classmethod
    def from_dict(cls, data: dict) -> "MigrationConfig":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__
                      if k in data})


@dataclass
class MigrationStats:
    """What migration did and what it cost."""

    n_epochs: int = 0
    n_migrations: int = 0
    n_swaps: int = 0
    copy_cycles: int = 0
    shootdown_cycles: int = 0
    bytes_copied: int = 0

    @property
    def overhead_cycles(self) -> int:
        return self.copy_cycles + self.shootdown_cycles

    def to_dict(self) -> dict:
        """Lossless manifest/telemetry form (see the hypothesis
        round-trip test in ``tests/test_migration.py``)."""
        return {
            "n_epochs": self.n_epochs,
            "n_migrations": self.n_migrations,
            "n_swaps": self.n_swaps,
            "copy_cycles": self.copy_cycles,
            "shootdown_cycles": self.shootdown_cycles,
            "bytes_copied": self.bytes_copied,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MigrationStats":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__
                      if k in data})


def charge_page_copy(memsys: MemorySystem, stats: MigrationStats,
                     src_group: int, dst_group: int,
                     shootdown_cycles: int, n_pages: int = 1) -> int:
    """Account ``n_pages`` page migrations from one group to another:
    copy bus time both ways, the TLB shootdowns, and both groups' bus
    occupancy/energy.

    Shared by :class:`HotPageMigrator` (a page at a time) and the online
    guidance service (:mod:`repro.service`, once per source/destination
    pair of an object's move) so both charge migrations identically.
    Returns the cycles to bill the core (copy + shootdown).
    """
    copy = [memsys.groups[g].timing.transfer_cycles(PAGE_BYTES) * n_pages
            for g in (src_group, dst_group)]
    cycles = copy[0] + copy[1]
    stats.copy_cycles += cycles
    stats.shootdown_cycles += shootdown_cycles * n_pages
    stats.bytes_copied += 2 * PAGE_BYTES * n_pages
    # The copy occupies both groups' buses (power + later queueing).
    for g, c in zip((src_group, dst_group), copy):
        mod = memsys.groups[g].modules[0]
        mod.bus_busy_cycles += c
        mod.bytes_transferred += PAGE_BYTES * n_pages
    return cycles + shootdown_cycles * n_pages


class HotPageMigrator:
    """Promotes the hottest pages of each epoch into the target group.

    When the target module is full, the migrator *swaps*: the coldest
    currently-promoted page is demoted to make room (both copies are
    charged), back to the group it was promoted from when that pool has
    a free frame.  Hotness is the page's demand-miss count in the last
    epoch.
    """

    def __init__(self, allocator: OSPageAllocator, memsys: MemorySystem,
                 config: MigrationConfig | None = None):
        self.allocator = allocator
        self.memsys = memsys
        self.config = config or MigrationConfig()
        role = self.config.target_role
        if role not in allocator.roles:
            raise ValueError(f"system has no {role!r} module to migrate into")
        self.target_group = allocator.roles[role]
        self.stats = MigrationStats()
        #: vpage → epoch miss count for pages currently in the target group.
        self._resident_heat: dict[int, int] = {}
        #: vpage → the group a promoted page came from.
        self._origin: dict[int, int] = {}

    def _charge_copy(self, src_group: int, dst_group: int) -> int:
        return charge_page_copy(self.memsys, self.stats, src_group,
                                dst_group, self.config.shootdown_cycles)

    def end_epoch(self, vpages: np.ndarray) -> int:
        """Decide migrations from one epoch's demand-miss page stream.

        Args:
            vpages: Page-table keys (core-prefixed vpage numbers) of the
                epoch's demand misses.

        Returns:
            Cycles of migration overhead to charge to the core.
        """
        self.stats.n_epochs += 1
        if len(vpages) == 0:
            return 0
        pages, counts = np.unique(vpages, return_counts=True)
        order = np.argsort(counts)[::-1]
        # Refresh heat for already-promoted pages.
        page_list = pages.tolist()
        count_list = counts.tolist()
        for vp, c in zip(page_list, count_list):
            if vp in self._resident_heat:
                self._resident_heat[vp] = c
        pt = self.allocator.page_table
        pool = self.allocator.pools[self.target_group]
        overhead = 0
        moved = 0
        for i in order.tolist():
            if moved >= self.config.max_migrations_per_epoch:
                break
            vp, heat = page_list[i], count_list[i]
            group, _ = pt.lookup(vp)
            if group == self.target_group:
                continue
            frame = pool.allocate()
            if frame is None:
                victim = self._coldest_resident()
                if victim is None or self._resident_heat[victim] >= heat:
                    break  # nothing colder to evict — stop promoting
                frame, demoted_to = self._demote(victim)
                overhead += self._charge_copy(self.target_group, demoted_to)
                self.stats.n_swaps += 1
            old_group, old_frame = pt.remap(vp, self.target_group, frame)
            self.allocator.pools[old_group].free(old_frame)
            overhead += self._charge_copy(old_group, self.target_group)
            self._resident_heat[vp] = heat
            self._origin[vp] = old_group
            self.stats.n_migrations += 1
            moved += 1
        return overhead

    def _coldest_resident(self) -> int | None:
        if not self._resident_heat:
            return None
        return min(self._resident_heat, key=self._resident_heat.get)

    def _demote(self, vpage: int) -> tuple[int, int]:
        """Move a promoted page back to the group it came from, or to
        the first other pool with room when that one is full; returns
        the freed target-group frame and the group the page went to (the
        one its copy is charged to)."""
        pt = self.allocator.page_table
        _, frame = pt.lookup(vpage)
        for group in (self._origin[vpage], *self.allocator.pools):
            if group == self.target_group:
                continue
            new_frame = self.allocator.pools[group].allocate()
            if new_frame is not None:
                pt.remap(vpage, group, new_frame)
                del self._resident_heat[vpage]
                del self._origin[vpage]
                return frame, group
        raise RuntimeError("no pool has room to demote into")
