"""Epoch replay, and the hot-page migration driver (the MOCA alternative).

:func:`run_epochs` is the one epoch loop of the sim layer: it replays a
booted single-core run's miss stream in fixed-length epochs and lets a
hook act between them — the hot-page migrator here, the online guidance
service in :mod:`repro.sim.online`.  Whatever overhead the hook reports
(page copies, TLB shootdowns) is charged to the core before the next
epoch starts.

The migration run itself: pages start wherever first-touch demand
paging puts them under the power-first chain (a migration system has no
profile, so everything begins in the cheap module); after each epoch
the migrator promotes the epoch's hottest pages.  Migration runs are
full :class:`~repro.sim.spec.RunSpec` citizens —
``RunSpec(..., policy="homogen", migration=MigrationConfig(...))``
dispatches here through :func:`repro.sim.run`, so they get result-cache
entries, ``run_meta`` provenance, and unit telemetry like every other
run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.cpu.core import CoreParams, CoreResult, InOrderWindowCore
from repro.cpu.hierarchy import MissStream
from repro.moca.allocation import HomogeneousPolicy
from repro.obs.registry import OBS
from repro.sim.metrics import RunMetrics
from repro.sim.single import Booted, boot, finish
from repro.trace.events import PAGE_BYTES
from repro.vm.migration import HotPageMigrator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.spec import RunSpec

def run_epochs(booted: Booted, epoch_misses: int,
               after: Callable[[int, MissStream, CoreResult, int], int], *,
               before: Callable[[int], None] | None = None) -> CoreResult:
    """Replay ``booted``'s one stream in epochs of ``epoch_misses``
    records; return the whole run as one result.

    ``before(epoch)`` runs ahead of each epoch; ``after(epoch, slice,
    result, instructions)`` runs behind it and returns the cycles its
    work costs the core.  Epochs slice one translation (of records from
    ``tr_start`` on); the rest of the stream is re-translated only after
    the page table changed.
    """
    stream, memsys, plan = booted.streams[0], booted.memsys, booted.plan
    pt = booted.allocator.page_table
    version = pt.version  # the state plan.groups/gaddrs translate
    groups, gaddrs, tr_start = plan.groups[0], plan.gaddrs[0], 0
    n = len(stream)
    epoch_len = max(1, epoch_misses)
    cycle = 0
    inst_prev = 0
    results: list[CoreResult] = []
    start = 0
    epoch = 0
    while start < n:
        if before is not None:
            before(epoch)
        stop = min(n, start + epoch_len)
        sl = stream.slice(start, stop)
        if pt.version != version:
            pages, inverse = stream.page_split()
            groups, gaddrs = pt.translate_lines(
                stream.vline[start:], (pages, inverse[start:]))
            version, tr_start = pt.version, start
        core = InOrderWindowCore(
            sl, groups[start - tr_start:stop - tr_start],
            gaddrs[start - tr_start:stop - tr_start],
            start_cycle=cycle, inst_prev=inst_prev)
        res = core.run_to_completion(memsys)
        results.append(res)
        inst_now = int(sl.inst[-1])
        cycle = res.cycles + after(epoch, sl, res, inst_now - inst_prev)
        inst_prev = inst_now
        start = stop
        epoch += 1
    # Compute tail after the last miss (the per-slice replays add none).
    cycle += CoreParams().cycles_for(stream.total_instructions - inst_prev)
    return _merge_results(results, cycle, stream.total_instructions)


def _run_migration(spec: "RunSpec") -> RunMetrics:
    """Migration driver behind :func:`repro.sim.run`."""
    migration = spec.migration
    with OBS.span(f"run.{spec.workload}.migration", system=spec.config):
        # No profile: everything demand-pages through the POW chain first.
        booted = boot(spec, "migration", HomogeneousPolicy, faults=None)
        migrator = HotPageMigrator(booted.allocator, booted.memsys,
                                   migration)

        def after(epoch: int, sl: MissStream, res: CoreResult,
                  instructions: int) -> int:
            return migrator.end_epoch(sl.vline[sl.demand_mask] // PAGE_BYTES)

        total = run_epochs(booted, migration.epoch_misses, after)
        return finish(spec, "migration", [total], booted.memsys,
                      migration=migrator.stats.to_dict(),
                      migration_config=migration.to_dict(),
                      accesses=spec.n_accesses)


def _merge_results(results: list[CoreResult], final_cycle: int,
                   total_instructions: int) -> CoreResult:
    """Fold per-epoch results into one whole-run result."""
    merged = CoreResult(
        core_id=0,
        cycles=final_cycle,
        total_instructions=total_instructions,
        n_demand=sum(r.n_demand for r in results),
        n_load_misses=sum(r.n_load_misses for r in results),
        n_writebacks=sum(r.n_writebacks for r in results),
        n_episodes=sum(r.n_episodes for r in results),
        mem_access_cycles=sum(r.mem_access_cycles for r in results),
        load_stall_cycles=sum(r.load_stall_cycles for r in results),
    )
    for r in results:
        for k, v in r.stall_by_obj.items():
            merged.stall_by_obj[k] = merged.stall_by_obj.get(k, 0) + v
        for k, v in r.load_misses_by_obj.items():
            merged.load_misses_by_obj[k] = (
                merged.load_misses_by_obj.get(k, 0) + v)
        for k, v in r.demand_by_obj.items():
            merged.demand_by_obj[k] = merged.demand_by_obj.get(k, 0) + v
    return merged
