"""Single-core runner with runtime page migration (the MOCA alternative).

Replays the miss stream in epochs: each epoch runs with the current page
table, then the migrator promotes the epoch's hottest pages and its
overhead (page copies + TLB shootdowns) is charged to the core before
the next epoch starts.  Pages start wherever first-touch demand paging
puts them under the power-first chain (a migration system has no
profile, so everything begins in the cheap module).

Migration runs are full :class:`~repro.sim.spec.RunSpec` citizens:
``RunSpec(..., policy="homogen", migration=MigrationConfig(...))``
dispatches here through :func:`repro.sim.run`, so they get result-cache
entries, ``run_meta`` provenance, and unit telemetry like every other
run.  :func:`run_single_migration` remains as the historical entry point
and routes through the engine (cached) whenever the arguments are
spec-expressible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cpu.core import CoreParams, CoreResult, InOrderWindowCore
from repro.moca.allocation import HomogeneousPolicy, plan_placement
from repro.obs.provenance import run_meta
from repro.sim.config import ALL_SYSTEMS, SystemConfig
from repro.sim.metrics import RunMetrics, collect_metrics
from repro.sim.single import filtered_stream
from repro.trace.events import PAGE_BYTES
from repro.vm.migration import HotPageMigrator, MigrationConfig, MigrationStats
from repro.workloads.inputs import REF, app_layout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.spec import RunSpec


def _run_migration(spec: "RunSpec",
                   core_params: CoreParams | None = None) -> RunMetrics:
    """Spec-driven migration run (the ``RunSpec.migration`` path)."""
    migration = spec.migration or MigrationConfig()
    config = spec.system_config
    app_name = spec.workload
    stream, _ = filtered_stream(app_name, spec.input_name, spec.n_accesses)
    layout = app_layout(app_name, spec.input_name)
    memsys = config.build()
    allocator = config.make_allocator(memsys)
    # No profile: everything demand-pages through the POW chain first.
    plan_placement([stream], HomogeneousPolicy(), allocator,
                   layouts=[layout])
    migrator = HotPageMigrator(allocator, memsys, migration)

    pt = allocator.page_table
    n = len(stream)
    epoch = max(1, migration.epoch_misses)
    cycle = 0
    inst_prev = 0
    results: list[CoreResult] = []
    start = 0
    while start < n:
        stop = min(n, start + epoch)
        sl = stream.slice(start, stop)
        groups, gaddrs = pt.translate_lines(sl.vline)
        core = InOrderWindowCore(sl, groups, gaddrs, core_params,
                                 start_cycle=cycle, inst_prev=inst_prev)
        res = core.run_to_completion(memsys)
        results.append(res)
        cycle = res.cycles
        inst_prev = int(sl.inst[-1])
        demand = sl.demand_mask
        cycle += migrator.end_epoch((sl.vline[demand] // PAGE_BYTES))
        start = stop

    # Compute tail after the last miss (the per-slice replays add none).
    params = core_params or CoreParams()
    cycle += params.cycles_for(stream.total_instructions - inst_prev)
    total = _merge_results(results, cycle, stream.total_instructions)
    meta = run_meta(config=config, policy="migration", workload=app_name,
                    thresholds=spec.thresholds, faults=spec.faults)
    meta["migration"] = migrator.stats.to_dict()
    meta["migration_config"] = migration.to_dict()
    meta["accesses"] = spec.n_accesses
    return collect_metrics(config.name, "migration", app_name,
                           [total], memsys, meta=meta)


def run_single_migration(app_name: str, config: SystemConfig,
                         migration: MigrationConfig | None = None,
                         input_name: str = REF, n_accesses: int = 120_000,
                         core_params: CoreParams | None = None,
                         ) -> tuple[RunMetrics, MigrationStats]:
    """Run one application under hotness-driven migration.

    Returns the usual metrics plus the migrator's cost accounting.  When
    the arguments are expressible as a :class:`~repro.sim.spec.RunSpec`
    (a registered config, default core), the run goes through the sweep
    engine — result-cached, telemetered — and the stats are rebuilt from
    the metrics' ``meta["migration"]`` block; custom core parameters
    fall back to the direct driver.
    """
    migration = migration or MigrationConfig()
    if core_params is None and ALL_SYSTEMS.get(config.name) is config:
        from repro.experiments.engine import run_cached
        from repro.sim.spec import RunSpec

        spec = RunSpec(app_name, config.name, "homogen", n_accesses,
                       input_name=input_name, migration=migration)
        metrics = run_cached(spec)
        return metrics, MigrationStats.from_dict(metrics.meta["migration"])

    # Unregistered config or custom core: run the driver directly (no
    # RunSpec identity exists for it, so no caching either).
    class _SpecView:
        """Duck-typed spec substituting the caller's config object."""

        workload = app_name
        system_config = config
        thresholds = None
        faults = None

    view = _SpecView()
    view.input_name = input_name
    view.n_accesses = n_accesses
    view.migration = migration
    metrics = _run_migration(view, core_params)
    return metrics, MigrationStats.from_dict(metrics.meta["migration"])


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
        n_prefetches=sum(r.n_prefetches for r in results),
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
