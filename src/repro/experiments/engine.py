"""Run-granularity sweep scheduler backed by the persistent result cache.

The engine turns a list of :class:`~repro.sim.spec.RunSpec` units into
:class:`~repro.sim.metrics.RunMetrics`, in order, by:

1. consulting the active :class:`~repro.experiments.cache.ResultCache`
   (if any) for each spec — a hit costs one JSON read instead of a
   simulation;
2. scheduling the misses across worker processes at **run granularity**
   via :func:`repro.experiments.resilience.run_resilient`: 6 systems x N
   workloads saturate ``REPRO_WORKERS`` workers, and a crashed worker,
   hung unit, or transient error costs retries — not the campaign
   (see the resilience module for timeouts, backoff, pool rebuilds, and
   serial degradation);
3. storing every fresh result back into the cache — successes are
   persisted even when sibling units fail terminally
   (:class:`~repro.experiments.resilience.SweepFailure`), so an
   interrupted or partially-failed sweep resumes where it stopped and a
   repeated campaign after a no-op change is near-instant.

Units are enqueued in workload order and — when ``REPRO_BATCH_UNITS``
(or the adaptive default) says so — dispatched as workload-major
*batches*: several first-attempt units of one workload share a single
future, amortizing pickle/IPC and keeping each worker's resident
caches (``filtered_stream`` memo, mmap stream store, replay decode
tables) hot.  Retried units always travel alone, so timeout/retry
granularity is unchanged where it matters; a failed unit inside a
batch is re-enqueued individually while its siblings' results stand.

Every knob comes from :mod:`repro.util.settings`.  :func:`configure`
(the CLIs' ``--cache-dir``/``--no-cache``/``--refresh`` flags) is an
``update`` of those settings, and so is any other override
(``settings.update(workers=..., telemetry=...)``).  The cache directory
also roots the :mod:`repro.sim.stream_store` — the persistent
miss-stream store that lets *worker processes* skip re-filtering traces
the machine has already filtered — at ``<cache-dir>/streams``, and the
chunked-trace store at ``<cache-dir>/traces``.  Worker processes receive
the settings as a pool-initializer argument, so they make the same
choices.  ``--no-cache`` disables both caches; ``--refresh`` invalidates
both.  Per-phase wall times are accumulated in :func:`sweep_seconds` and
land in the campaign manifest next to the cache and stream-store hit
ratios.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, Sequence

from repro.experiments.cache import ResultCache
from repro.experiments.resilience import (
    SweepFailure,
    chaos_probe,
    current_batch_size,
    run_resilient,
)
from repro.obs import telemetry as obstel
from repro.obs.registry import OBS
from repro.sim import stream_store
from repro.sim.metrics import RunMetrics
from repro.sim.spec import RunSpec, run
from repro.util import settings
from repro.util.castore import Selection

__all__ = [
    "DEFAULT_CACHE_DIR",
    "active_cache",
    "add_observer",
    "cache_stats",
    "campaign_telemetry",
    "configure",
    "dashboard_stats",
    "dispatch_stats",
    "execute",
    "profile_stats",
    "remove_observer",
    "reset",
    "resilience_stats",
    "run_cached",
    "sweep_seconds",
    "sweep_workers",
    "telemetry_stats",
    "unit_telemetry_records",
]

#: Where the experiment CLIs cache results unless told otherwise.
DEFAULT_CACHE_DIR = Path("results") / ".cache"

#: Adaptive batching aims for futures of about this much work — long
#: enough to amortize pickle/IPC and warm worker caches, short enough
#: that retry/timeout granularity stays useful.
TARGET_BATCH_SECONDS = 2.0
#: Batch size used before any telemetry exists to estimate unit cost.
DEFAULT_BATCH_UNITS = 4
#: Never batch wider than this, whatever the cost estimate says.
MAX_BATCH_UNITS = 16

#: The result cache the settings' ``cache_dir`` names (None = none).
_cache = Selection("cache_dir", None, ResultCache)
_sweep_seconds: dict[str, float] = {}
#: Accumulated resilience tallies across execute() calls (manifest).
_resilience: dict = {}
#: Campaign telemetry fold (see repro.obs.telemetry); populated only
#: while the ``telemetry`` setting is on (the experiments CLI default).
_campaign = obstel.CampaignTelemetry()
_unit_records: list[obstel.UnitTelemetry] = []
#: Merged cProfile rows: (file, line, func) -> [cc, nc, tt, ct].
_profile: dict[tuple, list] = {}
#: Live observers of execute() progress (the --dashboard reporter).
_observers: list[Callable[[dict], None]] = []
#: Accumulated dispatch tallies across execute() calls (manifest).
_dispatch: dict = {}


def sweep_workers() -> int:
    """Worker processes for sweeps (the ``workers`` setting, default 1)."""
    return settings.current().workers


# ---- cache wiring ----------------------------------------------------------


def configure(directory: str | Path | None, *,
              refresh: bool = False) -> ResultCache | None:
    """Select the process-wide result cache (and the miss-stream store).

    ``directory=None`` disables persistent caching entirely (the
    ``--no-cache`` semantics); otherwise a fresh :class:`ResultCache`
    (with fresh stats) is installed.  Returns the active cache.

    This is a :func:`repro.util.settings.update`: the stream store
    follows along — disabled with the cache, otherwise rooted at the
    ``stream_store_dir`` setting when that is set (the empty string
    keeps it disabled) or ``<directory>/streams`` — and ``refresh``
    carries over to it.
    """
    if directory is None:
        settings.update(cache_dir=None, stream_store_dir="", refresh=False)
    else:
        settings.update(cache_dir=str(directory), refresh=refresh)
    _cache.reset()  # rebuilt from the new settings, with fresh stats
    stream_store.reset()
    return _cache.active()


def _auto_batch_units(n_units: int, workers: int) -> int:
    """Adaptive batch width for one execute() wave.

    Serial sweeps and sweeps that cannot fill every worker twice gain
    nothing from batching.  Otherwise the width targets
    :data:`TARGET_BATCH_SECONDS` of work per future using the campaign
    telemetry's mean unit wall time when available, clamped so every
    worker still gets work and retry granularity stays sane.
    """
    if workers <= 1 or n_units <= workers:
        return 1
    size = DEFAULT_BATCH_UNITS
    if _campaign.units and _campaign.wall_s > 0:
        mean_s = _campaign.wall_s / _campaign.units
        if mean_s > 0:
            size = max(1, int(TARGET_BATCH_SECONDS / mean_s))
    fair_share = -(-n_units // workers)  # ceil: keep every worker busy
    return max(1, min(size, MAX_BATCH_UNITS, fair_share))


def batch_units_for(n_units: int, workers: int) -> int:
    """The dispatch width execute() will use (the ``batch_units`` setting)."""
    width = settings.current().batch_units
    if width is None:
        return _auto_batch_units(n_units, workers)
    return max(1, min(width, MAX_BATCH_UNITS))


def dispatch_stats() -> dict | None:
    """Manifest-ready dispatch tallies (``None`` = nothing batched)."""
    if not _dispatch:
        return None
    return {
        "batches": _dispatch.get("batches", 0),
        "batched_units": _dispatch.get("batched_units", 0),
        "max_batch_units": _dispatch.get("max_batch_units", 0),
    }


def resilience_stats() -> dict | None:
    """Manifest-ready resilience tallies (``None`` = nothing simulated)."""
    if not _resilience:
        return None
    return {
        "units": _resilience.get("units", 0),
        "retries": _resilience.get("retries", 0),
        "timeouts": _resilience.get("timeouts", 0),
        "pool_breaks": _resilience.get("pool_breaks", 0),
        "degraded_serial": _resilience.get("degraded_serial", False),
        "failed_units": list(_resilience.get("failed_units", [])),
    }


# ---- telemetry wiring ------------------------------------------------------


def telemetry_stats() -> dict | None:
    """Manifest-ready campaign telemetry (``None`` = nothing captured)."""
    if _campaign.units == 0 and _campaign.cached_units == 0:
        return None
    return _campaign.to_dict()


def campaign_telemetry() -> obstel.CampaignTelemetry:
    """The live campaign aggregate (empty unless telemetry is on)."""
    return _campaign


def unit_telemetry_records() -> list[obstel.UnitTelemetry]:
    """Per-unit snapshots folded so far, in completion order."""
    return list(_unit_records)


def profile_stats(top: int = 50) -> list[dict] | None:
    """Merged cProfile hotspots across units, by cumulative time."""
    if not _profile:
        return None
    ranked = sorted(_profile.items(), key=lambda kv: -kv[1][3])[:top]
    return [
        {"file": f, "line": line, "func": func, "primcalls": cc,
         "ncalls": nc, "tottime_s": round(tt, 6), "cumtime_s": round(ct, 6)}
        for (f, line, func), (cc, nc, tt, ct) in ranked
    ]


def dashboard_stats() -> dict:
    """Live stats bundle for the ``--dashboard`` reporter."""
    return {
        "cache": cache_stats(),
        "streams": stream_store.stats_dict(),
        "resilience": resilience_stats(),
        "hot_spans": _campaign.hot_spans(3),
        "telemetry_units": _campaign.units,
        "wall_s": round(_campaign.wall_s, 3),
    }


def add_observer(fn: Callable[[dict], None]) -> None:
    """Subscribe to execute() progress events.

    Events are dicts: ``{"kind": "phase_begin", "phase", "total",
    "cached"}``, ``{"kind": "unit_done", "phase", "label", "ok"}``,
    ``{"kind": "phase_end", "phase"}``.  Observer exceptions propagate —
    they run in the campaign's parent process.
    """
    _observers.append(fn)


def remove_observer(fn: Callable[[dict], None]) -> None:
    if fn in _observers:
        _observers.remove(fn)


def _notify(event: dict) -> None:
    for fn in _observers:
        fn(event)


def _fold_unit(metrics: RunMetrics | None) -> None:
    """Parent-side fold of one terminal unit outcome.

    Pops the telemetry/profile payloads off ``metrics.meta`` *before*
    the result reaches the persistent cache, so cache artefacts stay
    clean and cache hits never contribute stale telemetry.  Warnings
    raised in (quiet) workers are reprinted here, once per distinct key
    per campaign, via the parent registry's own warn-once memory.
    """
    if metrics is None:
        _campaign.failed_units += 1
        return
    ut_doc = metrics.meta.pop("unit_telemetry", None)
    if ut_doc is not None:
        ut = obstel.UnitTelemetry.from_dict(ut_doc)
        _unit_records.append(ut)
        _campaign.add_unit(ut)
        for key, message in ut.warnings.items():
            OBS.warn(message, key=key)
    rows = metrics.meta.pop("unit_profile", None)
    if rows:
        for f, line, func, cc, nc, tt, ct in rows:
            agg = _profile.setdefault((f, line, func), [0, 0, 0.0, 0.0])
            agg[0] += cc
            agg[1] += nc
            agg[2] += tt
            agg[3] += ct


def reset() -> None:
    """Drop explicit configuration, phase timings, and resilience state.

    Uninstalls the settings, so the next :func:`active_cache` call
    falls back to ``REPRO_CACHE_DIR`` (or no cache).  The CLIs call this
    on exit so embedded invocations (tests, notebooks) don't leak one
    command's configuration into the next.
    """
    global _campaign
    settings.reset()
    _cache.reset()
    _sweep_seconds.clear()
    _resilience.clear()
    _dispatch.clear()
    _campaign = obstel.CampaignTelemetry()
    _unit_records.clear()
    _profile.clear()
    _observers.clear()
    stream_store.reset()


def active_cache() -> ResultCache | None:
    """The cache the engine will consult, or ``None``."""
    return _cache.active()


def cache_stats() -> dict | None:
    """Manifest-ready stats of the active cache (``None`` = no cache).

    When the miss-stream store is also active its tallies ride along
    under the ``"streams"`` key — the manifest's cache block then
    reports the stream-store hit ratio next to the run-cache hit ratio.
    """
    cache = active_cache()
    if cache is None:
        return None
    stats = {"directory": str(cache.directory), **cache.stats.to_dict()}
    streams = stream_store.stats_dict()
    if streams is not None:
        stats["streams"] = streams
    return stats


def sweep_seconds() -> dict[str, float]:
    """Wall time per engine phase (e.g. ``sweep.single``) this process."""
    return dict(_sweep_seconds)


# ---- execution -------------------------------------------------------------


def _execute_spec(spec: RunSpec) -> RunMetrics:
    """Top-level (picklable) worker entry: simulate one run unit.

    The chaos probe makes this the fault site harness tests exercise
    (worker crash / hung unit / transient error); it is a no-op unless
    the ``chaos_dir`` setting is set.
    """
    chaos_probe()
    if not obstel.capture_enabled():
        return _run_unit(spec)
    cap = obstel.begin_unit()
    try:
        # Inside the capture on purpose: the dispatch counters land in
        # this unit's telemetry delta and fold campaign-wide, like the
        # warnings a quiet worker ships back for the parent's
        # _fold_unit to reprint (once).
        bs = current_batch_size()
        if bs > 1:
            OBS.add("dispatch.batched_units")
            OBS.add("dispatch.batch_size", bs)
        metrics = _run_unit(spec)
    except BaseException:
        obstel.abort_unit(cap)
        raise
    ut = obstel.end_unit(cap, label=spec.describe(), meta=metrics.meta)
    metrics.meta["unit_telemetry"] = ut.to_dict()
    return metrics


def _run_unit(spec: RunSpec) -> RunMetrics:
    """Simulate one unit, optionally under cProfile (``profile`` setting).

    The per-unit ``pstats`` table rides back in ``meta["unit_profile"]``
    as picklable rows trimmed to the top entries by cumulative time;
    the engine merges them across units into :func:`profile_stats`.
    """
    if not settings.current().profile:
        return run(spec)
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    try:
        metrics = run(spec)
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats  # (file, line, func) -> tuple
    ranked = sorted(stats.items(), key=lambda kv: -kv[1][3])[:200]
    metrics.meta["unit_profile"] = [
        [f, line, func, cc, nc, tt, ct]
        for (f, line, func), (cc, nc, tt, ct, _callers) in ranked
    ]
    return metrics


def _effective_workers(n_units: int) -> int:
    """Fan-out actually used: requested workers, capped by CPUs and work.

    Worker processes cannot share the in-process memoization
    (``filtered_stream``, profiling), so oversubscribing the machine
    only duplicates that work — ``REPRO_WORKERS=4`` on a single-CPU box
    must degrade to the (faster) serial path, not slow the sweep down.
    ``REPRO_OVERSUBSCRIBE=1`` lifts the CPU cap (resilience tests need
    real worker processes even on one-CPU machines).
    """
    campaign = settings.current()
    workers = campaign.workers
    if campaign.oversubscribe:
        return max(1, min(workers, n_units))
    cpus = os.cpu_count() or 1
    if workers > cpus:
        OBS.warn(f"REPRO_WORKERS={workers} exceeds the {cpus} available "
                 f"CPU(s); capping at {cpus}")
    return max(1, min(workers, cpus, n_units))


def _tally(report) -> None:
    """Fold one ExecutionReport into the process-wide manifest stats."""
    _resilience["units"] = (_resilience.get("units", 0)
                            + len(report.results))
    _resilience["retries"] = _resilience.get("retries", 0) + report.retries
    _resilience["timeouts"] = (_resilience.get("timeouts", 0)
                               + report.timeouts)
    _resilience["pool_breaks"] = (_resilience.get("pool_breaks", 0)
                                  + report.pool_breaks)
    _resilience["degraded_serial"] = (_resilience.get("degraded_serial",
                                                      False)
                                      or report.degraded_serial)
    _resilience.setdefault("failed_units", []).extend(
        f.to_dict() for f in report.failures)


def execute(specs: Sequence[RunSpec], *,
            phase: str | None = None) -> list[RunMetrics]:
    """Resolve every spec, via cache or simulation; preserves order.

    Cache misses run through :func:`repro.experiments.resilience
    .run_resilient` — per-unit retries with backoff, wall-clock
    timeouts, worker-pool rebuilds, and serial degradation after
    repeated breaks.  Every successful unit is cached *before* terminal
    failures surface, so a partially-failed sweep leaves its survivors
    behind and a retried campaign only re-simulates the losers.

    Args:
        phase: Label under which the call's wall time is accumulated
            (shows up in the campaign manifest's ``sweep_seconds``).

    Raises:
        SweepFailure: One or more units failed terminally (after all
            retries).  The exception lists them; cached siblings are
            unaffected.
    """
    t0 = time.perf_counter()
    cache = active_cache()
    telemetry_on = obstel.capture_enabled()
    results: list[RunMetrics | None] = [None] * len(specs)
    missing: list[int] = []
    for i, spec in enumerate(specs):
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            results[i] = hit
        else:
            missing.append(i)

    _notify({"kind": "phase_begin", "phase": phase, "total": len(specs),
             "cached": len(specs) - len(missing)})
    if telemetry_on:
        _campaign.cached_units += len(specs) - len(missing)

    if missing:
        todo = [specs[i] for i in missing]
        workers = _effective_workers(len(todo))
        batch_units = batch_units_for(len(todo), workers)

        def _on_unit(j: int, metrics: RunMetrics | None) -> None:
            _fold_unit(metrics)
            # Persist incrementally, as units land (telemetry has been
            # popped off meta by _fold_unit): a campaign killed
            # mid-batch resumes from its survivors, not from the last
            # fully-completed execute() call.
            if metrics is not None and cache is not None:
                cache.put(todo[j], metrics)
            _notify({"kind": "unit_done", "phase": phase,
                     "label": todo[j].describe(),
                     "ok": metrics is not None})

        def _on_batch(size: int) -> None:
            _dispatch["batches"] = _dispatch.get("batches", 0) + 1
            _dispatch["batched_units"] = (
                _dispatch.get("batched_units", 0) + size)
            _dispatch["max_batch_units"] = max(
                _dispatch.get("max_batch_units", 0), size)

        report = run_resilient(todo, workers=workers,
                               runner=_execute_spec, on_unit=_on_unit,
                               batch_units=batch_units, on_batch=_on_batch)
        _tally(report)
        for i, metrics in zip(missing, report.results):
            results[i] = metrics
        if phase is not None:
            _sweep_seconds[phase] = (_sweep_seconds.get(phase, 0.0)
                                     + time.perf_counter() - t0)
        _notify({"kind": "phase_end", "phase": phase})
        if report.failures:
            raise SweepFailure(report.failures, phase=phase)
        return results  # type: ignore[return-value]

    if phase is not None:
        _sweep_seconds[phase] = (_sweep_seconds.get(phase, 0.0)
                                 + time.perf_counter() - t0)
    _notify({"kind": "phase_end", "phase": phase})
    return results  # type: ignore[return-value]


def run_cached(spec: RunSpec) -> RunMetrics:
    """One run through the cache — the single-run CLI's entry point."""
    return execute([spec])[0]
