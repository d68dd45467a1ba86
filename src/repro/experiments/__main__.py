"""Command-line entry point: regenerate any paper table/figure.

Usage::

    python -m repro.experiments fig08
    python -m repro.experiments table3 headline
    python -m repro.experiments all --fidelity tiny
    python -m repro.experiments fig08 --progress --trace out.json
    python -m repro.experiments all --save results/ --cache-dir results/.cache
    python -m repro.experiments resilience --fidelity tiny --save results/

Simulation results are cached on disk (default ``results/.cache``,
override with ``--cache-dir`` or ``REPRO_CACHE_DIR``; ``--no-cache``
disables, ``--refresh`` re-simulates and overwrites), so repeating a
campaign reuses every run whose :class:`~repro.sim.spec.RunSpec` is
unchanged.  Filtered miss streams are persisted alongside in
``<cache-dir>/streams`` (see :mod:`repro.sim.stream_store`), so sweep
worker processes filter each trace once per machine; ``--no-cache`` and
``--refresh`` extend to that store too.

Campaigns are resilient by default: a figure whose sweep fails
terminally (see :mod:`repro.experiments.resilience`) is recorded as
``failed`` in the manifest and its siblings still run (``--fail-fast``
restores abort-on-first-error).  With multiple workers the engine
dispatches sweep units in workload-major batches sized from campaign
telemetry (``REPRO_BATCH_UNITS``: ``auto``/unset adapts, ``1`` disables,
``N`` pins); retried units always travel alone.  With ``--save``, a checkpoint journal
(``<save>/.campaign.json``) records per-figure completion, so an
interrupted invocation resumes where it stopped — completed figures are
reloaded from their artefacts instead of recomputed (``--no-resume``
starts over).  ``--unit-timeout`` / ``--max-attempts`` (or the
``REPRO_UNIT_TIMEOUT`` / ``REPRO_MAX_ATTEMPTS`` variables) bound how
long the engine fights for each simulation unit.

Campaign telemetry (:mod:`repro.obs.telemetry`) is on by default: each
sweep unit — including those in worker processes — ships back counters,
span histograms, and resource usage, folded into the manifest's
``telemetry`` block and, with ``--save``, a ``telemetry.jsonl`` artefact
plus a merged multi-lane Chrome ``trace.json`` (``--no-telemetry`` opts
out).  ``--dashboard`` attaches a live stderr status line and heartbeat
file; ``--profile`` wraps each unit in cProfile and writes merged
hotspots to ``profile.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.experiments import engine
from repro.experiments import runner as _runner
from repro.experiments.resilience import CampaignJournal, JOURNAL_NAME
from repro.obs import OBS, Dashboard, ProgressReporter, run_meta, \
    write_chrome_trace, write_jsonl
from repro.obs import telemetry as obstel
from repro.obs.dashboard import HEARTBEAT_NAME
from repro.util import settings
from repro.experiments import (
    capacity_sweep, devices, drift_sweep, fig01, fig02, fig08, fig09,
    fig10, fig11,
    fig12, fig13, fig14, fig15, fig16, headline, overhead,
    resilience_sweep, smoke, tables, taillat, thresholds_sweep, variance,
)

EXPERIMENTS = {
    "fig01": fig01.compute,
    "fig02": fig02.compute,
    "table1": lambda fidelity: tables.table1(),
    "table2": lambda fidelity: tables.table2(),
    "table3": tables.table3,
    "fig08": fig08.compute,
    "fig09": fig09.compute,
    "fig10": fig10.compute,
    "fig11": fig11.compute,
    "fig12": fig12.compute,
    "fig13": fig13.compute,
    "fig14": fig14.compute,
    "fig15": fig15.compute,
    "fig16": fig16.compute,
    "overhead": overhead.compute,
    "headline": headline.compute,
    "thresholds": thresholds_sweep.compute,
    "capacity": capacity_sweep.compute,
    "drift": drift_sweep.compute,
    "devices": devices.compute,
    "variance": variance.compute,
    "taillat": taillat.compute,
    "smoke": smoke.compute,
    "resilience": resilience_sweep.compute,
}

#: The paper's own artefacts — what ``all`` regenerates.  The remaining
#: ids (thresholds, variance, resilience, smoke, ...) are extensions;
#: run them by name or via ``extras``.
PAPER_SET = (
    "fig01", "fig02", "table1", "table2", "table3",
    "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
    "fig14", "fig15", "fig16", "overhead", "headline",
)
EXTRAS_SET = tuple(sorted(set(EXPERIMENTS) - set(PAPER_SET)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the MOCA paper's tables and figures.")
    parser.add_argument("which", nargs="+",
                        choices=sorted(EXPERIMENTS) + ["all", "extras"],
                        help="experiment id(s), 'all' (paper artefacts) "
                             "or 'extras' (ablation studies)")
    parser.add_argument("--fidelity", default="default",
                        choices=sorted(_runner.FIDELITIES),
                        help="trace-length preset (default: default)")
    parser.add_argument("--bars", action="store_true",
                        help="render ASCII bar charts instead of tables")
    parser.add_argument("--save", metavar="DIR", default=None,
                        help="also write JSON artefacts into DIR")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome trace-event JSON "
                             "(chrome://tracing / Perfetto) to PATH")
    parser.add_argument("--obs-dump", metavar="PATH", default=None,
                        help="write the structured JSONL event log to PATH")
    parser.add_argument("--progress", action="store_true",
                        help="narrate sweep/run completions on stderr")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="persistent result-cache directory (default: "
                             "$REPRO_CACHE_DIR or results/.cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent result cache")
    parser.add_argument("--refresh", action="store_true",
                        help="re-simulate every run and overwrite its "
                             "cached result")
    failure = parser.add_mutually_exclusive_group()
    failure.add_argument("--keep-going", dest="keep_going",
                         action="store_true", default=True,
                         help="record a failed figure and continue with "
                              "its siblings (default)")
    failure.add_argument("--fail-fast", dest="keep_going",
                         action="store_false",
                         help="abort the campaign on the first failed "
                              "figure")
    parser.add_argument("--unit-timeout", metavar="SECONDS", type=float,
                        default=None,
                        help="wall-clock timeout per simulation unit "
                             "(default: $REPRO_UNIT_TIMEOUT or none)")
    parser.add_argument("--max-attempts", metavar="N", type=int,
                        default=None,
                        help="attempts per simulation unit before it "
                             "fails terminally (default: "
                             "$REPRO_MAX_ATTEMPTS or 3)")
    parser.add_argument("--no-resume", action="store_true",
                        help="ignore the campaign checkpoint journal in "
                             "--save DIR and recompute every figure")
    parser.add_argument("--no-telemetry", action="store_true",
                        help="disable per-unit campaign telemetry capture "
                             "(manifest 'telemetry' block, telemetry.jsonl, "
                             "merged trace.json)")
    parser.add_argument("--dashboard", action="store_true",
                        help="live campaign status line on stderr plus a "
                             "machine-readable <save>/.heartbeat.json")
    parser.add_argument("--profile", action="store_true",
                        help="wrap each simulation unit in cProfile and "
                             "write merged hotspots to <save>/profile.json")
    args = parser.parse_args(argv)

    if args.trace or args.obs_dump or args.progress:
        OBS.enable()
        if args.progress:
            ProgressReporter().attach(OBS)

    if args.no_cache:
        engine.configure(None)
    else:
        engine.configure(args.cache_dir
                         or settings.current().cache_dir
                         or engine.DEFAULT_CACHE_DIR,
                         refresh=args.refresh)
    retry = settings.current().retry
    if args.unit_timeout is not None:
        retry = replace(retry, unit_timeout=args.unit_timeout)
    if args.max_attempts is not None:
        retry = replace(retry, max_attempts=args.max_attempts)
    settings.update(retry=retry, telemetry=not args.no_telemetry,
                    profile=args.profile)
    obstel.mark_campaign_start()

    fidelity = _runner.FIDELITIES[args.fidelity]
    names: list[str] = []
    for token in args.which:
        if token == "all":
            names.extend(PAPER_SET)
        elif token == "extras":
            names.extend(EXTRAS_SET)
        else:
            names.append(token)

    journal: CampaignJournal | None = None
    if args.save:
        journal = CampaignJournal(Path(args.save) / JOURNAL_NAME,
                                  fidelity=fidelity.name)
        if args.no_resume or args.refresh:
            journal.clear()

    dash: Dashboard | None = None
    if args.dashboard:
        dash = Dashboard(
            heartbeat_path=(Path(args.save) / HEARTBEAT_NAME
                            if args.save else None),
            stats_provider=engine.dashboard_stats)
        engine.add_observer(dash.on_event)
        dash.campaign_begin(names, fidelity.name)

    try:
        from repro.experiments.store import load_figure, save_figure

        saved = []
        statuses: dict[str, dict] = {}
        failed = 0
        for name in names:
            t0 = time.time()
            if dash is not None:
                dash.figure_begin(name)
            # Resume: a figure the journal marks done, whose artefact is
            # still on disk, is reloaded instead of recomputed.
            if journal is not None and journal.is_done(name):
                artefact = Path(args.save) / f"{name}.json"
                try:
                    fig = load_figure(artefact)
                except (FileNotFoundError, OSError, ValueError):
                    fig = None
                if fig is not None:
                    print(fig.render_bars() if args.bars else fig.render())
                    print(f"[{name}: resumed from checkpoint]")
                    print()
                    statuses[name] = {"status": "resumed"}
                    saved.append(fig.figure_id)
                    if dash is not None:
                        dash.figure_end(name, "resumed")
                    continue
            try:
                with OBS.span(f"experiment.{name}", fidelity=fidelity.name):
                    fig = EXPERIMENTS[name](fidelity)
            except Exception as exc:  # noqa: BLE001 - campaign boundary
                seconds = round(time.time() - t0, 3)
                statuses[name] = {"status": "failed", "seconds": seconds,
                                  "error": f"{type(exc).__name__}: {exc}"}
                if journal is not None:
                    journal.mark(name, "failed",
                                 error=statuses[name]["error"])
                failed += 1
                print(f"[{name}: FAILED after {seconds}s: "
                      f"{type(exc).__name__}: {exc}]", file=sys.stderr)
                print()
                if dash is not None:
                    dash.figure_end(name, "failed")
                if not args.keep_going:
                    break
                continue
            seconds = round(time.time() - t0, 3)
            print(fig.render_bars() if args.bars else fig.render())
            print(f"[{name}: {seconds}s]")
            print()
            statuses[name] = {"status": "ok", "seconds": seconds}
            if dash is not None:
                dash.figure_end(name, "ok")
            if args.save:
                save_figure(fig, args.save,
                            meta=run_meta(fidelity=fidelity, experiment=name))
                saved.append(fig.figure_id)
                if journal is not None:
                    journal.mark(name, "done", seconds=seconds)
        if dash is not None:
            dash.campaign_end()
        units = engine.unit_telemetry_records()
        if args.save:
            from repro.experiments.store import write_manifest
            write_manifest(args.save, fidelity, saved, statuses=statuses)
            if engine.telemetry_stats() is not None:
                obstel.write_telemetry_jsonl(
                    Path(args.save) / "telemetry.jsonl", units,
                    engine.campaign_telemetry())
                trace_doc = obstel.merged_trace_doc(OBS, units)
                (Path(args.save) / "trace.json").write_text(
                    json.dumps(trace_doc))
            prof = engine.profile_stats()
            if prof is not None:
                (Path(args.save) / "profile.json").write_text(json.dumps(
                    {"version": 1, "units": engine.campaign_telemetry().units,
                     "entries": len(prof), "top": prof}, indent=1))
                print(f"profile hotspots written to "
                      f"{Path(args.save) / 'profile.json'}", file=sys.stderr)
            print(f"artefacts written to {args.save}/")
        telem = engine.telemetry_stats()
        if telem is not None and (telem["units"] or telem["cached_units"]):
            print(f"[telemetry: {telem['units']} units simulated "
                  f"({telem['cached_units']} cached) across "
                  f"{len(telem['workers'])} worker(s), "
                  f"{telem['wall_s']:.1f}s unit wall time]", file=sys.stderr)
        stats = engine.cache_stats()
        if stats is not None and (stats.get("hits") or stats.get("misses")):
            print(f"[result cache: {stats['hits']} hits, "
                  f"{stats['misses']} misses, {stats['stores']} stored "
                  f"({stats['directory']})]", file=sys.stderr)
        streams = (stats or {}).get("streams")
        if streams is not None and (streams["hits"] or streams["misses"]):
            print(f"[stream store: {streams['hits']} hits, "
                  f"{streams['misses']} misses, {streams['stores']} stored "
                  f"(hit ratio {streams['hit_ratio']:.2f})]", file=sys.stderr)
        disp = engine.dispatch_stats()
        if disp is not None:
            print(f"[dispatch: {disp['batches']} batch(es), "
                  f"{disp['batched_units']} unit(s) batched, "
                  f"max batch {disp['max_batch_units']}]", file=sys.stderr)
        res = engine.resilience_stats()
        if res is not None and (res["retries"] or res["timeouts"]
                                or res["pool_breaks"]
                                or res["failed_units"]):
            print(f"[resilience: {res['retries']} retries, "
                  f"{res['timeouts']} timeouts, {res['pool_breaks']} pool "
                  f"rebuilds, {len(res['failed_units'])} failed unit(s)"
                  f"{', degraded to serial' if res['degraded_serial'] else ''}"
                  f"]", file=sys.stderr)
        if args.trace:
            if units:
                # Campaign view: parent lane + one pid lane per worker,
                # re-based onto the campaign wall clock.
                path = Path(args.trace)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(
                    obstel.merged_trace_doc(OBS, units)))
            else:
                path = write_chrome_trace(OBS, args.trace)
            print(f"chrome trace written to {path}", file=sys.stderr)
        if args.obs_dump:
            path = write_jsonl(OBS, args.obs_dump)
            print(f"obs event log written to {path}", file=sys.stderr)
        return 1 if failed else 0
    finally:
        # Embedded invocations (tests) must not leak this command's
        # settings into later library use in the same process.
        engine.reset()


if __name__ == "__main__":
    sys.exit(main())
