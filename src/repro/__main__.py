"""Top-level command-line interface.

Subcommands::

    python -m repro apps                      # list the workload suite
    python -m repro systems                   # list memory-system configs
    python -m repro profile mcf               # offline profile of one app
    python -m repro run mcf --system Heter-config1 --policy moca
    python -m repro runmix 2L1B1N --system Heter-config1 --policy moca
    python -m repro experiments fig08 ...     # forwards to repro.experiments
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import engine
from repro.moca.classify import classify_object, type_to_class_letter
from repro.moca.policy import policy_names
from repro.moca.profiler import profile_app
from repro.obs import OBS, ProgressReporter, write_chrome_trace, write_jsonl
from repro.sim.config import ALL_SYSTEMS
from repro.sim.metrics import RunMetrics
from repro.sim.spec import RunSpec
from repro.util import settings
from repro.workloads.mixes import MIX_NAMES
from repro.workloads.spec import APPS


def _cmd_apps(_args) -> int:
    print(f"{'app':12s} {'suite':9s} {'class':5s} {'heap MiB':>8s}  description")
    for name, spec in APPS.items():
        print(f"{name:12s} {spec.suite:9s} {spec.paper_class:5s} "
              f"{spec.heap_footprint_bytes() >> 20:8d}  {spec.description}")
    print(f"\nmulticore mixes: {', '.join(MIX_NAMES)}")
    return 0


def _cmd_systems(_args) -> int:
    for name, cfg in ALL_SYSTEMS.items():
        print(f"{name:14s} {cfg.build().describe()}")
    return 0


def _cmd_profile(args) -> int:
    p = profile_app(args.app, args.input, args.accesses)
    print(f"{args.app} ({args.input}): LLC MPKI={p.app_mpki:.2f}, "
          f"ROB stall/load-miss={p.app_stall_per_miss:.1f}")
    print(f"{'object':26s} {'MiB':>7s} {'MPKI':>8s} {'stall/miss':>10s} class")
    for prof in sorted(p.lut, key=lambda x: -x.llc_mpki):
        cls = type_to_class_letter(classify_object(prof))
        print(f"{prof.label:26s} {prof.size_bytes / (1 << 20):7.2f} "
              f"{prof.llc_mpki:8.2f} {prof.stall_per_load_miss:10.1f} {cls}")
    print("segments:", {k: round(v, 2) for k, v in p.segment_mpki.items()})
    return 0


def _print_metrics(m: RunMetrics) -> None:
    print(f"system={m.system} policy={m.policy} workload={m.workload}")
    print(f"  execution time     {m.exec_cycles:>14,d} cycles "
          f"(IPC {m.ipc:.3f})")
    print(f"  memory access time {m.mem_access_cycles:>14,d} cycles "
          f"({m.n_requests:,} requests)")
    print(f"  memory power       {m.mem_power_w:>14.3f} W  "
          f"(row-hit rate {m.row_hit_rate:.1%})")
    print(f"  memory EDP         {m.memory_edp:>14.6g}")
    print(f"  system EDP         {m.system_edp:>14.6g}")


def _emit(m: RunMetrics, as_json: bool) -> None:
    if as_json:
        import json
        print(json.dumps(m.to_dict(), indent=1))
    else:
        _print_metrics(m)


def _run_spec(args, workload: str) -> int:
    spec = RunSpec(workload=workload, config=args.system,
                   policy=args.policy, n_accesses=args.accesses)
    if args.profile:
        settings.update(profile=True)
    m = engine.run_cached(spec)
    _emit(m, args.json)
    stats = engine.cache_stats()
    if stats is not None:
        print(f"[result cache: {stats['hits']} hits, "
              f"{stats['misses']} misses ({stats['directory']})]",
              file=sys.stderr)
    if args.profile:
        rows = engine.profile_stats(top=10)
        if rows is None:
            print("[profile: run served from cache — nothing profiled; "
                  "re-run with --refresh]", file=sys.stderr)
        else:
            print("[profile: top 10 by cumulative time]", file=sys.stderr)
            for r in rows:
                loc = f"{r['file']}:{r['line']}".rsplit("/", 1)[-1]
                print(f"  {r['cumtime_s']:8.3f}s  {r['ncalls']:>8} calls  "
                      f"{r['func']} ({loc})", file=sys.stderr)
    return 0


def _cmd_run(args) -> int:
    return _run_spec(args, args.app)


def _cmd_runmix(args) -> int:
    return _run_spec(args, args.mix)


def _cmd_experiments(args) -> int:
    from repro.experiments.__main__ import main as exp_main
    return exp_main(args.rest)


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="persistent result-cache directory (default: "
                             "$REPRO_CACHE_DIR, else no cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent result cache")
    parser.add_argument("--refresh", action="store_true",
                        help="re-simulate and overwrite the cached result")


def _cache_begin(args) -> None:
    """Install the result cache selected by the cache flags.

    Unlike the campaign CLI (``repro.experiments``), single runs default
    to *no* persistent cache unless ``--cache-dir`` or ``REPRO_CACHE_DIR``
    says otherwise.
    """
    if getattr(args, "no_cache", False):
        engine.configure(None)
    elif getattr(args, "cache_dir", None):
        engine.configure(args.cache_dir,
                         refresh=getattr(args, "refresh", False))
    elif getattr(args, "refresh", False):
        cache_dir = settings.current().cache_dir
        if cache_dir:
            engine.configure(cache_dir, refresh=True)


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome trace-event JSON "
                             "(chrome://tracing / Perfetto) to PATH")
    parser.add_argument("--obs-dump", metavar="PATH", default=None,
                        help="write the structured JSONL event log to PATH")
    parser.add_argument("--progress", action="store_true",
                        help="narrate span completions on stderr")


def _obs_begin(args) -> None:
    """Enable the registry if any observability flag was given."""
    if (getattr(args, "trace", None) or getattr(args, "obs_dump", None)
            or getattr(args, "progress", False)):
        OBS.enable()
        if args.progress:
            ProgressReporter().attach(OBS)


def _obs_end(args) -> None:
    if getattr(args, "trace", None):
        path = write_chrome_trace(OBS, args.trace)
        print(f"chrome trace written to {path}", file=sys.stderr)
    if getattr(args, "obs_dump", None):
        path = write_jsonl(OBS, args.obs_dump)
        print(f"obs event log written to {path}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="MOCA reproduction command-line interface")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list the workload suite").set_defaults(
        fn=_cmd_apps)
    sub.add_parser("systems", help="list system configs").set_defaults(
        fn=_cmd_systems)

    p = sub.add_parser("profile", help="offline-profile one application")
    p.add_argument("app", choices=sorted(APPS))
    p.add_argument("--input", default="train", choices=("train", "ref"))
    p.add_argument("--accesses", type=int, default=120_000)
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("run", help="run one application on one system")
    p.add_argument("app", choices=sorted(APPS))
    p.add_argument("--system", default="Heter-config1",
                   choices=sorted(ALL_SYSTEMS))
    p.add_argument("--policy", default="moca", metavar="POLICY",
                   help="registered placement policy, optionally "
                        "parameterized as name:k=v,... (e.g. "
                        "'knapsack:fast_mb=128'); registered: "
                        f"{', '.join(policy_names())}")
    p.add_argument("--accesses", type=int, default=120_000)
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON")
    p.add_argument("--profile", action="store_true",
                   help="run under cProfile and print the top hotspots")
    _add_obs_flags(p)
    _add_cache_flags(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("runmix", help="run a 4-app workload set")
    p.add_argument("mix", choices=MIX_NAMES)
    p.add_argument("--system", default="Heter-config1",
                   choices=sorted(ALL_SYSTEMS))
    p.add_argument("--policy", default="moca", metavar="POLICY",
                   help="registered placement policy, optionally "
                        "parameterized as name:k=v,... (e.g. "
                        "'knapsack:fast_mb=128'); registered: "
                        f"{', '.join(policy_names())}")
    p.add_argument("--accesses", type=int, default=60_000)
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON")
    p.add_argument("--profile", action="store_true",
                   help="run under cProfile and print the top hotspots")
    _add_obs_flags(p)
    _add_cache_flags(p)
    p.set_defaults(fn=_cmd_runmix)

    p = sub.add_parser("experiments",
                       help="regenerate paper tables/figures")
    p.add_argument("rest", nargs=argparse.REMAINDER)
    p.set_defaults(fn=_cmd_experiments)

    args = parser.parse_args(argv)
    _obs_begin(args)
    _cache_begin(args)
    try:
        return args.fn(args)
    finally:
        _obs_end(args)
        engine.reset()


if __name__ == "__main__":
    sys.exit(main())
