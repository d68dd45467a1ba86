"""Layer ledger: host-time benchmark of the MOCA reproduction.

Measures what a user of the simulator waits for — host seconds per
campaign pass, per unit, at start-up, scaled to a reference host speed
(:mod:`calibration`) — on five workloads that stress different layers,
and (with ``--trace 1``) splits a pass's wall time into self time per
layer.  Simulated statistics are a correctness gate,
never a metric: every unit's result digest must match the committed
``ledger_digests.json`` (seed 1) or, for other seeds, be identical
across passes, traced and untraced runs, and workloads.

Load model: one closed-loop client.  Each *pass* runs one workload's
units back to back (``REPRO_WORKERS=1``) in a fresh interpreter, so
in-process memos start empty and imports are cold, exactly what a CLI
invocation or a new campaign worker pays.  Passes run one at a time,
round-robin across the selected workloads, so the host's speed drift is
spread over all of them.

Run from the repository root::

    python3 ledger/ledger.py                      # all workloads, seed 1
    python3 ledger/ledger.py --workload mix --seed 3 --seconds 20
    python3 ledger/ledger.py --trace 1            # per-layer breakdown
    python3 ledger/ledger.py --smoke              # 1 pass, tiny traces

The last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); the lines above it are a
human-readable table.  ``BENCH_ledger.json`` (full detail) and, when
traced, ``BENCH_ledger_trace.json`` (Chrome trace) land next to this
file.  Metric names, units and regression bounds come from the
repository's ``BENCHMARK.json``.  Exit status 2 means the benchmark
could not run at all (no source tree, import failure).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from _env import pinned_env
from calibration import REFERENCE_S
from workloads import BY_NAME, NOMINAL_SECONDS, WORKLOADS, runtime_input

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"
DIGESTS_PATH = HERE / "ledger_digests.json"
RESULT_PATH = HERE / "BENCH_ledger.json"
TRACE_PATH = HERE / "BENCH_ledger_trace.json"

#: A pass subprocess that runs longer than this is killed and its units
#: count as failed (a whole run must end within three minutes).
PASS_TIMEOUT_S = 150
#: The tail percentile is the highest one with this many samples beyond.
TAIL_SAMPLES = 10
#: Set-up time is the median of at least this many process starts; runs
#: with fewer passes add set-up-only starts.
SETUP_SAMPLES = 7


class SetupError(RuntimeError):
    """The benchmark cannot run here at all (exit status 2, no result)."""


@dataclass
class Pass:
    """What one pass subprocess reported (or how it failed).

    Times are reference-host seconds (:mod:`calibration`): each unit's
    latency is scaled by the host speed sampled just before and after
    it, set-up by the sample taken at ready, and the whole process by
    the pass's median sample.  ``raw`` keeps the measured seconds.
    """

    workload: str
    phase: str  # "pass", "fill" or "setup"
    traced: bool
    units: list[str]
    setup_s: float = 0.0
    total_s: float = 0.0
    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    cals: list[float] = field(default_factory=list)
    raw: dict = field(default_factory=dict)
    digests: dict[str, str | None] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    accesses: int = 0
    peak_rss_mb: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)
    spans: list[list] = field(default_factory=list)
    failure: str | None = None


# ---- subprocesses -----------------------------------------------------------


def _child_env(**extra: str) -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return pinned_env(
        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
        TMPDIR=str(WORK / "tmp"), **extra)


def _spawn(cfg: dict, env: dict[str, str]) -> tuple[float, float, dict]:
    """Run ``passrun.py`` once; returns (spawn time, end time, its JSON)."""
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "passrun.py"), json.dumps(cfg)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S)
    t_end = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise RuntimeError(f"exit status {proc.returncode}: "
                           + (" | ".join(tail) or "no output"))
    return t_spawn, t_end, json.loads(lines[-1])


def list_units(names: list[str], seed: int,
               smoke: bool) -> dict[str, dict[str, list[str]]]:
    """Unit ids per workload (and warms bytecode); fails -> SetupError."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    cfg = {"phase": "warmup", "workloads": names, "seed": seed,
           "smoke": smoke}
    try:
        return _spawn(cfg, _child_env())[2]
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        raise SetupError(f"cannot start a pass process: {exc}") from exc


def run_pass(workload: str, phase: str, traced: bool, units: list[str],
             seed: int, smoke: bool, env: dict[str, str]) -> Pass:
    p = Pass(workload, phase, traced, units)
    cfg = {"workload": workload, "phase": phase, "trace": traced,
           "seed": seed, "smoke": smoke}
    try:
        t_spawn, t_end, out = _spawn(cfg, env)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        p.failure = f"{type(exc).__name__}: {exc}"
        return p
    p.cals = out["cals"]
    p.raw = {"setup_s": out["ready"] - t_spawn, "total_s": t_end - t_spawn}
    p.setup_s = p.raw["setup_s"] * REFERENCE_S / p.cals[0]
    p.total_s = p.raw["total_s"] * REFERENCE_S / statistics.median(p.cals)
    if phase == "setup":
        return p
    p.raw.update(wall_s=out["wall_s"], latencies=out["latencies"])
    p.latencies = [lat * REFERENCE_S / ((before + after) / 2)
                   for lat, before, after in zip(out["latencies"], p.cals,
                                                 p.cals[1:])]
    p.wall_s = sum(p.latencies)
    p.digests = out["digests"]
    p.errors = out["errors"]
    p.accesses = out["accesses"]
    p.peak_rss_mb = out["peak_rss_kb"] / 1024
    p.layers = out.get("layers", {})
    p.spans = out.get("spans", [])
    return p


# ---- the schedule -----------------------------------------------------------


def pass_counts(names: list[str], seconds: float, smoke: bool,
                traced: bool) -> dict[str, int]:
    if smoke or traced:
        return dict.fromkeys(names, 1)
    scale = seconds / NOMINAL_SECONDS
    return {n: max(1, round(BY_NAME[n].passes * scale)) for n in names}


def run_all(names: list[str], seed: int, seconds: float, smoke: bool,
            traced: bool) -> tuple[list[Pass], dict[str, Pass]]:
    """Fill warm stores, run every pass round-robin, then set-up probes.

    A traced run makes one untraced and one traced pass per workload;
    the untraced one is the base of ``tracing.overhead``.  A full
    untraced run tops each workload's set-up samples up to
    :data:`SETUP_SAMPLES` with processes that stop once ready.
    """
    unit_ids = list_units(names, seed, smoke)
    fills: dict[str, Pass] = {}
    for name in names:
        if BY_NAME[name].warm_store:
            fills[name] = run_pass(name, "fill", False,
                                   unit_ids["fill"][name], seed, smoke,
                                   _pass_env(name, "fill"))
    counts = pass_counts(names, seconds, smoke, traced)
    rounds = [False, True] if traced else [False] * max(counts.values())
    passes: list[Pass] = []
    for k, round_traced in enumerate(rounds):
        for name in names:
            if traced or k < counts[name]:
                passes.append(run_pass(name, "pass", round_traced,
                                       unit_ids["pass"][name], seed, smoke,
                                       _pass_env(name, str(k))))
    if not (traced or smoke):
        for k in range(SETUP_SAMPLES - min(counts.values())):
            for name in names:
                if counts[name] + k < SETUP_SAMPLES:
                    passes.append(run_pass(name, "setup", False, [], seed,
                                           smoke, _pass_env(name, "setup")))
    return passes, fills


def _pass_env(name: str, tag: str) -> dict[str, str]:
    """Environment for one pass; resets the stores the workload needs."""
    w = BY_NAME[name]
    extra = {}
    if w.warm_store:
        extra["REPRO_STREAM_STORE_DIR"] = str(WORK / f"{name}-streams")
        if tag != "fill":
            results = WORK / f"{name}-results"
            shutil.rmtree(results, ignore_errors=True)  # fresh per pass
            extra["REPRO_CACHE_DIR"] = str(results)
    if w.trace_store:
        traces = WORK / f"{name}-traces"
        shutil.rmtree(traces, ignore_errors=True)  # rebuild shards per pass
        extra["REPRO_TRACE_STORE_DIR"] = str(traces)
    return _child_env(**extra)


# ---- correctness ------------------------------------------------------------


def load_digests(path: Path) -> dict[str, str]:
    try:
        return dict(json.loads(path.read_text())["units"])
    except (OSError, ValueError, KeyError, TypeError):
        return {}


def check(runs: list[Pass], committed: dict[str, str] | None
          ) -> tuple[dict[str, list[str]], dict[str, str]]:
    """Failure reasons per workload, and the digest each unit settled on.

    With ``committed`` digests (seed 1) every unit must match them;
    otherwise every unit must match the first result seen for its id in
    this run — across passes, traced and untraced, and workloads that
    share units (``fig08-warm`` reproduces ``fig08``).
    """
    failures: dict[str, list[str]] = {}
    seen: dict[str, str] = {}
    for p in runs:
        bad = failures.setdefault(p.workload, [])
        label = f"{p.phase}{' traced' if p.traced else ''}"
        for uid in p.units:
            got = None if p.failure else p.digests.get(uid)
            if got is None:
                reason = p.errors.get(uid) or p.failure or "no result"
            else:
                want = (committed.get(uid) if committed is not None
                        else seen.setdefault(uid, got))
                if want is None:
                    reason = "no committed digest"
                elif got != want:
                    reason = "digest mismatch"
                else:
                    continue
            bad.append(f"{uid} ({label}): {reason}")
    return failures, seen


# ---- metrics ----------------------------------------------------------------


def percentile(samples: list[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    xs = sorted(samples)
    k = (len(xs) - 1) * pct / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with :data:`TAIL_SAMPLES` samples beyond it.

    Falls back to the median when there are too few samples for a tail.
    """
    return max(50, math.floor(100 * (1 - TAIL_SAMPLES / n)))


def end_to_end(passes: list[Pass], fill: Pass | None) -> dict[str, dict]:
    """Host-time metrics of one workload's untraced passes.

    Each value carries its sample count ``n``; the tail latency also
    names its percentile.
    """
    started = [p for p in passes if p.failure is None]
    ok = [p for p in started if p.phase == "pass"]
    if not ok:
        raise RuntimeError("every pass failed")
    wall = statistics.median(p.wall_s for p in ok)
    lat = [x for p in ok for x in p.latencies]
    pct = tail_percentile(len(lat))
    setup = statistics.median(p.setup_s for p in started)
    if fill is not None:
        setup += fill.total_s  # the one-time store fill is set-up work
    return {
        "wall_s": {"value": wall, "n": len(ok)},
        "sim_acc_per_s": {
            "value": statistics.median(p.accesses for p in ok) / wall,
            "n": len(ok)},
        "unit_p50_s": {"value": statistics.median(lat), "n": len(lat)},
        "unit_tail_s": {"value": percentile(lat, pct), "n": len(lat),
                        "percentile": pct},
        "setup_s": {"value": setup, "n": len(started)},
        "peak_rss_mb": {"value": max(p.peak_rss_mb for p in ok),
                        "n": len(ok)},
    }


def per_layer(passes: list[Pass]) -> dict[str, dict]:
    """Layer metrics of the traced pass, plus the tracing overhead."""
    traced = [p for p in passes if p.traced and p.failure is None]
    plain = [p for p in passes if not p.traced and p.failure is None]
    if not traced or not plain:
        raise RuntimeError("the traced or the untraced pass failed")
    out = {name: {"value": v, "n": 1}
           for name, v in traced[0].layers.items()}
    out["tracing.overhead"] = {
        "value": traced[0].wall_s / plain[0].wall_s - 1, "n": 1}
    return out


def declared_metrics(traced: bool) -> dict[str, dict]:
    """name -> BENCHMARK.json entry of the metrics this mode reports."""
    doc = json.loads(BENCHMARK_PATH.read_text())
    return {m["name"]: m
            for m in doc["per_layer" if traced else "end_to_end"]}


# ---- output -----------------------------------------------------------------


def chrome_trace(passes: list[Pass]) -> dict:
    """One Chrome trace: a process lane per traced pass, a span per call."""
    events = []
    for pid, p in enumerate((p for p in passes if p.traced), start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": f"{p.workload} (traced)"}})
        for layer, start, dur, depth, unit in sorted(p.spans,
                                                     key=lambda s: s[1]):
            events.append({"name": layer, "cat": layer.split(".")[0],
                           "ph": "X", "pid": pid, "tid": 0,
                           "ts": round(start * 1e6, 3),
                           "dur": round(dur * 1e6, 3),
                           "args": {"unit": unit, "depth": depth}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _fmt(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def host_speed(passes: list[Pass]) -> float:
    """Median reference/measured calibration ratio over a run's samples."""
    return REFERENCE_S / statistics.median(c for p in passes for c in p.cals)


def report(name: str, metrics: dict[str, dict], declared: dict[str, dict],
           failures: list[str], attempted: int, speed: float) -> None:
    print(f"== {name}: {attempted} units, {len(failures)} failed "
          f"(error_rate {len(failures) / attempted:.3g}); host speed "
          f"{speed:.3f} of reference")
    for metric, m in metrics.items():
        spec = declared[metric]
        note = f"n={m['n']}"
        if "percentile" in m:
            note = f"p{m['percentile']} of {note}"
        bound = (f"  bound {spec['bound']:.0%}" if "bound" in spec else "")
        print(f"  {metric:<34} {_fmt(m['value']):>12} {spec['unit']:<6}"
              f" {note}{bound}")
    for line in failures[:10]:
        print(f"  FAILED {line}")


# ---- entry point ------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        description="Host-time benchmark of the MOCA reproduction, end to "
                    "end (--trace 0) or per layer (--trace 1).")
    ap.add_argument("--workload", action="append", choices=sorted(BY_NAME),
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1,
                    help="runtime input: 1 = ref, N = refN (default 1)")
    ap.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                    help="nominal measured seconds per workload; scales "
                         f"the pass counts (default {NOMINAL_SECONDS})")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 = one untraced and one traced pass per "
                         "workload, reporting per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="one pass per workload on tiny traces")
    ap.add_argument("--digests", type=Path, default=DIGESTS_PATH,
                    help="committed seed-1 digest file to check against")
    ap.add_argument("--write-digests", action="store_true",
                    help="record this run's seed-1 digests into --digests "
                         "instead of checking them")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.write_digests and args.seed != 1:
        ap.error("--write-digests records seed 1 only")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    names = args.workload or [w.name for w in WORKLOADS]
    names = list(dict.fromkeys(names))
    traced = bool(args.trace)
    for needed in (SRC / "repro" / "__init__.py", BENCHMARK_PATH):
        if not needed.is_file():
            print(f"ledger: {needed} is missing", file=sys.stderr)
            return 2
    declared = declared_metrics(traced)
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        passes, fills = run_all(names, args.seed, args.seconds, args.smoke,
                                traced)
    except SetupError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    committed = None
    if args.seed == 1 and not args.write_digests:
        committed = load_digests(args.digests)
    runs = list(fills.values()) + passes
    failures, seen = check(runs, committed)

    print(f"ledger: seed {args.seed} (input {runtime_input(args.seed)}), "
          f"{'traced' if traced else 'untraced'}"
          f"{', smoke' if args.smoke else ''}")
    summary: dict[str, dict] = {}
    result_metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        mine = [p for p in passes if p.workload == name]
        try:
            metrics = (per_layer(mine) if traced
                       else end_to_end(mine, fills.get(name)))
        except RuntimeError as exc:
            print(f"ledger: {name}: {exc}: "
                  f"{'; '.join(failures[name][:3])}", file=sys.stderr)
            return 1
        n_units = sum(len(p.units) for p in runs if p.workload == name)
        attempted += n_units
        failed += len(failures[name])
        speed = host_speed([p for p in mine if p.failure is None])
        report(name, metrics, declared, failures[name], n_units, speed)
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, m in metrics.items():
            result_metrics[prefix + metric] = {
                "value": m["value"], "unit": declared[metric]["unit"]}
        summary[name] = {
            "metrics": metrics,
            "attempted": n_units,
            "failed": failures[name],
            "error_rate": len(failures[name]) / n_units,
            "host_speed": speed,
            "passes": [{"phase": p.phase, "traced": p.traced,
                        "setup_s": p.setup_s, "wall_s": p.wall_s,
                        "peak_rss_mb": p.peak_rss_mb, "failure": p.failure,
                        "latencies": p.latencies, "calibration_s": p.cals,
                        "raw": p.raw, "digests": p.digests}
                       for p in runs if p.workload == name],
        }

    RESULT_PATH.write_text(json.dumps(
        {"seed": args.seed, "input": runtime_input(args.seed),
         "traced": traced, "smoke": args.smoke, "workloads": summary},
        indent=1) + "\n")
    if traced:
        TRACE_PATH.write_text(json.dumps(chrome_trace(passes)) + "\n")
    if args.write_digests and failed == 0:
        doc = {"units": {**load_digests(args.digests), **seen}}
        args.digests.write_text(json.dumps(doc, indent=1, sort_keys=True)
                                + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
