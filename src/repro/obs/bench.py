"""Perf-trend tracking: append-only bench history + regression report.

Every telemetry-enabled campaign (and every hotpath benchmark run fed
through ``--record-hotpath``) can append one JSON record to
``results/bench_history.jsonl``: a host fingerprint, the git sha,
fidelity, per-phase wall times, and the two headline throughputs —
replayed accesses/s (``core_replay``) and filtered accesses/s
(``cache_filter``).  The history turns the committed CI floors of
``benchmarks/*_baseline.json`` from a coarse tripwire into a trend: a
silent 30% regression that still clears the floor shows up as a falling
line here.

``python -m repro.experiments bench-report`` renders the trend (last N
records, unicode sparklines per metric) and flags regressions two ways:

* **floor check** — the latest hotpath record's speedups against the
  committed baselines (same 15%-below-baseline / absolute-floor rule as
  the benchmarks themselves);
* **trend check** — the latest campaign record against the median of
  earlier records from the *same host and fidelity* (cross-host numbers
  are not comparable); a drop below half the median is flagged.

Exit status 1 when anything is flagged, so CI can gate on it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from statistics import median

from repro.obs.telemetry import CampaignTelemetry
from repro.util import settings

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_HISTORY",
    "append_record",
    "campaign_record",
    "check_regressions",
    "git_sha",
    "host_fingerprint",
    "hotpath_record",
    "read_history",
    "render_report",
    "report_main",
]

#: Schema version stamped into every history record.
BENCH_SCHEMA = 1

DEFAULT_HISTORY = Path("results") / "bench_history.jsonl"

#: Regression thresholds.
TREND_FLOOR = 0.5  #: latest < this fraction of same-host median -> flag
BASELINE_SLACK = 0.85  #: benchmarks' own 15%-below-baseline rule
REPLAY_ABS_FLOOR = 5.0
FILTER_ABS_FLOOR = 4.0
#: Campaign throughput is absolute (units/s), not a self-relative
#: speedup, so the committed baseline only transfers loosely across
#: machines — gate with generous slack.
CAMPAIGN_SLACK = 0.25


def host_fingerprint() -> dict:
    """Stable identity of the measuring machine (trend grouping key)."""
    return {
        "node": platform.node(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
    }


def git_sha(cwd: str | Path | None = None) -> str | None:
    """Current commit sha, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _base_record(kind: str) -> dict:
    return {
        "schema": BENCH_SCHEMA,
        "kind": kind,
        "ts_epoch": round(time.time(), 3),
        "host": host_fingerprint(),
        "git": git_sha(),
    }


def campaign_record(fidelity: str, campaign: CampaignTelemetry,
                    sweep_seconds: dict | None = None,
                    cache: dict | None = None) -> dict:
    """One history record summarizing a finished campaign."""
    rec = _base_record("campaign")
    rec.update({
        "fidelity": fidelity,
        "units": campaign.units,
        "cached_units": campaign.cached_units,
        "failed_units": campaign.failed_units,
        "wall_s": round(campaign.wall_s, 3),
        "phase_seconds": {
            name: round(stats.total_s, 3)
            for name, stats in sorted(campaign.spans.items())
        },
        "replay_acc_per_s": round(campaign.replay_acc_per_s(), 1),
        "filter_acc_per_s": round(campaign.filter_acc_per_s(), 1),
    })
    if sweep_seconds:
        rec["sweep_seconds"] = {k: round(v, 3)
                                for k, v in sweep_seconds.items()}
    if cache:
        rec["cache_hit_ratio"] = cache.get("hit_ratio")
    return rec


def hotpath_record(bench_dir: str | Path) -> dict:
    """One history record from ``BENCH_hotpath.json``/``BENCH_filter.json``.

    Raises ``FileNotFoundError`` if neither result file exists (the
    benchmarks haven't been run in ``bench_dir``).
    """
    bench_dir = Path(bench_dir)
    rec = _base_record("hotpath")
    found = False
    hot = bench_dir / "BENCH_hotpath.json"
    if hot.exists():
        doc = json.loads(hot.read_text())
        rec["replay_speedup"] = doc.get("speedup")
        rec["replay_acc_per_s"] = doc.get("fast_records_per_sec")
        found = True
    filt = bench_dir / "BENCH_filter.json"
    if filt.exists():
        doc = json.loads(filt.read_text())
        rec["filter_speedup"] = doc.get("speedup")
        rec["filter_acc_per_s"] = doc.get("fast_accesses_per_sec")
        found = True
    camp = bench_dir / "BENCH_campaign.json"
    if camp.exists():
        doc = json.loads(camp.read_text())
        rec["campaign_units_per_s"] = doc.get("units_per_sec")
        rec["campaign_speedup"] = doc.get("speedup")
        rec["campaign_copies_avoided"] = doc.get("copies_avoided")
        found = True
    if not found:
        raise FileNotFoundError(
            f"no BENCH_hotpath.json / BENCH_filter.json / "
            f"BENCH_campaign.json under {bench_dir} "
            "— run the hotpath benchmarks first")
    return rec


def history_path(path: str | Path | None = None) -> Path:
    """Resolve the history file: explicit > ``bench_history`` > default."""
    if path is not None:
        return Path(path)
    env = settings.current().bench_history
    return Path(env) if env else DEFAULT_HISTORY


def append_record(record: dict, path: str | Path | None = None) -> Path:
    """Append one record (filled with schema/host/git if missing)."""
    rec = _base_record(record.get("kind", "campaign"))
    rec.update(record)
    path = history_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as f:
        f.write(json.dumps(rec) + "\n")
    return path


def read_history(path: str | Path | None = None) -> list[dict]:
    path = history_path(path)
    if not path.exists():
        return []
    records = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


# ---- regression checks ------------------------------------------------------


def _load_baseline(baseline_dir: Path, name: str) -> dict | None:
    path = baseline_dir / name
    return json.loads(path.read_text()) if path.exists() else None


def check_regressions(history: list[dict],
                      baseline_dir: str | Path = Path("benchmarks"),
                      ) -> list[str]:
    """Flag latest-record regressions; empty list means all clear."""
    baseline_dir = Path(baseline_dir)
    flags: list[str] = []

    hot = [r for r in history if r.get("kind") == "hotpath"]
    if hot:
        latest = hot[-1]
        for metric, baseline_name, abs_floor in (
                ("replay_speedup", "hotpath_baseline.json",
                 REPLAY_ABS_FLOOR),
                ("filter_speedup", "filter_baseline.json",
                 FILTER_ABS_FLOOR)):
            value = latest.get(metric)
            baseline = _load_baseline(baseline_dir, baseline_name)
            if value is None or baseline is None:
                continue
            floor = max(abs_floor, BASELINE_SLACK * baseline["speedup"])
            if value < floor:
                flags.append(
                    f"{metric} {value:.2f}x below floor {floor:.2f}x "
                    f"(baseline {baseline['speedup']}x)")
        value = latest.get("campaign_units_per_s")
        baseline = _load_baseline(baseline_dir, "campaign_baseline.json")
        if value is not None and baseline is not None:
            floor = CAMPAIGN_SLACK * baseline["units_per_sec"]
            if value < floor:
                flags.append(
                    f"campaign_units_per_s {value:.2f}/s below floor "
                    f"{floor:.2f}/s (baseline "
                    f"{baseline['units_per_sec']}/s at {CAMPAIGN_SLACK:g}x "
                    f"slack)")

    camp = [r for r in history if r.get("kind") == "campaign"]
    if len(camp) >= 2:
        latest = camp[-1]
        same = [r for r in camp[:-1]
                if r.get("host") == latest.get("host")
                and r.get("fidelity") == latest.get("fidelity")]
        for metric in ("replay_acc_per_s", "filter_acc_per_s"):
            value = latest.get(metric) or 0
            prior = [r[metric] for r in same if r.get(metric)]
            if not prior or not value:
                continue
            ref = median(prior)
            if value < TREND_FLOOR * ref:
                flags.append(
                    f"{metric} trend regression: latest {value:.0f}/s vs "
                    f"median {ref:.0f}/s over {len(prior)} same-host "
                    f"{latest.get('fidelity')} runs")
    return flags


# ---- rendering --------------------------------------------------------------

_SPARK = "▁▂▃▄▅▆▇█"


def _sparkline(values: list[float]) -> str:
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK[3] * len(values)
    return "".join(
        _SPARK[min(len(_SPARK) - 1,
                   int((v - lo) / (hi - lo) * (len(_SPARK) - 1)))]
        for v in values)


def _fmt_ts(epoch: float | None) -> str:
    if not epoch:
        return "-"
    return time.strftime("%m-%d %H:%M", time.gmtime(epoch))


def render_report(history: list[dict], last: int = 12) -> str:
    """Human-readable trend table + sparklines over the last N records."""
    if not history:
        return "bench history is empty — nothing to report\n"
    recent = history[-last:]
    lines = [f"bench history: {len(history)} records "
             f"(showing last {len(recent)})"]
    header = (f"{'when (utc)':>12}  {'kind':>8}  {'sha':>7}  {'fid':>7}  "
              f"{'replay/s':>10}  {'filter/s':>10}  {'speedups':>12}")
    lines += [header, "-" * len(header)]
    for r in recent:
        sha = (r.get("git") or "-")[:7]
        speed = "-"
        if r.get("replay_speedup") or r.get("filter_speedup"):
            speed = (f"{r.get('replay_speedup', 0):.1f}x/"
                     f"{r.get('filter_speedup', 0):.1f}x")
        lines.append(
            f"{_fmt_ts(r.get('ts_epoch')):>12}  {r.get('kind', '-'):>8}  "
            f"{sha:>7}  {r.get('fidelity', '-') or '-':>7}  "
            f"{r.get('replay_acc_per_s') or '-':>10}  "
            f"{r.get('filter_acc_per_s') or '-':>10}  {speed:>12}")
    for metric in ("replay_acc_per_s", "filter_acc_per_s",
                   "campaign_units_per_s"):
        vals = [float(r[metric]) for r in recent if r.get(metric)]
        if len(vals) >= 2:
            lines.append(f"{metric:>20}: {_sparkline(vals)} "
                         f"(min {min(vals):.0f}, max {max(vals):.0f})")
    return "\n".join(lines) + "\n"


# ---- CLI --------------------------------------------------------------------


def report_main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments bench-report`` entry point."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments bench-report",
        description="Render the bench-history trend and flag regressions")
    parser.add_argument("--history", default=None,
                        help="history file (default results/"
                             "bench_history.jsonl or $REPRO_BENCH_HISTORY)")
    parser.add_argument("--last", type=int, default=12,
                        help="records to show (default 12)")
    parser.add_argument("--record-hotpath", metavar="DIR", default=None,
                        help="append a hotpath record from DIR's "
                             "BENCH_hotpath.json/BENCH_filter.json first")
    parser.add_argument("--baseline-dir", default="benchmarks",
                        help="directory with *_baseline.json floors")
    parser.add_argument("--out", default=None,
                        help="also write a JSON summary (e.g. "
                             "benchmarks/BENCH_pr6.json)")
    args = parser.parse_args(argv)

    if args.record_hotpath:
        try:
            rec = hotpath_record(args.record_hotpath)
        except FileNotFoundError as exc:
            print(f"bench-report: {exc}", file=sys.stderr)
            return 2
        append_record(rec, args.history)

    history = read_history(args.history)
    print(render_report(history, last=args.last), end="")
    flags = check_regressions(history, baseline_dir=args.baseline_dir)
    for flag in flags:
        print(f"REGRESSION: {flag}", file=sys.stderr)
    if not flags and history:
        print("no regressions flagged", file=sys.stderr)

    if args.out:
        latest_hot = next((r for r in reversed(history)
                           if r.get("kind") == "hotpath"), None)
        latest_camp = next((r for r in reversed(history)
                            if r.get("kind") == "campaign"), None)
        summary = {
            "schema": BENCH_SCHEMA,
            "generated_ts": round(time.time(), 3),
            "host": host_fingerprint(),
            "git": git_sha(),
            "history_records": len(history),
            "latest_hotpath": latest_hot,
            "latest_campaign": latest_camp,
            "regressions": flags,
        }
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(summary, indent=2) + "\n")
    return 1 if flags else 0
