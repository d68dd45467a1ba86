"""Run-to-run spread of the ledger's end-to-end metrics.

Runs ``ledger.py`` once per (set, seed, workload) — seeds 1..N, workloads
interleaved — and reports, per workload and metric, each set's median
and its quartile spread (Q3 - Q1 over the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them), by how much each
later set's median is worse than the first's, and every value.  A
metric whose spread (``setup_s`` exempt) or worsening exceeds its
``BENCHMARK.json`` bound is flagged.  This is how ``baseline.json`` was
measured; rerun it after a change to the benchmark::

    python3 ledger/spread.py --sets 2 --seeds 10 --out ledger/baseline.json

A full two-set run takes about 40 minutes on a 2-core host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_sets(workloads: list[str], sets: int, seeds: int,
             seconds: int) -> list[list[dict]]:
    """``out[set][i]`` = one ledger result line (plus workload, seed)."""
    out: list[list[dict]] = []
    for _ in range(sets):
        runs = []
        for seed in range(1, seeds + 1):
            for w in workloads:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "ledger.py"),
                     "--workload", w, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, check=True)
                line = json.loads(proc.stdout.strip().splitlines()[-1])
                runs.append({"workload": w, "seed": seed, **line})
                print(f"{w} seed {seed}: correct={line['correct']}",
                      file=sys.stderr)
        out.append(runs)
    return out


def summarize(sets: list[list[dict]], declared: list[dict]) -> dict:
    """Per workload and metric: set medians, spreads, worsening."""
    summary: dict[str, dict] = {}
    for w in dict.fromkeys(r["workload"] for r in sets[0]):
        rows = {}
        for m in declared:
            name, bound = m["name"], m["bound"]
            values, medians, spreads = [], [], []
            for runs in sets:
                vals = [r["metrics"][name]["value"] for r in runs
                        if r["workload"] == w]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                values.append(vals)
                medians.append(med)
                spreads.append((q3 - q1) / med)
            worse = [(b - medians[0]) / medians[0] *
                     (1 if m["better"] == "lower" else -1)
                     for b in medians[1:]]
            rows[name] = {"unit": m["unit"], "bound": bound,
                          "medians": medians, "spreads": spreads,
                          "worse_by": worse, "values": values,
                          "ok": (all(s <= bound for s in spreads)
                                 or name == "setup_s")
                          and all(d <= bound for d in worse)}
        summary[w] = rows
    return summary


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out", type=Path,
                    help="write the summary (e.g. ledger/baseline.json)")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    sets = run_sets(workloads, args.sets, args.seeds, bench["run_seconds"])
    summary = summarize(sets, bench["end_to_end"])
    ok = True
    for w, rows in summary.items():
        for name, r in rows.items():
            ok &= r["ok"]
            print(f"{w:<11} {name:<14} medians "
                  + " ".join(f"{v:.6g}" for v in r["medians"])
                  + f" {r['unit']:<6} spread "
                  + " ".join(f"{s:.1%}" for s in r["spreads"])
                  + " worse by "
                  + " ".join(f"{d:+.1%}" for d in r["worse_by"])
                  + f" bound {r['bound']:.0%}"
                  + ("" if r["ok"] else "  OVER"))
    if args.out:
        text = json.dumps({
            "host": {"machine": platform.machine(),
                     "cpus": os.cpu_count(),
                     "python": platform.python_version()},
            "sets": args.sets, "seeds": args.seeds,
            "workloads": summary}, indent=1)
        # One line per list of numbers keeps the file reviewable.
        text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                      lambda m: "[" + " ".join(m.group(1).split()) + "]",
                      text)
        args.out.write_text(text + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
