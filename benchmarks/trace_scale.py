"""Scale proof: a 10M-access trace, generated and filtered in bounded RSS.

Monolithic traces hold five full-length columns (~22 bytes/access, plus
build and filter intermediates), so 10M accesses costs hundreds of MB
of peak RSS before filtering even starts.  The chunked pipeline
(``repro.trace.chunked`` + ``CacheHierarchy.filter_chunked``) bounds
peak memory by the shard size instead.  This script runs the full
pipeline — synthesis kernel, chunked store, windowed filter kernel — at
10M accesses and asserts the process's lifetime peak RSS (via
``repro.obs.telemetry.peak_rss_kb``, i.e. ``ru_maxrss``) stays under a
ceiling a monolithic build cannot meet.

``ru_maxrss`` is a process-lifetime high-water mark, so this MUST run
as its own process (the CI job does)::

    PYTHONPATH=src python benchmarks/trace_scale.py

Results land in ``BENCH_trace_scale.json`` next to this file.
Byte-identity of the chunked pipeline with the monolithic one is pinned
separately at test scale (``tests/test_trace_chunked.py``) — verifying
it here would require materializing the monolithic trace, which is
exactly the RSS cost this script proves we avoid.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.cpu.hierarchy import CacheHierarchy  # noqa: E402
from repro.obs.telemetry import peak_rss_kb  # noqa: E402
from repro.trace import chunked  # noqa: E402
from repro.workloads.inputs import build_app_trace_chunked  # noqa: E402

RESULT_PATH = HERE / "BENCH_trace_scale.json"

#: Peak-RSS ceiling.  Measured on the dev box: the chunked pipeline
#: peaks ~430 MB at 10M accesses / 1M-access shards (interpreter +
#: numpy, one shard's columns + filter intermediates, and the
#: accumulated miss stream — mcf turns ~65% of accesses into records,
#: so the *output* dominates), while the monolithic 10M-access
#: build+filter peaks ~1480 MB.  600 MB passes with headroom on a
#: noisy runner and still fails immediately if anything
#: rematerializes full-length trace columns.
DEFAULT_CEILING_MB = 600


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--app", default="mcf")
    ap.add_argument("--n-accesses", type=int, default=10_000_000)
    ap.add_argument("--chunk-accesses", type=int, default=1_000_000)
    ap.add_argument("--rss-ceiling-mb", type=int,
                    default=DEFAULT_CEILING_MB)
    args = ap.parse_args(argv)

    tmp = tempfile.mkdtemp(prefix="trace-scale-")
    chunked.configure(tmp)
    try:
        t0 = time.perf_counter()
        trace = build_app_trace_chunked(args.app, "ref", args.n_accesses,
                                        args.chunk_accesses)
        t_build = time.perf_counter() - t0

        t0 = time.perf_counter()
        stream, stats = CacheHierarchy().filter_chunked(trace)
        t_filter = time.perf_counter() - t0

        peak_kb = peak_rss_kb()
        # v2 entries hold one shard-NNNNN.<column>.npy per column, v1
        # entries one shard-NNNNN.npz per shard.
        shard_bytes = sum(p.stat().st_size
                          for p in Path(trace.directory).glob("shard-*")
                          if p.suffix in (".npy", ".npz"))
    finally:
        chunked.reset()
        shutil.rmtree(tmp, ignore_errors=True)

    doc = {
        "app": args.app,
        "n_accesses": args.n_accesses,
        "chunk_accesses": args.chunk_accesses,
        "n_shards": trace.n_shards,
        "shard_bytes_on_disk": shard_bytes,
        "miss_records": len(stream),
        "l2_mpki": round(stats.l2_mpki, 3),
        "build_seconds": round(t_build, 2),
        "filter_seconds": round(t_filter, 2),
        "peak_rss_mb": round(peak_kb / 1024, 1),
        "rss_ceiling_mb": args.rss_ceiling_mb,
    }
    RESULT_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc, indent=2))

    if not shard_bytes:
        print("FAIL: no shard files found on disk — the chunked store "
              "layout changed under this script", file=sys.stderr)
        return 1
    if peak_kb > args.rss_ceiling_mb * 1024:
        print(f"FAIL: peak RSS {doc['peak_rss_mb']} MB exceeds the "
              f"{args.rss_ceiling_mb} MB ceiling — something is "
              f"materializing full-length columns", file=sys.stderr)
        return 1
    print(f"OK: peak RSS {doc['peak_rss_mb']} MB "
          f"<= {args.rss_ceiling_mb} MB ceiling")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
