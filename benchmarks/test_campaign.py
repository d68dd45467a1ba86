"""Campaign data-plane benchmark: warm-store throughput vs cold start.

Runs one small-but-real sweep (two workloads, two systems each) through
``engine.execute`` twice against the same miss-stream store:

* **cold** — empty store: every stream is trace-built and cache-filtered
  before any unit simulates;
* **warm** — the store holds the ``.npy`` column files: streams come
  back as zero-copy mmaps and the campaign is pure simulation.

The in-process ``filtered_stream`` memo is cleared between passes, so
the warm pass measures the persistent data plane, not a Python dict.
Rows must be identical across passes (cheap smoke on the store's
bit-identity contract), warm must not be slower than cold, and the warm
units/sec throughput must clear the committed
``campaign_baseline.json`` floor (generous 4x slack — absolute
throughput varies across machines far more than the self-relative
speedups the other benchmarks gate on).  Measurements land in
``BENCH_campaign.json`` for CI to archive.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_campaign.py \
        -p no:hypothesispytest
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from repro.experiments import engine
from repro.sim import stream_store
from repro.sim.single import filtered_stream
from repro.sim.spec import RunSpec

HERE = Path(__file__).parent
BASELINE_PATH = HERE / "campaign_baseline.json"
RESULT_PATH = HERE / "BENCH_campaign.json"

N_ACCESSES = 40_000
SPECS = [RunSpec(app, cfg, pol, N_ACCESSES)
         for app in ("mcf", "milc")
         for cfg, pol in (("Homogen-DDR3", "homogen"),
                          ("Heter-config1", "moca"))]
WARM_REPEATS = 3  # best-of, to shrug off scheduler noise

#: Absolute units/sec only transfers loosely across machines.
SLACK = 0.25

def _pin_env() -> dict[str, str]:
    """Clear every ``REPRO_*`` variable, then set ``REPRO_WORKERS=1``.

    The pin of ``ledger/_env.py``: any knob a CI job exports (batch
    size, chaos markers, store directories, oversubscription, ...)
    would skew the measurement, and a hand-kept list of knobs goes
    stale.  Returns the caller's values for :func:`_restore_env`.
    """
    saved = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for name in saved:
        del os.environ[name]
    os.environ["REPRO_WORKERS"] = "1"
    return saved


def _restore_env(saved: dict[str, str]) -> None:
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(saved)


def _strip_meta(metrics) -> dict:
    doc = metrics.to_dict()
    doc.pop("meta", None)  # provenance timestamps, not result identity
    return doc


def test_env_pin_clears_every_knob(monkeypatch):
    for name, value in (("REPRO_UNIT_TIMEOUT", "3"),
                        ("REPRO_CHAOS_DIR", "/nonexistent"),
                        ("REPRO_TRACE_STORE_DIR", "/nonexistent"),
                        ("REPRO_OVERSUBSCRIBE", "1"),
                        ("REPRO_WORKERS", "4")):
        monkeypatch.setenv(name, value)
    before = dict(os.environ)
    saved = _pin_env()
    try:
        pinned = {k: v for k, v in os.environ.items()
                  if k.startswith("REPRO_")}
        assert pinned == {"REPRO_WORKERS": "1"}
    finally:
        _restore_env(saved)
    assert dict(os.environ) == before


def test_campaign_throughput_holds():
    saved = _pin_env()
    engine.reset()
    try:
        with tempfile.TemporaryDirectory() as td:
            store_dir = Path(td) / "streams"

            def one_pass():
                filtered_stream.cache_clear()
                stream_store.configure(store_dir)  # fresh per-pass stats
                t0 = time.perf_counter()
                rows = engine.execute(SPECS)
                return time.perf_counter() - t0, rows

            cold_s, cold_rows = one_pass()
            warm_s = float("inf")
            for _ in range(WARM_REPEATS):
                dt, warm_rows = one_pass()
                warm_s = min(warm_s, dt)
                stats = stream_store.stats_dict()
                assert stats["hits"] > 0 and stats["misses"] == 0, stats

            assert [_strip_meta(a) for a in cold_rows] == \
                [_strip_meta(b) for b in warm_rows]

            speedup = cold_s / warm_s
            doc = {
                "units": len(SPECS),
                "n_accesses": N_ACCESSES,
                "warm_repeats": WARM_REPEATS,
                "cold_seconds": round(cold_s, 4),
                "warm_seconds": round(warm_s, 4),
                "units_per_sec": round(len(SPECS) / warm_s, 4),
                "speedup": round(speedup, 2),
                "copies_avoided": stats["hits"],
            }
            RESULT_PATH.write_text(json.dumps(doc, indent=2) + "\n")
            print(f"\ncampaign: cold {cold_s:.2f}s, warm {warm_s:.2f}s, "
                  f"{doc['units_per_sec']} units/s "
                  f"(speedup {doc['speedup']}x)")

            # Warm must never be slower than cold: the store read path
            # (mmap + meta stat) costs less than trace-build + filter.
            assert speedup >= 1.0, doc

            baseline = json.loads(BASELINE_PATH.read_text())
            floor = SLACK * baseline["units_per_sec"]
            assert doc["units_per_sec"] >= floor, (
                f"campaign throughput regressed: measured "
                f"{doc['units_per_sec']} units/s, floor {floor:.2f} "
                f"(baseline {baseline['units_per_sec']} at {SLACK:g}x "
                f"slack); see {RESULT_PATH}")
    finally:
        engine.reset()
        filtered_stream.cache_clear()
        _restore_env(saved)
