"""Hot-loop benchmarks: the kernels vs their reference loops.

Times the three per-access Python loops that were kernelized — the
memory-side replay, the cache-filter front end and trace synthesis —
on the kernel and on the reference loop, and asserts each kernel keeps
its advantage:

* results must be bit-identical (cheap smoke on top of the exhaustive
  ``tests/test_parity.py`` / ``tests/test_filter_parity.py`` /
  ``tests/test_trace_parity.py``);
* the speedup must not regress more than 15% against the committed
  baselines in ``hotpath_baseline.json`` / ``filter_baseline.json`` /
  ``synthesis_baseline.json`` (and never below the floors the kernels
  were built to clear: 5x for replay, 4x for filtering and synthesis).

The reference loops are the oracles: the replay interpreter
``ReferenceCore`` lives in ``tests/reference_core.py``, the filter loop
``filter_trace`` in ``tests/reference_filter.py``, and the synthesis
loop is the private reference method the trace builder falls back to
(``TraceBuilder._iter_reference``).

The timed region covers core construction *plus* the full replay —
episode segmentation happens at ``InOrderWindowCore`` construction, so
excluding it would flatter the kernel; each repeat replays a fresh
stream object, so each pays it.  Speedup (a ratio on the
same machine) is compared rather than absolute records/sec, which vary
across CI runners.  Measurements land in ``BENCH_hotpath.json`` next to
this file for the CI job to archive.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_hotpath.py \
        -p no:hypothesispytest

The hypothesis pytest plugin is disabled because merely loading it slows
the vectorized replay ~20% (its coverage instrumentation hooks the whole
process), which would poison the speedup measurement.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.cpu.core import InOrderWindowCore
from repro.cpu.hierarchy import CacheHierarchy
from repro.moca.allocation import HomogeneousPolicy, plan_placement
from repro.sim.config import ALL_SYSTEMS
from repro.sim.single import filtered_stream
from repro.trace.builder import TraceBuilder
from repro.trace.events import VirtualLayout
from repro.util.rng import stream
from repro.workloads.inputs import REF, _perturbed, build_app_trace
from repro.workloads.spec import app

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE.parent / "tests"))
from reference_core import ReferenceCore  # noqa: E402
import reference_filter  # noqa: E402

BASELINE_PATH = HERE / "hotpath_baseline.json"
RESULT_PATH = HERE / "BENCH_hotpath.json"
FILTER_BASELINE_PATH = HERE / "filter_baseline.json"
FILTER_RESULT_PATH = HERE / "BENCH_filter.json"
SYNTHESIS_BASELINE_PATH = HERE / "synthesis_baseline.json"
SYNTHESIS_RESULT_PATH = HERE / "BENCH_synthesis.json"

APP = "mcf"
CONFIG = "Heter-config1"
N_ACCESSES = 120_000
REPEATS = 3  # best-of, to shrug off scheduler noise


def _replay_once(fast: bool):
    """One full replay; returns (seconds, CoreResult, n_records).

    System build and placement run outside the timed region — they are
    identical on both paths and not what this benchmark measures.
    """
    stream, _ = filtered_stream(APP, REF, N_ACCESSES)
    layout = build_app_trace(APP, REF, N_ACCESSES).layout
    config = ALL_SYSTEMS[CONFIG]
    memsys = config.build()
    allocator = config.make_allocator(memsys)
    plan = plan_placement([stream], HomogeneousPolicy(), allocator,
                          layouts=[layout])
    # Every repeat replays a fresh stream object over the same arrays:
    # the cached one keeps the episode tables of an earlier repeat
    # (``_episode_memo``), which would take segmentation out of the
    # timed region from the second repeat on.
    stream = dataclasses.replace(stream)
    assert "_episode_memo" not in vars(stream)
    core_cls = InOrderWindowCore if fast else ReferenceCore
    t0 = time.perf_counter()
    core = core_cls(stream, plan.groups[0], plan.gaddrs[0])
    result = core.run_to_completion(memsys)
    return time.perf_counter() - t0, result, len(stream)


def test_hotpath_speedup_holds():
    best: dict[bool, float] = {}
    results: dict[bool, dict] = {}
    n_records = 0
    for fast in (True, False):
        times = []
        for _ in range(REPEATS):
            dt, result, n_records = _replay_once(fast)
            times.append(dt)
        best[fast] = min(times)
        results[fast] = result.to_dict()

    # The benchmark is only meaningful if both engines agree.
    assert results[True] == results[False]

    speedup = best[False] / best[True]
    doc = {
        "workload": APP,
        "config": CONFIG,
        "n_accesses": N_ACCESSES,
        "n_records": n_records,
        "repeats": REPEATS,
        "ref_seconds": round(best[False], 4),
        "fast_seconds": round(best[True], 4),
        "ref_records_per_sec": round(n_records / best[False]),
        "fast_records_per_sec": round(n_records / best[True]),
        "speedup": round(speedup, 2),
    }
    RESULT_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nhotpath: ref {doc['ref_records_per_sec']} rec/s, "
          f"fast {doc['fast_records_per_sec']} rec/s, "
          f"speedup {doc['speedup']}x")

    baseline = json.loads(BASELINE_PATH.read_text())
    floor = max(5.0, 0.85 * baseline["speedup"])
    assert speedup >= floor, (
        f"replay-kernel speedup regressed: measured {speedup:.2f}x, "
        f"floor {floor:.2f}x (baseline {baseline['speedup']}x - 15%); "
        f"see {RESULT_PATH}")


def test_filter_speedup_holds():
    """Cache-filter kernel vs reference loop at default fidelity."""
    trace = build_app_trace(APP, REF, N_ACCESSES)
    best: dict[bool, float] = {}
    streams: dict[bool, tuple] = {}
    for fast in (True, False):
        times = []
        for _ in range(REPEATS):
            hierarchy = CacheHierarchy()
            t0 = time.perf_counter()
            if fast:
                result = hierarchy.filter_trace(trace)
            else:
                result = reference_filter.filter_trace(
                    hierarchy, trace, int(len(trace) * 0.2))
            times.append(time.perf_counter() - t0)
        best[fast] = min(times)
        streams[fast] = result

    # Identity smoke (the exhaustive check lives in test_filter_parity).
    s_k, c_k = streams[True]
    s_r, c_r = streams[False]
    for name in ("inst", "vline", "obj_id", "dep", "kind"):
        assert np.array_equal(getattr(s_k, name), getattr(s_r, name)), name
    assert c_k == c_r

    speedup = best[False] / best[True]
    doc = {
        "workload": APP,
        "n_accesses": N_ACCESSES,
        "n_records": len(s_k),
        "repeats": REPEATS,
        "ref_seconds": round(best[False], 4),
        "fast_seconds": round(best[True], 4),
        "ref_accesses_per_sec": round(N_ACCESSES / best[False]),
        "fast_accesses_per_sec": round(N_ACCESSES / best[True]),
        "speedup": round(speedup, 2),
    }
    FILTER_RESULT_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nfilter: ref {doc['ref_accesses_per_sec']} acc/s, "
          f"fast {doc['fast_accesses_per_sec']} acc/s, "
          f"speedup {doc['speedup']}x")

    baseline = json.loads(FILTER_BASELINE_PATH.read_text())
    floor = max(4.0, 0.85 * baseline["speedup"])
    assert speedup >= floor, (
        f"filter-kernel speedup regressed: measured {speedup:.2f}x, "
        f"floor {floor:.2f}x (baseline {baseline['speedup']}x - 15%); "
        f"see {FILTER_RESULT_PATH}")


SYN_APP = "sift"  # loudest win of the 10 stock apps; all are >= 1x
SYN_ACCESSES = 1_000_000
#: A Lemire-heavy build (rand/chase objects), as the ledger synthesizes
#: it: sift has no rand/chase object, so its gate never reaches the
#: rejection walk.
LEMIRE_APP, LEMIRE_INPUT, LEMIRE_ACCESSES = "milc", REF, 120_000
LEMIRE_RESULT_PATH = HERE / "BENCH_synthesis_lemire.json"


def _synthesis_speedup(behaviors, make_rng, n_accesses: int) -> dict:
    """Reference chunk loop vs kernel on one build: best-of-``REPEATS``
    seconds of each (fresh builder and rng per run), bit-identity
    checked.  Kernel and reference repeats alternate, so a burst of host
    load lands on both sides instead of on one side's whole block."""
    times: dict[bool, list[float]] = {True: [], False: []}
    traces: dict[bool, object] = {}
    for _ in range(REPEATS):
        for fast in (True, False):
            builder = TraceBuilder(list(behaviors))
            rng = make_rng()
            t0 = time.perf_counter()
            if fast:
                trace = builder.build(n_accesses, rng)
            else:
                layout = VirtualLayout()
                trace = builder._concat(
                    builder._iter_reference(n_accesses, rng,
                                            *builder._place(layout)),
                    n_accesses, layout)
            times[fast].append(time.perf_counter() - t0)
            traces[fast] = trace
    best = {fast: min(t) for fast, t in times.items()}

    # Identity smoke (the exhaustive check lives in test_trace_parity).
    t_k, t_r = traces[True], traces[False]
    for name in ("inst", "vaddr", "is_write", "obj_id", "dep"):
        assert np.array_equal(getattr(t_k, name), getattr(t_r, name)), name
    assert t_k.total_instructions == t_r.total_instructions

    return {
        "n_accesses": n_accesses,
        "repeats": REPEATS,
        "ref_seconds": round(best[False], 4),
        "fast_seconds": round(best[True], 4),
        "ref_accesses_per_sec": round(n_accesses / best[False]),
        "fast_accesses_per_sec": round(n_accesses / best[True]),
        "speedup": round(best[False] / best[True], 2),
    }


def _check_synthesis(doc: dict, baseline: dict, result_path: Path) -> None:
    """Write ``doc`` and hold it to 15 % below ``baseline`` (>= 4x)."""
    result_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nsynthesis {doc['workload']}: "
          f"ref {doc['ref_accesses_per_sec']} acc/s, "
          f"fast {doc['fast_accesses_per_sec']} acc/s, "
          f"speedup {doc['speedup']}x")
    speedup = doc["speedup"]
    floor = max(4.0, 0.85 * baseline["speedup"])
    assert speedup >= floor, (
        f"synthesis-kernel speedup regressed: measured {speedup:.2f}x, "
        f"floor {floor:.2f}x (baseline {baseline['speedup']}x - 15%); "
        f"see {result_path}")


def test_synthesis_speedup_holds():
    """Trace-synthesis kernel vs reference chunk loop at paper scale.

    1M accesses is where the chunk loop's per-burst Python overhead
    dominates (the scale ``benchmarks/trace_scale.py`` runs at); the
    gate app is the stock behaviour mix with the highest measured gain,
    so a regression here flags kernel rot before the quieter apps feel
    it.
    """
    doc = {"workload": SYN_APP, **_synthesis_speedup(
        app(SYN_APP).behaviors,
        lambda: stream("bench-synthesis", SYN_APP, SYN_ACCESSES),
        SYN_ACCESSES)}
    baseline = json.loads(SYNTHESIS_BASELINE_PATH.read_text())
    _check_synthesis(doc, baseline, SYNTHESIS_RESULT_PATH)


def test_synthesis_lemire_speedup_holds():
    """The same gate on a build whose rand/chase objects reject Lemire
    draws: the kernel walks those rejections inside its layout window
    (milc/ref at 120k lays out 15 windows; cutting at each rejection
    took 315), a path sift never takes.
    """
    doc = {"workload": LEMIRE_APP, "input": LEMIRE_INPUT,
           **_synthesis_speedup(
               _perturbed(app(LEMIRE_APP), LEMIRE_INPUT),
               lambda: stream("trace", LEMIRE_APP, LEMIRE_INPUT,
                              LEMIRE_ACCESSES),
               LEMIRE_ACCESSES)}
    baseline = json.loads(SYNTHESIS_BASELINE_PATH.read_text())["lemire"]
    _check_synthesis(doc, baseline, LEMIRE_RESULT_PATH)
