"""Pins for filtered miss streams: one SHA-256 per (app, input, length).

Each digest covers everything a filter pass hands back — the five
``MissStream`` columns (``inst``, ``vline``, ``obj_id``, ``dep``,
``kind``, with their dtypes) and ``total_instructions``, the
``CacheStats`` counters with ``per_object`` in its first-touch order,
and the final L1 and L2 tag state (``resident_arrays()``: contents,
dirty bits and recency order).  Every stock application is filtered on
the ``train``, ``ref``, ``ref2``, ``drift1`` and ``drift2`` inputs at
30k accesses through ``filter_trace``, plus the two 1M-access ``scale``
ledger builds through ``filter_chunked`` in 250k-access windows and
three ``online`` ledger builds at 120k whose L2 sets are skewed (a few
sets take most accesses, so the stack-distance tail carries them).  A
filter change that alters a record, a counter, a tally's order or a
resident line changes a digest.

Write the pins, or regenerate and compare against committed ones::

    PYTHONPATH=src python benchmarks/filter_digests.py --out results/filter-tiny/digests.json
    PYTHONPATH=src python benchmarks/filter_digests.py --check results/filter-tiny/digests.json

``--check`` exits 1 and names every mismatching build.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE.parent / "src"))

from digest_pins import pin_main  # noqa: E402
from repro.cpu.hierarchy import CacheHierarchy  # noqa: E402
from repro.trace import chunked  # noqa: E402
from repro.trace.builder import TraceBuilder  # noqa: E402
from repro.util.rng import stream  # noqa: E402
from repro.workloads.inputs import (  # noqa: E402
    _perturbed,
    build_app_trace_chunked,
)
from repro.workloads.spec import APPS, app  # noqa: E402

INPUTS = ("train", "ref", "ref2", "drift1", "drift2")
SHORT = 30_000
LONG = (("sift", "ref", 1_000_000), ("gcc", "ref", 1_000_000))
SKEWED = (("milc", "drift1", 120_000), ("milc", "drift2", 120_000),
          ("tracking", "ref", 120_000))
WINDOW = 250_000
COLUMNS = ("inst", "vline", "obj_id", "dep", "kind")
COUNTERS = ("total_instructions", "l1_hits", "l1_misses", "l2_hits",
            "l2_misses", "n_writebacks")


def builds() -> list[tuple[str, str, int]]:
    """Every pinned ``(app, input, n_accesses)``, in file order."""
    return [(a, i, SHORT) for a in APPS for i in INPUTS] + list(LONG) \
        + list(SKEWED)


def _hash_array(h, name: str, col: np.ndarray) -> None:
    col = np.ascontiguousarray(col)
    h.update(f"{name}:{col.dtype.str}:{col.size};".encode())
    h.update(col.tobytes())


def digest(app_name: str, input_name: str, n_accesses: int) -> str:
    """SHA-256 of one filter pass: stream, stats and final tag state.

    Long builds go through the active chunked-trace store and
    ``filter_chunked``; the others are synthesized in memory (as
    ``build_app_trace`` does, minus its memo) and go through
    ``filter_trace``.
    """
    hierarchy = CacheHierarchy()
    if (app_name, input_name, n_accesses) in LONG:
        trace = build_app_trace_chunked(app_name, input_name, n_accesses,
                                        WINDOW)
        miss, stats = hierarchy.filter_chunked(trace)
    else:
        builder = TraceBuilder(list(_perturbed(app(app_name), input_name)))
        trace = builder.build(n_accesses,
                              stream("trace", app_name, input_name,
                                     n_accesses))
        miss, stats = hierarchy.filter_trace(trace)
    h = hashlib.sha256()
    for name in COLUMNS:
        _hash_array(h, name, getattr(miss, name))
    h.update(f"total_instructions:{miss.total_instructions};".encode())
    counters = {name: getattr(stats, name) for name in COUNTERS}
    h.update(json.dumps(counters, sort_keys=True).encode())
    h.update(json.dumps(list(stats.per_object.items())).encode())
    for level in (hierarchy.l1, hierarchy.l2):
        addrs, dirty = level.resident_arrays()
        _hash_array(h, f"{level.name}.addrs", addrs)
        _hash_array(h, f"{level.name}.dirty", dirty)
    return h.hexdigest()


def generate() -> dict[str, str]:
    tmp = tempfile.mkdtemp(prefix="filter-digests-")
    chunked.configure(tmp)
    try:
        return {f"{a}/{i}/{n}": digest(a, i, n) for a, i, n in builds()}
    finally:
        chunked.reset()
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    return pin_main(__doc__, "filter", generate, argv)


if __name__ == "__main__":
    sys.exit(main())
