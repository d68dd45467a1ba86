"""Pins for synthesized traces: one SHA-256 per (app, input, length).

Each digest covers everything a trace build hands back — the five
columns (``inst``, ``vaddr``, ``is_write``, ``dep``, ``obj_id``, with
their dtypes), ``total_instructions`` and the generator's final PCG64
state — for every stock application on the ``train``, ``ref``,
``ref2``, ``drift1`` and ``drift2`` inputs at 30k accesses, the six
Lemire-heavy builds at 120k (rand/chase objects whose rejections the
synthesis kernel walks hundreds of times per build), plus the two
1M-access builds the synthesis benchmark and the ``scale`` ledger
workload run.  A synthesis change that alters any column, the
instruction count or the number of RNG words it consumes changes a
digest.

Write the pins, or regenerate and compare against committed ones::

    PYTHONPATH=src python benchmarks/trace_digests.py --out results/trace-tiny/digests.json
    PYTHONPATH=src python benchmarks/trace_digests.py --check results/trace-tiny/digests.json

``--check`` exits 1 and names every mismatching build.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE.parent / "src"))

from digest_pins import pin_main  # noqa: E402
from repro.trace.builder import TraceBuilder  # noqa: E402
from repro.util.rng import stream  # noqa: E402
from repro.workloads.inputs import _perturbed  # noqa: E402
from repro.workloads.spec import APPS, app  # noqa: E402

INPUTS = ("train", "ref", "ref2", "drift1", "drift2")
SHORT = 30_000
HEAVY = (("milc", "ref", 120_000), ("milc", "drift1", 120_000),
         ("milc", "train", 120_000), ("mcf", "ref", 120_000),
         ("mcf", "train", 120_000), ("disparity", "ref", 120_000))
LONG = (("sift", "train", 1_000_000), ("gcc", "train", 1_000_000))
COLUMNS = ("inst", "vaddr", "is_write", "dep", "obj_id")


def builds() -> list[tuple[str, str, int]]:
    """Every pinned ``(app, input, n_accesses)``, in file order."""
    return ([(a, i, SHORT) for a in APPS for i in INPUTS] + list(HEAVY)
            + list(LONG))


def digest(app_name: str, input_name: str, n_accesses: int) -> str:
    """SHA-256 of one build: columns, instruction count, final RNG state.

    The build is :func:`repro.workloads.inputs.build_app_trace`'s, minus
    the memo, so the generator's end state is observable.
    """
    builder = TraceBuilder(list(_perturbed(app(app_name), input_name)))
    rng = stream("trace", app_name, input_name, n_accesses)
    trace = builder.build(n_accesses, rng)
    h = hashlib.sha256()
    for name in COLUMNS:
        col = np.ascontiguousarray(getattr(trace, name))
        h.update(f"{name}:{col.dtype.str}:{col.size};".encode())
        h.update(col.tobytes())
    h.update(f"total_instructions:{trace.total_instructions};".encode())
    h.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
    return h.hexdigest()


def generate() -> dict[str, str]:
    return {f"{a}/{i}/{n}": digest(a, i, n) for a, i, n in builds()}


def main(argv: list[str] | None = None) -> int:
    return pin_main(__doc__, "trace", generate, argv)


if __name__ == "__main__":
    sys.exit(main())
