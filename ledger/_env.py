"""The one environment pin for benchmark processes.

A job that exports any ``REPRO_*`` knob (fast-path kill switch, chaos
markers, store directories, worker counts, batching, retry limits, ...)
would silently change what a benchmark measures.  Rather than listing
the knobs one by one — a list that goes stale whenever a knob is added —
:func:`pinned_env` drops every ``REPRO_*`` variable and then sets only
what the benchmark asks for.  BLAS thread pools are pinned to one thread
so the serial simulator is not competing with idle numpy workers.
"""

from __future__ import annotations

import os
from typing import Mapping

#: Variables every benchmark process gets, whatever the caller exported.
PINNED = {
    "REPRO_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
}


def pinned_env(base: Mapping[str, str] | None = None,
               **extra: str) -> dict[str, str]:
    """A copy of ``base`` (default ``os.environ``) with the pin applied.

    Every ``REPRO_*`` variable is removed, :data:`PINNED` is set, and
    ``extra`` (e.g. a store directory a workload needs) goes on top.
    """
    source = os.environ if base is None else base
    env = {k: v for k, v in source.items() if not k.startswith("REPRO_")}
    env.update(PINNED)
    env.update(extra)
    return env
