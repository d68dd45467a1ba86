"""Host-speed calibration: how fast is this host running right now?

A shared host has slow periods: other tenants' load slows every kind of
code alike (interpreter loops, dict work, numpy gathers) by 35-70 % for
tens of seconds, with sharp edges.  A 20 s ledger run that falls into
one reads 40 % slow on every metric, which no number of passes inside
the run can average away.  So the ledger samples this fixed,
repository-independent kernel next to every unit it times and reports
*reference-host seconds*: measured seconds scaled by
``REFERENCE_S / sample()``.  On the reference host in a quiet period
the factor is about 1; the raw seconds are kept in ``BENCH_ledger.json``.

The kernel is deliberately not simulator code: a change that speeds up
the simulator must not speed up the yardstick.
"""

from __future__ import annotations

import time

#: ``sample()`` on the reference host (2-core x86-64 Xeon, CPython 3.11)
#: in a quiet period.
REFERENCE_S = 0.0018


def _kernel() -> int:
    total = 0
    for i in range(20_000):
        total += i * i % 7
    table = {}
    for i in range(0, 20_000, 2):
        table[i] = i
    return total + len(table)


def sample() -> float:
    """Seconds the kernel takes now (median of three runs)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]
