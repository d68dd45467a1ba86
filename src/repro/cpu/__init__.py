"""Core-side timing models: caches, MSHR-limited MLP, ROB stall accounting.

The paper's metrics are produced by an out-of-order core (Table I:
3-wide, 84-entry ROB, 32-entry LQ, 64 KB L1, 512 KB unified L2, 20 MSHRs).
This subpackage reproduces the *memory-facing* behaviour of that core with
a trace-driven interval model:

* :mod:`repro.cpu.cache` — set-associative write-back caches;
* :mod:`repro.cpu.hierarchy` — the L1+L2 hierarchy that turns an access
  trace into an LLC-miss stream with per-object miss counts;
* :mod:`repro.cpu.core` — the interval core that replays the miss stream
  against a memory system, overlapping misses up to the MSHR/ROB/MLP
  limits and accounting ROB-head stall cycles per load miss — the paper's
  second classification metric (Mutlu et al., IEEE Micro'06).
"""

from repro.cpu.cache import SetAssocCache
from repro.cpu.hierarchy import CacheHierarchy, MissStream, CacheStats
from repro.cpu.core import CoreParams, CoreResult, InOrderWindowCore

__all__ = [
    "SetAssocCache",
    "CacheHierarchy",
    "MissStream",
    "CacheStats",
    "CoreParams",
    "CoreResult",
    "InOrderWindowCore",
]
