"""Persistent content-addressed result cache for simulation runs.

One entry per :class:`~repro.sim.spec.RunSpec`: a
:mod:`repro.util.castore` entry named by :meth:`RunSpec.key` whose
manifest holds the canonical spec and the
:class:`~repro.sim.metrics.RunMetrics` round-tripped through
``to_dict``/``from_dict`` (no columns).  The key covers everything that
determines the numbers (workload, config *hash*, policy, trace length,
input, thresholds, seed), so a cache directory can be shared between
processes, sweeps, and repeated campaign invocations: online/offline
hybrid systems for heterogeneous memory amortize profiling across
executions the same way, by persisting guidance keyed by provenance.

Publishing, the corrupt/stale paths, ``--refresh`` and the resident
decode cache (repeat lookups of one spec skip the read and parse) come
from the store primitive.  The simulator's own version is recorded in
each entry for forensics but is deliberately **not** part of the key —
bump ``repro.__version__`` or pass ``--refresh`` after changing model
code.  Hits/misses/stores flow through ``OBS`` counters (``cache.hit``,
``cache.miss``, ...) and :attr:`ResultCache.stats` for the sweep
manifest's hit ratio.
"""

from __future__ import annotations

from pathlib import Path

from repro.sim.metrics import RunMetrics
from repro.sim.spec import RunSpec
from repro.util.castore import CAStore

__all__ = ["CACHE_VERSION", "ResultCache"]

#: On-disk entry format; entries from other versions are ignored.
CACHE_VERSION = 1


def _decode(manifest: dict, views: dict) -> dict:
    RunMetrics.from_dict(manifest["metrics"])  # validate once
    return manifest["metrics"]


class ResultCache:
    """Content-addressed ``RunSpec -> RunMetrics`` store on disk.

    Args:
        directory: Cache root; created lazily on the first store so a
            cache that is never written leaves no trace on disk.
        refresh: When true, :meth:`get` always misses (forcing
            re-simulation) while :meth:`put` still overwrites — the
            ``--refresh`` CLI semantics.
    """

    def __init__(self, directory: str | Path, *, refresh: bool = False):
        self.store = CAStore(directory, version=CACHE_VERSION,
                             label="result cache", counter="cache",
                             refresh=refresh, resident=256)
        self.directory = self.store.directory
        self.refresh = refresh
        self.stats = self.store.stats

    def path_for(self, spec: RunSpec) -> Path:
        """The entry's manifest path."""
        return self.store.manifest_path(spec.key())

    def get(self, spec: RunSpec) -> RunMetrics | None:
        """Cached metrics for ``spec``, or ``None`` (= simulate).

        The resident cache holds the metrics *document*, so every hit
        returns a fresh object that callers may mutate.
        """
        doc = self.store.get(spec.key(), _decode)
        return None if doc is None else RunMetrics.from_dict(doc)

    def put(self, spec: RunSpec, metrics: RunMetrics) -> Path:
        """Store one result atomically; returns the manifest path."""
        doc = metrics.to_dict()
        self.store.put(spec.key(), {"spec": spec.canonical(), "metrics": doc},
                       resident=doc)
        return self.path_for(spec)

    def __len__(self) -> int:
        return len(self.store)
