"""Persistent content-addressed store for filtered miss streams.

Cache filtering is the sweep front end: every worker process needs the
``(MissStream, CacheStats)`` of each ``(app, input, n_accesses)`` it
replays, and the in-process ``lru_cache`` on
:func:`repro.sim.single.filtered_stream` cannot cross the
``ProcessPoolExecutor`` boundary.  This store persists filtered results
on disk so each trace is filtered once per *machine* instead of once
per process, the same profile-once/reuse-everywhere economy MOCA's
offline profiling pass is built around.

One entry is a :mod:`repro.util.castore` entry named by
:func:`key_digest` of the key document: five ``.npy`` columns, served
as read-only mmaps so workers across processes share the physical pages
through the OS page cache, plus a manifest holding the scalar stats.
Publishing, the corrupt/stale paths, ``refresh`` and the resident
decode cache (a repeated ``get`` returns the *same* objects) come from
the store primitive.

The key covers everything that determines the stream: application,
input, trace length, the full hierarchy geometry (sizes, ways, line
size), the warmup fraction, and the trace RNG root.

Module-level wiring: an explicit :func:`configure` call, else the
``stream_store_dir`` setting (``REPRO_STREAM_STORE_DIR``; the empty
string = explicitly disabled), else ``<cache_dir>/streams`` (see
:mod:`repro.util.settings`).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.cpu.hierarchy import CacheHierarchy, CacheStats, MissStream
from repro.util.castore import CAStore, Selection, digest
from repro.util.rng import ROOT_SEED

__all__ = [
    "STREAM_STORE_VERSION",
    "StreamStore",
    "active",
    "configure",
    "filter_key",
    "key_digest",
    "reset",
    "stats_dict",
]

#: On-disk entry format; entries from other versions are ignored.
STREAM_STORE_VERSION = 2

_ARRAYS = {"inst": np.int64, "vline": np.int64, "obj_id": np.int32,
           "dep": np.bool_, "kind": np.int8}

#: Decoded entries kept resident per process; sized for a sweep worker
#: cycling through a handful of workloads.
_RESIDENT_CAPACITY = 8

#: SHA-256 of the canonical JSON serialization of a key document.
key_digest = digest


def filter_key(app_name: str, input_name: str, n_accesses: int, *,
               hierarchy: CacheHierarchy | None = None,
               warmup_frac: float = 0.2) -> dict:
    """Canonical key document for one filtered stream.

    ``hierarchy=None`` keys the stock geometry (the one
    ``filtered_stream`` builds); passing a hierarchy keys its actual
    sizes so experiments with non-Table-I caches never alias.
    """
    h = hierarchy if hierarchy is not None else CacheHierarchy()
    return {
        "schema": "miss-stream",
        "app": app_name,
        "input": input_name,
        "n_accesses": int(n_accesses),
        "l1_size": h.l1.size_bytes,
        "l1_assoc": h.l1.assoc,
        "l2_size": h.l2.size_bytes,
        "l2_assoc": h.l2.assoc,
        "line_bytes": h.line_bytes,
        "warmup_frac": warmup_frac,
        "seed": ROOT_SEED,
    }


def _decode(doc: dict, arrays: dict) -> tuple[MissStream, CacheStats]:
    n = len(arrays["inst"])
    for name, arr in arrays.items():
        if len(arr) != n:
            raise ValueError(f"column {name!r} has {len(arr)} rows, "
                             f"'inst' has {n}")
    stats_doc = doc["stats"]
    stream = MissStream(total_instructions=int(doc["total_instructions"]),
                        **arrays)
    stats = CacheStats(
        total_instructions=int(stats_doc["total_instructions"]),
        l1_hits=int(stats_doc["l1_hits"]),
        l1_misses=int(stats_doc["l1_misses"]),
        l2_hits=int(stats_doc["l2_hits"]),
        l2_misses=int(stats_doc["l2_misses"]),
        n_writebacks=int(stats_doc["n_writebacks"]),
        # JSON round-trip preserves list order, so first-touch
        # iteration order survives; keys come back as ints.
        per_object={int(obj): [int(acc), int(miss)]
                    for obj, acc, miss in stats_doc["per_object"]},
    )
    return stream, stats


class StreamStore:
    """Content-addressed ``filter_key -> (MissStream, CacheStats)`` store.

    Args:
        directory: Store root; created lazily on the first store.
        refresh: When true, :meth:`get` always misses (forcing
            re-filtering) while :meth:`put` still overwrites — the
            ``--refresh`` CLI semantics extended to streams.
    """

    def __init__(self, directory: str | Path, *, refresh: bool = False):
        self.store = CAStore(directory, version=STREAM_STORE_VERSION,
                             label="stream store", counter="stream_store",
                             refresh=refresh, resident=_RESIDENT_CAPACITY)
        self.directory = self.store.directory
        self.refresh = refresh
        self.stats = self.store.stats

    def path_for(self, key: dict) -> Path:
        """Manifest path — its presence marks a complete entry."""
        return self.store.manifest_path(key_digest(key))

    def column_path(self, digest: str, name: str) -> Path:
        return self.directory / digest / f"{name}.npy"

    def get(self, key: dict) -> tuple[MissStream, CacheStats] | None:
        """Stored stream for ``key``, or ``None`` (= filter the trace).

        A hit returns *shared* read-only views: column arrays are
        ``np.load(mmap_mode="r")`` maps of the entry files (or the
        process-resident decode of a recent hit), so concurrent readers
        share physical pages.
        """
        return self.store.get(key_digest(key), _decode, _ARRAYS.items())

    def put(self, key: dict, stream: MissStream,
            stats: CacheStats) -> Path:
        """Store one filtered result atomically; returns the manifest path."""
        doc = {
            "key": key,
            "total_instructions": stream.total_instructions,
            "stats": {
                "total_instructions": stats.total_instructions,
                "l1_hits": stats.l1_hits,
                "l1_misses": stats.l1_misses,
                "l2_hits": stats.l2_hits,
                "l2_misses": stats.l2_misses,
                "n_writebacks": stats.n_writebacks,
                "per_object": [[obj, acc, miss] for obj, (acc, miss)
                               in stats.per_object.items()],
            },
        }
        self.store.put(key_digest(key), doc,
                       ((name, getattr(stream, name)) for name in _ARRAYS))
        return self.path_for(key)

    def __len__(self) -> int:
        return len(self.store)


# ---- module-level wiring ---------------------------------------------------

_selection = Selection("stream_store_dir", "streams", StreamStore)


def configure(directory: str | Path | None, *,
              refresh: bool = False) -> StreamStore | None:
    """Select the process-wide stream store.

    ``directory=None`` disables the store entirely (the ``--no-cache``
    semantics); otherwise a fresh :class:`StreamStore` (with fresh
    stats) is installed.  Returns the active store.
    """
    return _selection.configure(
        None if directory is None else StreamStore(directory,
                                                   refresh=refresh))


def reset() -> None:
    """Drop explicit configuration; the settings decide again."""
    _selection.reset()


def active() -> StreamStore | None:
    """The store ``filtered_stream`` will consult, or ``None``.

    Precedence: explicit :func:`configure` call, else the
    ``stream_store_dir`` setting (the empty string means *explicitly
    disabled*), else ``<cache_dir>/streams`` so one ``--cache-dir``
    flag keeps both caches side by side.
    """
    return _selection.active()


def stats_dict() -> dict | None:
    """Manifest-ready stats of the active store (``None`` = no store)."""
    store = active()
    if store is None:
        return None
    return {"directory": str(store.directory), **store.stats.to_dict()}
