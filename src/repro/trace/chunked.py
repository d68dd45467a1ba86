"""Chunked traces: mmap-native column shards in a content-addressed store.

A monolithic :class:`~repro.trace.events.AccessTrace` holds five full-
length columns in memory — fine at the default fidelity, hostile at
tens of millions of accesses or when importing real captured traces.
:class:`ChunkedTrace` stores the same five columns as fixed-size
shards on disk and replays them window by window, so both trace
*generation* (shard-by-shard from ``TraceBuilder.iter_blocks``) and
cache *filtering*
(:meth:`~repro.cpu.hierarchy.CacheHierarchy.filter_chunked`) run in
bounded RSS while producing byte-identical results to the monolithic
path (pinned by ``tests/test_trace_chunked.py``).

One trace is one :mod:`repro.util.castore` entry, named by the SHA-256
of its canonical key document (the :mod:`repro.sim.stream_store`
economy applied one stage earlier in the pipeline)::

    <store>/<digest>/shard-00000.inst.npy   # one file per column
    <store>/<digest>/shard-00000.vaddr.npy  # ... is_write/obj_id/dep
    <store>/<digest>/shard-00001.inst.npy
    <store>/<digest>/manifest.json          # written last = complete

Each window maps its shard's columns read-only off the page cache, so
concurrent readers of one entry share physical pages.  Publishing and
the corrupt/stale paths come from the store primitive.  Shards load
lazily, so a shard that fails to load is caught here: it drops the
whole entry through the same corrupt path and raises
:class:`CorruptTraceError` — callers rebuild and retry
(:func:`repro.sim.single.filtered_stream_chunked` does exactly that).

Module-level wiring: an explicit :func:`configure` call, else the
``trace_store_dir`` setting (``REPRO_TRACE_STORE_DIR``), else
``<cache_dir>/traces`` — so every worker of a ``--cache-dir`` campaign
shares one store — else a process-lifetime temporary directory (chunked
traces must live *somewhere* on disk — that is the point).  An empty
``trace_store_dir`` and ``--no-cache`` also select the temporary
directory (see :mod:`repro.util.settings`).
"""

from __future__ import annotations

import atexit
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.trace.events import AccessTrace, VirtualLayout
from repro.trace.io import COLUMN_DTYPES, layout_from_doc, layout_to_doc
from repro.util.castore import (CORRUPT_ERRORS, MANIFEST_NAME, CAStore,
                                Selection, digest, load_column, quarantine,
                                write_entry)
from repro.util.rng import ROOT_SEED

__all__ = [
    "MANIFEST_NAME",
    "TRACE_STORE_VERSION",
    "ChunkedTrace",
    "CorruptTraceError",
    "TraceStore",
    "active",
    "build_chunked",
    "chunk_trace",
    "configure",
    "reset",
    "trace_key",
]

#: On-disk entry format; entries from other versions are dropped.
TRACE_STORE_VERSION = 2


class CorruptTraceError(RuntimeError):
    """A shard failed to load; the store entry has been deleted.

    Rebuilding the entry (same key) and retrying recovers — the
    chunked drivers in ``repro.sim.single`` do this automatically.
    """


def trace_key(app_name: str, input_name: str, n_accesses: int,
              chunk_accesses: int) -> dict:
    """Canonical key document for one synthetic chunked trace.

    ``chunk_accesses`` is part of the key: shard *content* is identical
    across shard sizes, but the files are laid out differently, so two
    sizes cannot share an entry.
    """
    return {
        "schema": "chunked-trace",
        "app": app_name,
        "input": input_name,
        "n_accesses": int(n_accesses),
        "chunk_accesses": int(chunk_accesses),
        "seed": ROOT_SEED,
    }


class ChunkedTrace:
    """A trace stored as fixed-size column shards under one directory.

    Construct via :meth:`TraceStore.get`, :func:`build_chunked`, or
    :func:`chunk_trace` — the constructor trusts its manifest.  The
    layout (and with it ``resolve``/placement) is rebuilt from the
    manifest, so no monolithic columns are ever needed.
    """

    def __init__(self, directory: str | Path, manifest: dict):
        self.directory = Path(directory)
        self.n_accesses = int(manifest["n_accesses"])
        self.chunk_accesses = int(manifest["chunk_accesses"])
        self.total_instructions = int(manifest["total_instructions"])
        self.shard_rows = [int(r) for r in manifest["shard_rows"]]
        if sum(self.shard_rows) != self.n_accesses:
            raise ValueError(
                f"shard rows sum to {sum(self.shard_rows)}, manifest "
                f"says {self.n_accesses} accesses")
        self.layout = layout_from_doc(manifest["layout"])

    def __len__(self) -> int:
        return self.n_accesses

    @property
    def n_shards(self) -> int:
        return len(self.shard_rows)

    def shard_path(self, i: int) -> Path:
        """A representative file of shard ``i`` (its ``inst`` column) —
        damage it and the shard is gone."""
        return self.column_path(i, "inst")

    def column_path(self, i: int, name: str) -> Path:
        return self.directory / f"shard-{i:05d}.{name}.npy"

    def windows(self):
        """Yield one :class:`AccessTrace` window per shard, in order.

        Windows share this trace's layout; ``inst`` carries *global*
        cumulative instruction counts, so windowed consumers see the
        exact rows a monolithic build would hold.  A shard that fails
        to load deletes the entry and raises
        :class:`CorruptTraceError` (rebuild + retry to recover).
        """
        for i in range(self.n_shards):
            yield self._load_shard(i)

    def _load_shard(self, i: int) -> AccessTrace:
        try:
            cols = {name: load_column(self.column_path(i, name), dtype,
                                      self.shard_rows[i])
                    for name, dtype in COLUMN_DTYPES.items()}
        except CORRUPT_ERRORS as exc:
            quarantine(self.directory, exc, "trace store", "trace_store")
            raise CorruptTraceError(str(self.shard_path(i))) from exc
        return AccessTrace(layout=self.layout,
                           total_instructions=self.total_instructions,
                           **cols)

    def materialize(self) -> AccessTrace:
        """Concatenate every shard into one monolithic trace.

        For tests and small traces only — this is exactly the RSS cost
        chunking exists to avoid.
        """
        windows = list(self.windows())
        return AccessTrace(
            inst=np.concatenate([w.inst for w in windows]),
            vaddr=np.concatenate([w.vaddr for w in windows]),
            is_write=np.concatenate([w.is_write for w in windows]),
            obj_id=np.concatenate([w.obj_id for w in windows]),
            dep=np.concatenate([w.dep for w in windows]),
            layout=self.layout,
            total_instructions=self.total_instructions,
        )


# ---- writing ----------------------------------------------------------------


def _shards(blocks, chunk_accesses: int, shard_rows: list[int]):
    """Reshard variable-size column blocks into fixed-size shards.

    Yields ``(file stem, column)`` pairs for the store to save, one
    column at a time, and appends each shard's row count to
    ``shard_rows`` — so only one shard plus one block is ever resident.
    """
    bufs: dict[str, list[np.ndarray]] = {name: [] for name in COLUMN_DTYPES}

    def emit(rows: int):
        stem = f"shard-{len(shard_rows):05d}"
        for name in COLUMN_DTYPES:
            whole = np.concatenate(bufs[name])
            bufs[name] = [whole[rows:]] if rows < len(whole) else []
            yield f"{stem}.{name}", whole[:rows]
        shard_rows.append(rows)

    buffered = 0
    for cols in blocks:
        for name, dtype in COLUMN_DTYPES.items():
            bufs[name].append(cols[name].astype(dtype, copy=False))
        buffered += len(cols["inst"])
        while buffered >= chunk_accesses:
            yield from emit(chunk_accesses)
            buffered -= chunk_accesses
    if buffered:
        yield from emit(buffered)


def _entry(blocks, chunk_accesses: int, layout: VirtualLayout,
           total_instructions, key: dict | None):
    """``(columns, manifest)`` of one entry, for the store to write.

    ``total_instructions`` may be a zero-arg callable, evaluated after
    the last block streamed — generation only knows the final
    instruction count then.
    """
    if chunk_accesses <= 0:
        raise ValueError(
            f"chunk_accesses must be positive, got {chunk_accesses}")
    shard_rows: list[int] = []

    def manifest() -> dict:
        total = (total_instructions() if callable(total_instructions)
                 else total_instructions)
        return {"key": key, "n_accesses": sum(shard_rows),
                "chunk_accesses": int(chunk_accesses),
                "shard_rows": shard_rows,
                "total_instructions": int(total),
                "layout": layout_to_doc(layout)}

    return _shards(blocks, chunk_accesses, shard_rows), manifest


def _synthesize(builder, n_accesses: int, rng: np.random.Generator,
                chunk_accesses: int, layout: VirtualLayout | None,
                key: dict | None):
    """``(columns, manifest)`` streamed from ``builder.iter_blocks``.

    The cumulative instruction counter is threaded across blocks, the
    excess rows of the final burst are dropped exactly as
    ``TraceBuilder.build`` truncates them, and the generator is always
    drained so the caller's ``rng`` finishes in the identical end state.
    """
    layout = layout if layout is not None else VirtualLayout()
    default_gap = max(1.0, 1000.0 / builder.mem_per_ki)
    carry = {"inst": 0, "total": 0}

    def blocks():
        for vaddr, is_write, dep, obj_id, gaps in builder.iter_blocks(
                n_accesses, rng, layout=layout):
            take = min(len(vaddr), n_accesses - carry["total"])
            if take <= 0:
                continue  # drain: the kernel commits rng state at the end
            inst = np.cumsum(gaps[:take]) + carry["inst"]
            carry["inst"] = int(inst[-1])
            carry["total"] += take
            yield {"inst": inst, "vaddr": vaddr[:take],
                   "is_write": is_write[:take], "obj_id": obj_id[:take],
                   "dep": dep[:take]}

    return _entry(blocks(), chunk_accesses, layout,
                  lambda: carry["inst"] + round(default_gap), key)


def build_chunked(builder, n_accesses: int, rng: np.random.Generator,
                  directory: str | Path, *, chunk_accesses: int,
                  layout: VirtualLayout | None = None,
                  key: dict | None = None) -> ChunkedTrace:
    """Generate a chunked trace shard-by-shard from a ``TraceBuilder``.

    Streams ``builder.iter_blocks`` (kernel or reference engine, as the
    builder chooses) through a resharding accumulator, so peak RSS is
    one shard plus one generator block — never the whole trace.  Content
    is byte-identical to ``builder.build`` with the same arguments,
    including the final state of ``rng``.
    """
    columns, manifest = _synthesize(builder, n_accesses, rng,
                                    chunk_accesses, layout, key)
    return ChunkedTrace(directory, write_entry(
        directory, columns, manifest, TRACE_STORE_VERSION, replace=True))


def chunk_trace(trace: AccessTrace, directory: str | Path, *,
                chunk_accesses: int, key: dict | None = None) -> ChunkedTrace:
    """Reshard an in-memory trace into a chunked store entry.

    The import path for external traces: :func:`repro.trace.io
    .import_trace` loads a captured trace file and hands it here.
    """
    def blocks():
        for s in range(0, len(trace), chunk_accesses):
            yield {name: getattr(trace, name)[s:s + chunk_accesses]
                   for name in COLUMN_DTYPES}

    columns, manifest = _entry(blocks(), chunk_accesses, trace.layout,
                               trace.total_instructions, key)
    return ChunkedTrace(directory, write_entry(
        directory, columns, manifest, TRACE_STORE_VERSION, replace=True))


# ---- the store --------------------------------------------------------------


class TraceStore:
    """Content-addressed ``trace_key -> ChunkedTrace`` directory store."""

    def __init__(self, directory: str | Path):
        self.store = CAStore(directory, version=TRACE_STORE_VERSION,
                             label="trace store", counter="trace_store")
        self.directory = self.store.directory

    def entry_dir(self, key: dict) -> Path:
        return self.directory / digest(key)

    def get(self, key: dict) -> ChunkedTrace | None:
        """Stored trace for ``key``, or ``None`` (= build it).

        A missing manifest (absent entry, or a build that died before
        publishing) reads as a miss; an unreadable or version-stale
        entry is deleted and reads as a miss.
        """
        entry = self.entry_dir(key)
        return self.store.get(entry.name,
                              lambda manifest, _: ChunkedTrace(entry,
                                                               manifest))

    def build(self, key: dict, builder, n_accesses: int,
              rng: np.random.Generator) -> ChunkedTrace:
        """Build (and publish) the entry for a synthetic-trace key."""
        columns, manifest = _synthesize(builder, n_accesses, rng,
                                        key["chunk_accesses"], None, key)
        return ChunkedTrace(self.entry_dir(key),
                            self.store.put(digest(key), manifest, columns))

    def __len__(self) -> int:
        return len(self.store)


# ---- module-level wiring ---------------------------------------------------

_selection = Selection("trace_store_dir", "traces",
                       lambda d, refresh: TraceStore(d))
_tmp_store: TraceStore | None = None


def configure(directory: str | Path) -> TraceStore:
    """Select the process-wide trace store explicitly."""
    return _selection.configure(TraceStore(directory))


def reset() -> None:
    """Drop explicit configuration; the settings decide again."""
    _selection.reset()


def active() -> TraceStore:
    """The store chunked builds land in (never ``None``).

    Precedence: explicit :func:`configure` call, else the
    ``trace_store_dir`` setting, else ``<cache_dir>/traces``, else a
    process-lifetime temporary directory (removed at exit).
    """
    global _tmp_store
    store = _selection.active()
    if store is not None:
        return store
    if _tmp_store is None:
        tmp = tempfile.mkdtemp(prefix="repro-traces-")
        atexit.register(shutil.rmtree, tmp, ignore_errors=True)
        _tmp_store = TraceStore(tmp)
    return _tmp_store
