"""One content-addressed store primitive under every persistent cache.

The result cache (:mod:`repro.experiments.cache`), the miss-stream store
(:mod:`repro.sim.stream_store`), the MOCA profile store beside it
(:func:`repro.moca.profiler.profile_app`) and the chunked-trace store
(:mod:`repro.trace.chunked`) all persist "compute once, reuse on every
machine-local process" artefacts.  They share this module's layout and
crash-consistency discipline and keep only their own key and
encode/decode.  One entry is one directory named by a digest string::

    <root>/<digest>/<column>.npy     # raw np.save files, mapped read-only
    <root>/<digest>/manifest.json    # a JSON object; present = complete

Rules every store gets from here:

* **Atomic publish.**  An entry is built in a dot-named temp directory
  beside its final name and published with one ``os.rename``, so a
  reader sees a whole entry or none, and a writer that dies before
  publishing leaves nothing readable.  Columns are consumed from an
  iterable one at a time, so a generator keeps one shard resident.
* **One corrupt path.**  A manifest that is not UTF-8, not JSON or not
  a JSON object, and a column that is missing, truncated or of the
  wrong dtype or shape, all warn once via ``OBS.warn``, drop the entry
  and read as a miss.  A manifest from another ``version`` is stale:
  dropped quietly, also a miss.
* **Drop is a rename.**  :func:`discard` moves an entry out of the
  namespace before deleting it; POSIX keeps an unlinked mapping valid,
  so views handed out earlier survive a drop or an overwrite.
* **Resident decode.**  A small per-store :class:`ResidentLRU` keyed by
  the manifest's ``(path, inode, mtime_ns, size)`` keeps recently decoded
  entries, so a repeated ``get`` skips the parse entirely.

There is no eviction: clear the directory to reclaim space.  Store
selection (:class:`Selection`) is written once too: an explicit
``configure`` call, else the store's own directory setting (the empty
string = disabled), else ``<cache_dir>/<subdir>`` (see
:mod:`repro.util.settings`).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from repro.obs.registry import OBS
from repro.util import settings
from repro.util.resident import ResidentLRU

__all__ = ["CORRUPT_ERRORS", "MANIFEST_NAME", "CAStore", "Selection",
           "StoreStats", "digest", "discard", "load_column", "quarantine",
           "write_entry"]

MANIFEST_NAME = "manifest.json"

#: What reading damaged bytes can raise (decoding untrusted JSON can
#: surface as any of these); every one of them means a corrupt entry.
CORRUPT_ERRORS = (OSError, ValueError, KeyError, TypeError,
                  AttributeError, EOFError)


def digest(doc: dict) -> str:
    """SHA-256 of the compact, key-sorted JSON of a key document."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class StoreStats:
    """Per-instance tallies; ``hit_ratio`` feeds the sweep manifest."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    @property
    def hit_ratio(self) -> float:
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "corrupt": self.corrupt,
                "hit_ratio": round(self.hit_ratio, 6)}


# ---- entry-level operations -------------------------------------------------


def write_entry(entry: str | Path, columns: Iterable[tuple[str, np.ndarray]],
                manifest: dict | Callable[[], dict], version: int, *,
                replace: bool = False) -> dict:
    """Build ``entry`` in a temp directory, then publish it with a rename.

    ``manifest`` may be a zero-argument callable, evaluated after the
    last column is written (streamed shards only know their row counts
    then).  ``version`` and ``repro_version`` are stamped into it.
    A complete entry already under the name is kept — a racing writer
    published the same digest, so it is interchangeable — unless
    ``replace`` (``--refresh``, or a caller-named directory) asks to
    overwrite it.  Returns the manifest written.
    """
    from repro import __version__

    entry = Path(entry)
    entry.parent.mkdir(parents=True, exist_ok=True)
    tmp = entry.with_name(f".{entry.name}.{os.getpid()}.tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        for name, arr in columns:
            # np.save pads its header to a 64-byte boundary, so the
            # mapped data is aligned.
            np.save(tmp / f"{name}.npy", np.ascontiguousarray(arr))
        doc = manifest() if callable(manifest) else manifest
        doc = {"version": version, "repro_version": __version__, **doc}
        (tmp / MANIFEST_NAME).write_text(json.dumps(doc))
        try:
            os.rename(tmp, entry)
        except OSError:
            if replace or not (entry / MANIFEST_NAME).exists():
                # Overwrite: move the old entry aside, publish, and
                # only then delete it.
                grave = _bury(entry)
                try:
                    os.rename(tmp, entry)
                except OSError:
                    # A writer racing us published in between.
                    if not (entry / MANIFEST_NAME).exists():
                        raise
                finally:
                    if grave is not None:
                        shutil.rmtree(grave, ignore_errors=True)
            shutil.rmtree(tmp, ignore_errors=True)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return doc


def discard(entry: str | Path) -> None:
    """Remove ``entry``: rename it out of the namespace, then delete it.

    Readers see the whole entry or nothing; mappings of its columns
    stay valid after the delete.  An absent entry is a no-op.
    """
    grave = _bury(Path(entry))
    if grave is not None:
        shutil.rmtree(grave, ignore_errors=True)


def _bury(entry: Path) -> Path | None:
    """Rename ``entry`` to a dot-named grave; ``None`` if it is absent."""
    grave = entry.with_name(f".{entry.name}.{os.getpid()}.drop.tmp")
    shutil.rmtree(grave, ignore_errors=True)
    try:
        os.rename(entry, grave)
    except OSError:
        return None
    return grave


def load_column(path: Path, dtype, rows: int | None = None) -> np.ndarray:
    """Read-only mmap of one column file, checked against ``dtype``/``rows``.

    A missing file raises ``FileNotFoundError``, damaged bytes or a
    mismatch ``ValueError`` — both in :data:`CORRUPT_ERRORS`.
    """
    arr = np.load(path, mmap_mode="r")
    if (arr.dtype != dtype or arr.ndim != 1
            or rows is not None and len(arr) != rows):
        want = f"({rows},)" if rows is not None else "1-D"
        raise ValueError(f"column {path.stem!r} has shape {arr.shape} dtype "
                         f"{arr.dtype} (want {want} {np.dtype(dtype)})")
    OBS.add("data_plane.bytes_mapped", arr.nbytes)
    return arr


def quarantine(entry: Path, exc: BaseException, label: str,
               counter: str) -> None:
    """The corrupt-entry path: warn once, count, and drop the entry."""
    OBS.warn(f"{label}: corrupt entry {entry.name} "
             f"({type(exc).__name__}: {exc}); recomputing")
    OBS.add(f"{counter}.corrupt")
    discard(entry)


# ---- the store --------------------------------------------------------------


class CAStore:
    """Digest-addressed entries under one root directory.

    Args:
        directory: Store root; created lazily by the first :meth:`put`.
        version: Manifest format; entries of any other version are stale.
        label: Warning prefix (``"stream store"``).
        counter: ``OBS`` counter prefix (``"stream_store"``).
        refresh: When true, :meth:`get` always misses while :meth:`put`
            still overwrites — the ``--refresh`` semantics.
        resident: Decoded entries kept per process (0 = none).
    """

    def __init__(self, directory: str | Path, *, version: int, label: str,
                 counter: str, refresh: bool = False, resident: int = 8):
        self.directory = Path(directory)
        self.version = version
        self.label = label
        self.counter = counter
        self.refresh = refresh
        self.stats = StoreStats()
        self._resident = ResidentLRU(resident)

    def manifest_path(self, digest: str) -> Path:
        return self.directory / digest / MANIFEST_NAME

    def get(self, digest: str, decode: Callable[[dict, dict], Any],
            columns: Iterable[tuple[str, Any]] = ()) -> Any | None:
        """``decode(manifest, views)`` of the entry, or ``None`` (a miss).

        ``views`` maps the name of each ``(name, dtype)`` in ``columns``
        to a read-only mmap of that column.  ``decode`` raises one of
        :data:`CORRUPT_ERRORS` on content it cannot use.
        """
        if self.refresh:
            return self._miss("refresh_bypass")
        path = self.manifest_path(digest)
        try:
            sig = _signature(path)
            value = self._resident.get(sig)
            if value is not None:
                OBS.add(f"{self.counter}.resident_hit")
                OBS.add("data_plane.copies_avoided")
                return self._hit(value)
            raw = path.read_bytes()
        except OSError:  # absent, or dropped under us
            return self._miss()
        try:
            manifest = json.loads(raw.decode())
            if not isinstance(manifest, dict):
                raise ValueError("manifest is not a JSON object")
            if manifest.get("version") != self.version:
                discard(path.parent)
                OBS.add(f"{self.counter}.stale")
                return self._miss()
            views = {name: load_column(path.parent / f"{name}.npy", dtype)
                     for name, dtype in columns}
            value = decode(manifest, views)
        except CORRUPT_ERRORS as exc:
            quarantine(path.parent, exc, self.label, self.counter)
            self.stats.corrupt += 1
            return self._miss()
        if views:
            OBS.add("data_plane.copies_avoided")
        self._resident.put(sig, value)
        return self._hit(value)

    def put(self, digest: str, manifest: dict | Callable[[], dict],
            columns: Iterable[tuple[str, np.ndarray]] = (), *,
            resident: Any = None) -> dict:
        """Publish one entry atomically; returns the manifest written.

        ``resident`` seeds the resident cache with the value a later
        :meth:`get` would decode, so it skips the parse too.
        """
        doc = write_entry(self.directory / digest, columns, manifest,
                          self.version, replace=self.refresh)
        self.stats.stores += 1
        OBS.add(f"{self.counter}.store")
        if resident is not None:
            try:
                sig = _signature(self.manifest_path(digest))
            except OSError:
                return doc
            self._resident.put(sig, resident)
        return doc

    def drop(self, digest: str) -> None:
        discard(self.directory / digest)

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for p in self.directory.iterdir()
                   if not p.name.startswith(".")
                   and (p / MANIFEST_NAME).exists())

    def _hit(self, value: Any) -> Any:
        self.stats.hits += 1
        OBS.add(f"{self.counter}.hit")
        return value

    def _miss(self, reason: str = "miss") -> None:
        self.stats.misses += 1
        OBS.add(f"{self.counter}.{reason}")
        return None


def _signature(path: Path) -> tuple:
    """Resident-cache key: a republished entry has a new manifest inode."""
    st = path.stat()
    return str(path), st.st_ino, st.st_mtime_ns, st.st_size


# ---- process-wide selection -------------------------------------------------

_UNSET = object()


class Selection:
    """Which store of one kind a process uses.

    Precedence: an explicit :meth:`configure` (``None`` = disabled),
    else the :mod:`repro.util.settings` field named ``field`` (the empty
    string = disabled — how ``--no-cache`` shields the workers), else
    ``<cache_dir>/<subdir>`` (no fallback when ``subdir`` is ``None``).
    Stores are built with the settings' ``refresh`` flag, and one store
    is kept per ``(directory, refresh)`` choice.
    """

    def __init__(self, field: str, subdir: str | None,
                 make: Callable[..., Any]):
        self.field = field
        self.subdir = subdir
        self.make = make
        self.reset()

    def configure(self, store: Any) -> Any:
        self._override = store
        return store

    def reset(self) -> None:
        """Drop explicit configuration; the settings decide again."""
        self._override = _UNSET
        self._store = None
        self._key = None

    def active(self) -> Any:
        if self._override is not _UNSET:
            return self._override
        campaign = settings.current()
        directory = getattr(campaign, self.field)
        if directory is None:
            base = campaign.cache_dir
            directory = (str(Path(base) / self.subdir)
                         if base and self.subdir else "")
        if not directory:
            return None
        key = (directory, campaign.refresh)
        if self._key != key:
            self._store = self.make(Path(directory), refresh=campaign.refresh)
            self._key = key
        return self._store
