"""Process-level resident cache for the zero-copy data plane.

The mmap-native stores (:mod:`repro.util.castore` and the stores
built on it) map artefacts straight off disk, so the expensive part of
a warm load is no longer I/O but the *decode* around it: rebuilding
``MissStream``/``CacheStats`` wrappers from the mapped columns.  A
sweep worker that replays 30 configs of the same workload repeats that
decode 30 times unless something holds onto the result.

:class:`ResidentLRU` is that something: a small bounded
most-recently-used map each store keys however it likes (store entry
path + mtime).  It is process-local by design — the cross-process
sharing happens one layer down, in the page cache backing the mmaps.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

__all__ = ["ResidentLRU"]


class ResidentLRU:
    """Bounded process-level LRU keyed by arbitrary hashables.

    Args:
        capacity: Maximum resident entries; the least-recently-used
            entry is dropped when a put would exceed it.  ``0`` disables
            caching entirely (every get misses, every put is ignored) —
            the kill switch for memory-constrained runs.
    """

    def __init__(self, capacity: int = 16):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def get(self, key: Hashable) -> Any | None:
        """Resident value for ``key``, or ``None`` (also bumps recency)."""
        try:
            value = self._entries[key]
        except KeyError:
            return None
        self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def pop(self, key: Hashable) -> None:
        """Drop ``key`` if resident (used when the backing entry dies)."""
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries
