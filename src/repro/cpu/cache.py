"""Set-associative LRU cache with write-back/write-allocate semantics.

The tag store is a list of per-set ``dict``s mapping tag → dirty flag.
Python dicts preserve insertion order, so the first key of a set is its
LRU line; an access re-inserts its tag to move it to MRU position.  The
filter kernel (:mod:`repro.cpu.filter_kernel`) reads and rewrites these
dicts as a hierarchy's warm state; :meth:`SetAssocCache.access` is the
per-access path of the reference filter loop the kernel is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_power_of_two


@dataclass(frozen=True)
class EvictedLine:
    """A victim pushed out by a fill."""

    line_addr: int
    dirty: bool


class SetAssocCache:
    """One level of set-associative cache.

    Args:
        size_bytes: Total capacity.
        assoc: Ways per set.
        line_bytes: Line size (default 64, Table I).
        name: Label for introspection.
    """

    def __init__(self, size_bytes: int, assoc: int, line_bytes: int = 64,
                 name: str = "cache"):
        check_power_of_two("size_bytes", size_bytes)
        check_power_of_two("assoc", assoc)
        check_power_of_two("line_bytes", line_bytes)
        n_sets = size_bytes // (assoc * line_bytes)
        if n_sets < 1:
            raise ValueError("cache smaller than one set")
        check_power_of_two("derived set count", n_sets)
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.name = name
        self.n_sets = n_sets
        self._set_mask = n_sets - 1
        self._line_shift = (line_bytes - 1).bit_length()
        self._sets: list[dict[int, bool]] = [dict() for _ in range(n_sets)]
        self.n_hits = 0
        self.n_misses = 0

    def access(self, addr: int, is_write: bool) -> tuple[bool, EvictedLine | None]:
        """Access the byte address; returns ``(hit, evicted_or_None)``.

        A miss allocates the line (write-allocate); the LRU victim, if
        any, is returned so the caller can propagate dirty writebacks.
        """
        line = addr >> self._line_shift
        s = self._sets[line & self._set_mask]
        tag = line >> 0  # full line number doubles as tag (set bits included, harmless)
        if tag in s:
            dirty = s.pop(tag)
            s[tag] = dirty or is_write
            self.n_hits += 1
            return True, None
        self.n_misses += 1
        evicted = None
        if len(s) >= self.assoc:
            victim_tag = next(iter(s))
            victim_dirty = s.pop(victim_tag)
            evicted = EvictedLine(victim_tag << self._line_shift, victim_dirty)
        s[tag] = is_write
        return False, evicted

    def contains(self, addr: int) -> bool:
        """Presence probe without LRU side effects."""
        line = addr >> self._line_shift
        return line in self._sets[line & self._set_mask]

    @property
    def n_accesses(self) -> int:
        return self.n_hits + self.n_misses

    @property
    def miss_rate(self) -> float:
        n = self.n_accesses
        return self.n_misses / n if n else 0.0

    def reset_stats(self) -> None:
        self.n_hits = 0
        self.n_misses = 0

    def resident_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All resident lines as ``(line_addrs, dirty)`` numpy arrays.

        Set-major, LRU→MRU within each set — the tag stores' iteration
        order verbatim, so the parity harness can compare two caches'
        full state (contents, dirtiness, *and* recency order) with one
        ``array_equal`` per array instead of walking dicts.
        """
        n = sum(len(s) for s in self._sets)
        addrs = np.empty(n, dtype=np.int64)
        dirty = np.empty(n, dtype=bool)
        i = 0
        for s in self._sets:
            for tag, d in s.items():
                addrs[i] = tag << self._line_shift
                dirty[i] = d
                i += 1
        return addrs, dirty
