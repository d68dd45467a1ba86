"""Page table and TLB models.

The page table maps virtual page numbers to ``(channel group, frame)``
pairs.  It is three parallel numpy columns sorted by vpage — ``keys``,
``groups``, ``frames`` — so translating a whole miss stream is one
``searchsorted`` with nothing to rebuild.  Mappings are created a run at
a time by the OS allocator (:meth:`PageTable.map_pages`); scalar lookups
and page migrations (:meth:`PageTable.remap`) go through a lazily built
vpage → row index and write the columns in place.

The TLB model mirrors the paper's Sec. IV-D narrative (TLB hit → PTE,
miss → page walk) and is used for statistics; its latency contribution is
identical across memory systems and thus cancels in every normalized
figure, so the experiment drivers leave it disabled by default.
"""

from __future__ import annotations

import numpy as np

from repro.trace.events import PAGE_BYTES


class PageTable:
    """vpage → (group, frame) mapping with vectorized bulk translation."""

    def __init__(self):
        self._keys = np.empty(0, dtype=np.int64)
        self._groups = np.empty(0, dtype=np.int32)
        self._frames = np.empty(0, dtype=np.int64)
        #: vpage → row of the columns; rebuilt lazily after a map.
        self._rows: dict[int, int] | None = None

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, vpage: int) -> bool:
        return vpage in self._row_index()

    def _row_index(self) -> dict[int, int]:
        if self._rows is None:
            self._rows = dict(zip(self._keys.tolist(), range(len(self._keys))))
        return self._rows

    def map_pages(self, vpages, group, frames) -> None:
        """Map a run of vpages; ``group`` is one group id or one per page.

        Raises ``ValueError`` (mapping nothing) if any vpage is already
        mapped or appears twice in the run.
        """
        keys = np.asarray(vpages, dtype=np.int64).reshape(-1)
        if not len(keys):
            return
        groups = np.broadcast_to(np.asarray(group, dtype=np.int32), keys.shape)
        frames = np.asarray(frames, dtype=np.int64).reshape(-1)
        if len(keys) > 1 and not (keys[1:] > keys[:-1]).all():
            order = np.argsort(keys, kind="stable")
            keys, groups, frames = keys[order], groups[order], frames[order]
            dup = keys[1:] == keys[:-1]
            if dup.any():
                raise ValueError(
                    f"vpage {int(keys[1:][dup][0]):#x} already mapped")
        old = self._keys
        lo, hi = np.searchsorted(old, (keys[0], keys[-1]))
        if lo == hi:
            # The run fits one gap between mapped pages (or extends the
            # table at either end): splice it in.
            if hi < len(old) and old[hi] == keys[-1]:
                raise ValueError(f"vpage {int(keys[-1]):#x} already mapped")
            self._keys = np.concatenate((old[:lo], keys, old[lo:]))
            self._groups = np.concatenate(
                (self._groups[:lo], groups, self._groups[lo:]))
            self._frames = np.concatenate(
                (self._frames[:lo], frames, self._frames[lo:]))
        else:
            pos = np.searchsorted(old, keys)
            clash = old[np.minimum(pos, len(old) - 1)] == keys
            if clash.any():
                raise ValueError(
                    f"vpage {int(keys[clash][0]):#x} already mapped")
            self._keys = np.insert(old, pos, keys)
            self._groups = np.insert(self._groups, pos, groups)
            self._frames = np.insert(self._frames, pos, frames)
        self._rows = None

    def map_page(self, vpage: int, group: int, frame: int) -> None:
        self.map_pages((vpage,), group, (frame,))

    def _row(self, vpage: int) -> int:
        try:
            return self._row_index()[vpage]
        except KeyError:
            raise KeyError(f"page fault: vpage {vpage:#x} has no mapping") from None

    def lookup(self, vpage: int) -> tuple[int, int]:
        row = self._row(vpage)
        return self._groups.item(row), self._frames.item(row)

    def remap(self, vpage: int, group: int, frame: int) -> tuple[int, int]:
        """Move an existing mapping (page migration); returns the old
        (group, frame) so the caller can free the vacated frame."""
        row = self._row(vpage)
        old = self._groups.item(row), self._frames.item(row)
        self._groups[row] = group
        self._frames[row] = frame
        return old

    def snapshot(self) -> list[tuple[int, int, int]]:
        """Every mapping as ``(vpage, group, frame)``, in vpage order."""
        return list(zip(self._keys.tolist(), self._groups.tolist(),
                        self._frames.tolist()))

    def translate_lines(self, vlines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Translate line addresses to (group, group-local physical address).

        Every page must already be mapped (the planner touches them first).
        """
        keys = self._keys
        vpages = vlines // PAGE_BYTES
        idx = np.searchsorted(keys, vpages)
        # A vpage past the last key lands on len(keys); clipping makes
        # it compare against the largest key, which it cannot equal.
        miss = keys[np.minimum(idx, len(keys) - 1)] != vpages if len(keys) \
            else np.ones(len(vpages), dtype=bool)
        if miss.any():
            missing = vpages[miss]
            raise KeyError(f"page fault on {len(missing)} pages, first "
                           f"{missing[0]:#x}")
        groups = self._groups[idx]
        gaddr = self._frames[idx] * PAGE_BYTES + (vlines % PAGE_BYTES)
        return groups, gaddr

    def pages_in_group(self, group: int) -> int:
        """How many mapped pages landed in a channel group."""
        return int(np.count_nonzero(self._groups == group))


class TLB:
    """Fully-associative LRU TLB (statistics model)."""

    def __init__(self, entries: int = 64):
        if entries < 1:
            raise ValueError("TLB needs at least one entry")
        self.entries = entries
        self._store: dict[int, None] = {}
        self.n_hits = 0
        self.n_misses = 0

    def access(self, vpage: int) -> bool:
        """Touch a vpage; returns hit/miss and updates LRU order."""
        if vpage in self._store:
            del self._store[vpage]
            self._store[vpage] = None
            self.n_hits += 1
            return True
        self.n_misses += 1
        if len(self._store) >= self.entries:
            del self._store[next(iter(self._store))]
        self._store[vpage] = None
        return False

    @property
    def hit_rate(self) -> float:
        n = self.n_hits + self.n_misses
        return self.n_hits / n if n else 0.0

    def simulate_stream(self, vlines: np.ndarray) -> float:
        """Hit rate over a line-address stream (bulk helper)."""
        for vp in (vlines // PAGE_BYTES).tolist():
            self.access(vp)
        return self.hit_rate
