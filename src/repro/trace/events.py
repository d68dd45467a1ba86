"""Trace data structures: placed objects, virtual layout, access stream."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cpu.hierarchy import SEG_CODE, SEG_GLOBAL, SEG_STACK

#: Canonical virtual bases of the classic process layout (x86-64ish).
CODE_BASE = 0x0040_0000
GLOBAL_BASE = 0x1000_0000
HEAP_BASE = 0x6000_0000
STACK_TOP = 0x7FF0_0000_0000

PAGE_BYTES = 4096
PAGE_SHIFT = PAGE_BYTES.bit_length() - 1


@dataclass(frozen=True)
class PlacedObject:
    """A memory object (or segment) laid out in virtual memory.

    Attributes:
        obj_id: Non-negative for heap objects; the SEG_* sentinels for
            stack/code/global segments.
        name: Human-readable name, e.g. ``"mcf.arcs"``.
        vbase: Page-aligned virtual base address.
        size_bytes: Extent of the object.
        site: Allocation-site identifier used by MOCA naming (0 for
            segments, which are not heap allocations).
    """

    obj_id: int
    name: str
    vbase: int
    size_bytes: int
    site: int = 0

    @property
    def vend(self) -> int:
        return self.vbase + self.size_bytes

    @property
    def is_heap(self) -> bool:
        return self.obj_id >= 0

    def pages(self) -> range:
        """Virtual page numbers spanned by the object."""
        first = self.vbase // PAGE_BYTES
        last = (self.vend - 1) // PAGE_BYTES
        return range(first, last + 1)


class VirtualLayout:
    """Page-aligned placement of heap objects plus the fixed segments.

    Heap objects are packed upward from ``HEAP_BASE`` with one guard page
    between them, in *allocation order* — the order matters because
    runtime policies (Heter-App, first-touch) allocate on first contact.
    """

    def __init__(self, stack_bytes: int = 64 * 1024,
                 code_bytes: int = 256 * 1024,
                 global_bytes: int = 128 * 1024):
        self.objects: list[PlacedObject] = []
        self._cursor = HEAP_BASE
        self.segments = {
            SEG_STACK: PlacedObject(SEG_STACK, "[stack]",
                                    STACK_TOP - _page_ceil(stack_bytes),
                                    _page_ceil(stack_bytes)),
            SEG_CODE: PlacedObject(SEG_CODE, "[code]", CODE_BASE,
                                   _page_ceil(code_bytes)),
            SEG_GLOBAL: PlacedObject(SEG_GLOBAL, "[global]", GLOBAL_BASE,
                                     _page_ceil(global_bytes)),
        }
        self._ranges_dirty = True
        self._starts: np.ndarray | None = None
        self._ends: np.ndarray | None = None
        self._ids: np.ndarray | None = None

    def place(self, name: str, size_bytes: int, site: int = 0) -> PlacedObject:
        """Append a heap object; returns its placement."""
        if size_bytes <= 0:
            raise ValueError(f"object {name!r} must have positive size")
        size = _page_ceil(size_bytes)
        obj = PlacedObject(len(self.objects), name, self._cursor, size, site)
        self.objects.append(obj)
        self._cursor += size + PAGE_BYTES  # guard page
        self._ranges_dirty = True
        return obj

    def all_regions(self) -> list[PlacedObject]:
        """Heap objects + segments, sorted by virtual base."""
        return sorted(
            list(self.objects) + list(self.segments.values()),
            key=lambda o: o.vbase,
        )

    def by_id(self, obj_id: int) -> PlacedObject:
        if obj_id < 0:
            return self.segments[obj_id]
        return self.objects[obj_id]

    def heap_footprint_bytes(self) -> int:
        return sum(o.size_bytes for o in self.objects)

    def _build_ranges(self) -> None:
        regions = self.all_regions()
        self._starts = np.asarray([r.vbase for r in regions], dtype=np.int64)
        self._ends = np.asarray([r.vend for r in regions], dtype=np.int64)
        self._ids = np.asarray([r.obj_id for r in regions], dtype=np.int32)
        self._ranges_dirty = False

    def resolve(self, vaddrs: np.ndarray) -> np.ndarray:
        """Vectorized owner lookup: virtual addresses → object/segment ids.

        Addresses outside every region resolve to SEG_GLOBAL (the catch-all
        the OS would back with the default module).
        """
        if self._ranges_dirty:
            self._build_ranges()
        idx = np.searchsorted(self._starts, vaddrs, side="right") - 1
        idx = np.clip(idx, 0, len(self._starts) - 1)
        inside = (vaddrs >= self._starts[idx]) & (vaddrs < self._ends[idx])
        out = np.where(inside, self._ids[idx], np.int32(SEG_GLOBAL))
        return out.astype(np.int32)


@dataclass
class AccessTrace:
    """A complete synthetic execution: accesses + layout.

    Attributes:
        inst: Cumulative instruction count at each access (int64).
        vaddr: Virtual byte address accessed (int64).
        is_write: Store flag.
        obj_id: Owning object/segment id.
        dep: Serial-dependence flag (pointer-chase step).
        layout: The virtual-memory layout that produced the addresses.
        total_instructions: Trace length in instructions (>= inst[-1]).
    """

    inst: np.ndarray
    vaddr: np.ndarray
    is_write: np.ndarray
    obj_id: np.ndarray
    dep: np.ndarray
    layout: VirtualLayout
    total_instructions: int

    def __post_init__(self) -> None:
        n = len(self.inst)
        for name in ("vaddr", "is_write", "obj_id", "dep"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length mismatch")

    def __len__(self) -> int:
        return len(self.inst)

    def resolve_objects(self, vaddrs: np.ndarray) -> np.ndarray:
        return self.layout.resolve(vaddrs)

    def touched_pages(self, obj_id: int | None = None) -> np.ndarray:
        """Distinct virtual page numbers touched (optionally by one object)."""
        v = self.vaddr
        if obj_id is not None:
            v = v[self.obj_id == obj_id]
        return np.unique(v // PAGE_BYTES)


def _page_ceil(nbytes: int) -> int:
    return (nbytes + PAGE_BYTES - 1) // PAGE_BYTES * PAGE_BYTES
