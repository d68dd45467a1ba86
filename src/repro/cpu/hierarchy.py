"""L1 + unified L2 cache hierarchy: access trace → LLC miss stream.

Cache behaviour does not depend on the memory backend, so the expensive
filtering pass runs once per (application, input) and the resulting
:class:`MissStream` is replayed against every memory system under study —
the same economy gem5 users get from warmed checkpoints.

Table I parameters: 64 KB split L1 (we model the D-side; instruction
fetches are folded into the code segment's accesses), 512 KB 16-way
unified L2, 64 B lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cpu.cache import SetAssocCache

#: Miss-record kinds.
KIND_LOAD = 0
KIND_STORE = 1
KIND_WRITEBACK = 2

#: Sentinel object ids for non-heap segments (paper Sec. VI-D).
SEG_STACK = -1
SEG_CODE = -2
SEG_GLOBAL = -3


@dataclass
class MissStream:
    """LLC miss/writeback stream as parallel numpy arrays.

    Attributes:
        inst: Cumulative retired-instruction count at each record.
        vline: Line-aligned virtual address.
        obj_id: Owning memory object (>=0) or segment sentinel (<0).
        dep: True when the miss depends on the previous miss (serial
            pointer-chase step) and therefore cannot overlap with it.
        kind: KIND_LOAD / KIND_STORE / KIND_WRITEBACK.
        total_instructions: Trace length in instructions.
    """

    inst: np.ndarray
    vline: np.ndarray
    obj_id: np.ndarray
    dep: np.ndarray
    kind: np.ndarray
    total_instructions: int

    def __len__(self) -> int:
        return len(self.inst)

    def slice(self, start: int, stop: int) -> "MissStream":
        """A view of records [start, stop) sharing the parent's arrays.

        ``total_instructions`` becomes the last record's instruction
        count, so sliced replays add no compute tail except on the final
        slice (epoch-based drivers handle the tail themselves).
        """
        total = int(self.inst[stop - 1]) if stop > start else 0
        return MissStream(
            inst=self.inst[start:stop],
            vline=self.vline[start:stop],
            obj_id=self.obj_id[start:stop],
            dep=self.dep[start:stop],
            kind=self.kind[start:stop],
            total_instructions=total,
        )

    def page_split(self, return_index: bool = False) -> tuple:
        """``(pages, inverse)``: sorted distinct vpages and each record's
        index into them (``uint16`` below 2**16 pages), memoized on the
        stream like its episode tables (never persisted).  ``return_index``
        appends each page's first record, from the same ``np.unique``."""
        split = vars(self).get("_page_split")
        if split is None or return_index:
            from repro.trace.events import PAGE_SHIFT

            pages, *rest = np.unique(self.vline >> PAGE_SHIFT,
                                     return_index=return_index,
                                     return_inverse=True)
            inverse = rest[-1].astype(np.uint16 if len(pages) < 1 << 16
                                      else np.intp, copy=False)
            split = self._page_split = (pages, inverse)
            if return_index:
                return pages, inverse, rest[0]
        return split

    @property
    def demand_mask(self) -> np.ndarray:
        return self.kind <= KIND_STORE

    def kind_counts(self) -> tuple[int, int, int]:
        """``(n_loads, n_stores, n_writebacks)``.

        One vectorized bincount; the replay kernel uses this for its
        deferred record-kind accounting instead of per-record increments.
        """
        counts = np.bincount(self.kind, minlength=3)
        return (int(counts[KIND_LOAD]), int(counts[KIND_STORE]),
                int(counts[KIND_WRITEBACK]))

    def mpki(self) -> float:
        """Demand LLC misses per kilo-instruction for the whole stream."""
        if self.total_instructions == 0:
            return 0.0
        return int(self.demand_mask.sum()) * 1000.0 / self.total_instructions


@dataclass
class CacheStats:
    """Aggregate + per-object results of the filtering pass."""

    total_instructions: int
    l1_hits: int
    l1_misses: int
    l2_hits: int
    l2_misses: int
    n_writebacks: int
    #: obj_id → [accesses, l2 demand misses]
    per_object: dict[int, list[int]] = field(default_factory=dict)

    @property
    def l2_mpki(self) -> float:
        if self.total_instructions == 0:
            return 0.0
        return self.l2_misses * 1000.0 / self.total_instructions

    def object_mpki(self, obj_id: int) -> float:
        if self.total_instructions == 0 or obj_id not in self.per_object:
            return 0.0
        return self.per_object[obj_id][1] * 1000.0 / self.total_instructions


class CacheHierarchy:
    """Filters an access trace through L1D + L2, emitting the miss stream."""

    def __init__(self, l1_size: int = 64 * 1024, l1_assoc: int = 2,
                 l2_size: int = 512 * 1024, l2_assoc: int = 16,
                 line_bytes: int = 64):
        self.l1 = SetAssocCache(l1_size, l1_assoc, line_bytes, name="L1D")
        self.l2 = SetAssocCache(l2_size, l2_assoc, line_bytes, name="L2")
        self.line_bytes = line_bytes
        self._line_shift = (line_bytes - 1).bit_length()

    def filter_trace(self, trace: "AccessTrace", warmup_frac: float = 0.2,
                     ) -> tuple[MissStream, CacheStats]:
        """Run every access through the hierarchy.

        The first ``warmup_frac`` of the trace warms the caches without
        contributing statistics or miss records — the stand-in for the
        paper's fast-forward to SimPoints before measurement windows.
        Note the boundary floors: a nonzero ``warmup_frac`` on a tiny
        trace can yield ``int(len * frac) == 0`` warmup accesses, which
        is *defined* to behave exactly like ``warmup_frac=0.0`` (no
        exclusion window, instruction numbering from the trace origin).
        Writebacks of dirty L2 victims become KIND_WRITEBACK records whose
        object is resolved from the victim's address via the trace's
        object map (vectorized at the end).

        The vectorized kernel (:mod:`repro.cpu.filter_kernel`) does the
        work; it is bit-identical to the per-access reference loop in
        ``tests/reference_filter.py`` (pinned by
        ``tests/test_filter_parity.py``).
        """
        if not 0.0 <= warmup_frac < 1.0:
            raise ValueError("warmup_frac must be in [0, 1)")
        from repro.cpu import filter_kernel

        return filter_kernel.run_filter(trace, self,
                                        int(len(trace) * warmup_frac))

    def filter_chunked(self, chunked, warmup_frac: float = 0.2,
                       ) -> tuple[MissStream, CacheStats]:
        """Filter a chunked trace window-by-window in bounded RSS.

        ``chunked`` is a :class:`repro.trace.chunked.ChunkedTrace` (or
        anything with ``__len__`` and a ``windows()`` iterator of
        :class:`AccessTrace` windows carrying global ``inst`` counts).
        The result — stream rows, stats, final tag-store state — is
        byte-identical to :meth:`filter_trace` on the materialized
        trace: tag stores already live on the hierarchy, and the
        remaining cross-window state is carried in an explicit
        accumulator.  Peak RSS is one window plus the accumulated miss
        records.
        """
        if not 0.0 <= warmup_frac < 1.0:
            raise ValueError("warmup_frac must be in [0, 1)")
        warm_until = int(len(chunked) * warmup_frac)
        from repro.cpu import filter_kernel

        acc = filter_kernel.FilterAccumulator()
        for window in chunked.windows():
            filter_kernel.run_filter_window(window, self, warm_until, acc)
        return filter_kernel.finalize_filter(self, acc)
