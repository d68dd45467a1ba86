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
KIND_PREFETCH = 3

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

    def kind_counts(self) -> tuple[int, int, int, int]:
        """``(n_loads, n_stores, n_writebacks, n_prefetches)``.

        One vectorized bincount; the replay kernel uses this for its
        deferred record-kind accounting instead of per-record increments.
        """
        counts = np.bincount(self.kind, minlength=4)
        return (int(counts[KIND_LOAD]), int(counts[KIND_STORE]),
                int(counts[KIND_WRITEBACK]), int(counts[KIND_PREFETCH]))

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


@dataclass
class _ReferenceFilterState:
    """Carried accumulator for the windowed reference filter loop.

    The scalar loop's cross-window state, made explicit so a chunked
    trace can stream through ``_filter_window_reference`` shard by
    shard: the instruction offset fixed at the warmup boundary,
    per-object tallies (dict insertion order = global first-touch
    order), per-window record arrays, and the prefetcher's outstanding
    runahead lines.  Tag stores and hit/miss counters live on the
    hierarchy itself, exactly as in the monolithic loop.
    """

    n_seen: int = 0
    inst_offset: int = 0
    last_inst: int = 0
    n_writebacks: int = 0
    per_object: dict[int, list[int]] = field(default_factory=dict)
    parts: list[tuple] = field(default_factory=list)
    pf_lines: set[int] = field(default_factory=set)

    def finalize(self, hierarchy: "CacheHierarchy",
                 ) -> tuple[MissStream, "CacheStats"]:
        if self.parts:
            inst, vline, obj, dep, kind = (
                np.concatenate(c) for c in zip(*self.parts))
        else:
            inst = vline = np.empty(0, dtype=np.int64)
            obj = np.empty(0, dtype=np.int32)
            dep = np.empty(0, dtype=bool)
            kind = np.empty(0, dtype=np.int8)
        total_inst = (self.last_inst - self.inst_offset) if self.n_seen else 0
        stream = MissStream(inst=inst, vline=vline, obj_id=obj, dep=dep,
                            kind=kind, total_instructions=total_inst)
        stats = CacheStats(
            total_instructions=total_inst,
            l1_hits=hierarchy.l1.n_hits,
            l1_misses=hierarchy.l1.n_misses,
            l2_hits=hierarchy.l2.n_hits,
            l2_misses=hierarchy.l2.n_misses,
            n_writebacks=self.n_writebacks,
            per_object=self.per_object,
        )
        return stream, stats


class CacheHierarchy:
    """Filters an access trace through L1D + L2, emitting the miss stream."""

    def __init__(self, l1_size: int = 64 * 1024, l1_assoc: int = 2,
                 l2_size: int = 512 * 1024, l2_assoc: int = 16,
                 line_bytes: int = 64, prefetcher=None):
        self.l1 = SetAssocCache(l1_size, l1_assoc, line_bytes, name="L1D")
        self.l2 = SetAssocCache(l2_size, l2_assoc, line_bytes, name="L2")
        self.line_bytes = line_bytes
        self.prefetcher = prefetcher
        self.n_prefetches = 0
        self._line_shift = (line_bytes - 1).bit_length()
        #: Which engine the last ``filter_trace`` call used
        #: ("kernel" / "reference"); feeds run provenance.
        self.last_engine: str | None = None

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

        The engine follows from the hierarchy: the vectorized kernel
        (:mod:`repro.cpu.filter_kernel`) normally, the per-access
        reference loop when a prefetcher is attached, because runahead
        fills break the kernel's per-set batching.  The two are
        bit-identical (pinned by ``tests/test_filter_parity.py``).
        """
        if not 0.0 <= warmup_frac < 1.0:
            raise ValueError("warmup_frac must be in [0, 1)")
        warm_until = int(len(trace) * warmup_frac)
        from repro.cpu import filter_kernel

        if self.prefetcher is None:
            self.last_engine = "kernel"
            return filter_kernel.run_filter(trace, self, warm_until)
        self.last_engine = "reference"
        return self._filter_trace_reference(trace, warm_until)

    def filter_chunked(self, chunked, warmup_frac: float = 0.2,
                       ) -> tuple[MissStream, CacheStats]:
        """Filter a chunked trace window-by-window in bounded RSS.

        ``chunked`` is a :class:`repro.trace.chunked.ChunkedTrace` (or
        anything with ``__len__`` and a ``windows()`` iterator of
        :class:`AccessTrace` windows carrying global ``inst`` counts).
        The result — stream rows, stats, final tag-store state — is
        byte-identical to :meth:`filter_trace` on the materialized
        trace, for both engines (chosen as in :meth:`filter_trace`): tag
        stores already live on the hierarchy, and the remaining
        cross-window state is carried in an explicit accumulator.  Peak
        RSS is one window plus the accumulated miss records.
        """
        if not 0.0 <= warmup_frac < 1.0:
            raise ValueError("warmup_frac must be in [0, 1)")
        warm_until = int(len(chunked) * warmup_frac)
        from repro.cpu import filter_kernel

        if self.prefetcher is None:
            self.last_engine = "kernel"
            acc = filter_kernel.FilterAccumulator()
            for window in chunked.windows():
                filter_kernel.run_filter_window(window, self, warm_until, acc)
            return filter_kernel.finalize_filter(self, acc)
        self.last_engine = "reference"
        state = _ReferenceFilterState()
        for window in chunked.windows():
            self._filter_window_reference(window, warm_until, state)
        return state.finalize(self)

    def _filter_trace_reference(self, trace: "AccessTrace", warm_until: int,
                                ) -> tuple[MissStream, CacheStats]:
        """The retained per-access reference loop (executable spec).

        One window through the chunked machinery — the scalar loop
        itself lives in :meth:`_filter_window_reference` so monolithic
        and windowed filtering share one specification.
        """
        state = _ReferenceFilterState()
        self._filter_window_reference(trace, warm_until, state)
        return state.finalize(self)

    def _filter_window_reference(self, trace: "AccessTrace",
                                 warm_until: int,
                                 state: _ReferenceFilterState) -> None:
        """Run one trace window through the scalar loop, carrying state.

        ``warm_until`` is the *global* warmup boundary; the window's
        position comes from ``state.n_seen``.
        """
        l1, l2 = self.l1, self.l2
        shift = self._line_shift
        # tolist() turns the numpy columns into plain ints once; iterating
        # numpy scalars is ~10x slower in this dict-heavy loop.
        insts = trace.inst.tolist()
        vaddrs = trace.vaddr.tolist()
        writes = trace.is_write.tolist()
        objs = trace.obj_id.tolist()
        deps = trace.dep.tolist()

        out_inst: list[int] = []
        out_vline: list[int] = []
        out_obj: list[int] = []
        out_dep: list[bool] = []
        out_kind: list[int] = []
        wb_positions: list[int] = []  # indices into out_* needing obj resolution

        per_object = state.per_object
        n_writebacks = 0
        # Warmup boundary in window coordinates.  boundary <= 0 — whether
        # from warmup_frac == 0.0, a nonzero fraction flooring to zero on
        # a tiny trace, or a window past the boundary — means no exclusion
        # window here; boundary > n means the whole window warms.
        boundary = warm_until - state.n_seen
        # Lines brought in by the prefetcher and not yet consumed; a
        # demand hit on one advances the stream (runahead on hit).
        pf_lines = state.pf_lines

        def _issue_prefetches(obj: int, line: int, inst: int) -> None:
            for pf_addr in self.prefetcher.on_miss(obj, line):
                if pf_addr < 0 or l2.contains(pf_addr):
                    continue
                # Never run past the owning region: a prefetch into a
                # guard page or another object would touch memory the OS
                # has not mapped for this stream.
                region = trace.layout.by_id(obj)
                if not (region.vbase <= pf_addr <= region.vend - 64):
                    continue
                pf_evicted = l2.fill(pf_addr)
                pf_line = (pf_addr >> shift) << shift
                pf_lines.add(pf_line)
                self.n_prefetches += 1
                out_inst.append(inst - state.inst_offset)
                out_vline.append(pf_line)
                out_obj.append(obj)
                out_dep.append(False)
                out_kind.append(KIND_PREFETCH)
                nonlocal n_writebacks
                if pf_evicted is not None and pf_evicted.dirty:
                    n_writebacks += 1
                    out_inst.append(inst - state.inst_offset)
                    out_vline.append(pf_evicted.line_addr)
                    out_obj.append(0)
                    out_dep.append(False)
                    out_kind.append(KIND_WRITEBACK)
                    wb_positions.append(len(out_obj) - 1)

        for i, (inst, vaddr, is_write, obj, dep) in enumerate(
                zip(insts, vaddrs, writes, objs, deps)):
            if i < boundary:
                # Warm the tag stores only; no statistics, no records.
                hit, _ = l1.access(vaddr, is_write)
                if not hit:
                    l2.access(vaddr, is_write)
                if i == boundary - 1:
                    l1.reset_stats()
                    l2.reset_stats()
                    # Record instructions renumber from the boundary access.
                    state.inst_offset = int(inst)
                continue
            stats = per_object.get(obj)
            if stats is None:
                stats = per_object[obj] = [0, 0]
            stats[0] += 1
            hit, _ = l1.access(vaddr, is_write)
            if hit:
                continue
            # L1 miss: look up L2.  L1 victims are not written back into
            # the L2, so a store that hit in the L1 never dirties the L2
            # copy (a known deviation: docs/modeling.md, Known limits).
            l2_hit, evicted = l2.access(vaddr, is_write)
            if l2_hit:
                if self.prefetcher is not None:
                    line = (vaddr >> shift) << shift
                    if line in pf_lines:
                        pf_lines.discard(line)
                        _issue_prefetches(obj, line, inst)
                continue
            stats[1] += 1
            line = (vaddr >> shift) << shift
            out_inst.append(inst - state.inst_offset)
            out_vline.append(line)
            out_obj.append(obj)
            out_dep.append(dep)
            out_kind.append(KIND_STORE if is_write else KIND_LOAD)
            if self.prefetcher is not None:
                _issue_prefetches(obj, line, inst)
            if evicted is not None and evicted.dirty:
                n_writebacks += 1
                out_inst.append(inst - state.inst_offset)
                out_vline.append(evicted.line_addr)
                out_obj.append(0)  # placeholder, resolved below
                out_dep.append(False)
                out_kind.append(KIND_WRITEBACK)
                wb_positions.append(len(out_obj) - 1)

        part_inst = np.asarray(out_inst, dtype=np.int64)
        part_vline = np.asarray(out_vline, dtype=np.int64)
        part_obj = np.asarray(out_obj, dtype=np.int32)
        if wb_positions:
            pos = np.asarray(wb_positions, dtype=np.int64)
            part_obj[pos] = trace.resolve_objects(part_vline[pos])
        state.parts.append((part_inst, part_vline, part_obj,
                            np.asarray(out_dep, dtype=bool),
                            np.asarray(out_kind, dtype=np.int8)))
        state.n_writebacks += n_writebacks
        state.n_seen += len(insts)
        if insts:
            state.last_inst = int(insts[-1])
