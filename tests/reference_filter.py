"""Per-access reference cache filter: the test oracle for the filter kernel.

:func:`filter_trace` is the original scalar loop of
:meth:`repro.cpu.hierarchy.CacheHierarchy.filter_trace`, kept as the
executable specification the vectorized kernel
(:mod:`repro.cpu.filter_kernel`) is pinned against.  It pushes every
access through the hierarchy's dict-based LRU sets
(:meth:`repro.cpu.cache.SetAssocCache.access`), one Python iteration per
access, and leaves the tag stores and hit/miss counters on the
hierarchy it is given.

:func:`filter_window` runs one window of a chunked trace and carries the
cross-window state in a :class:`ReferenceFilterState`, so the oracle
also specifies ``CacheHierarchy.filter_chunked``; :func:`filter_trace`
is one window through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cpu.hierarchy import (
    KIND_LOAD,
    KIND_STORE,
    KIND_WRITEBACK,
    CacheHierarchy,
    CacheStats,
    MissStream,
)


@dataclass
class ReferenceFilterState:
    """Carried accumulator for the windowed reference filter loop.

    The scalar loop's cross-window state, made explicit so a chunked
    trace can stream through :func:`filter_window` shard by shard: the
    instruction offset fixed at the warmup boundary, per-object tallies
    (dict insertion order = global first-touch order) and per-window
    record arrays.  Tag stores and hit/miss counters live on the
    hierarchy itself, exactly as in the monolithic loop.
    """

    n_seen: int = 0
    inst_offset: int = 0
    last_inst: int = 0
    n_writebacks: int = 0
    per_object: dict[int, list[int]] = field(default_factory=dict)
    parts: list[tuple] = field(default_factory=list)

    def finalize(self, hierarchy: CacheHierarchy,
                 ) -> tuple[MissStream, CacheStats]:
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


def filter_trace(hierarchy: CacheHierarchy, trace, warm_until: int,
                 ) -> tuple[MissStream, CacheStats]:
    """The per-access reference loop over a whole trace.

    ``warm_until`` is the warmup boundary ``filter_trace`` derives from
    its ``warmup_frac`` (``int(len(trace) * warmup_frac)``).  One window
    through :func:`filter_window`, so monolithic and windowed filtering
    share one specification.
    """
    state = ReferenceFilterState()
    filter_window(hierarchy, trace, warm_until, state)
    return state.finalize(hierarchy)


def filter_window(hierarchy: CacheHierarchy, trace, warm_until: int,
                  state: ReferenceFilterState) -> None:
    """Run one trace window through the scalar loop, carrying state.

    ``warm_until`` is the *global* warmup boundary; the window's
    position comes from ``state.n_seen``.
    """
    l1, l2 = hierarchy.l1, hierarchy.l2
    shift = hierarchy._line_shift
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
            continue
        stats[1] += 1
        line = (vaddr >> shift) << shift
        out_inst.append(inst - state.inst_offset)
        out_vline.append(line)
        out_obj.append(obj)
        out_dep.append(dep)
        out_kind.append(KIND_STORE if is_write else KIND_LOAD)
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
