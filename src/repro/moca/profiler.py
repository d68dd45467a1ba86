"""Offline memory-object profiler (paper Secs. III-A, IV-A/B, Fig. 7).

Profiles one application on its *training* input: names every heap object,
runs the trace through the cache hierarchy and the interval core against a
profiling memory system (a plain DDR3 machine, like the paper's gem5
baseline), and fills a :class:`~repro.moca.lut.ProfileLUT` with each
object's size, LLC MPKI and ROB-head stall cycles per load miss.

The profiler also keeps the per-segment (stack/code/global) L2 MPKI used
by the paper's Fig. 16 argument for pinning those segments to LPDDR.

A profile depends only on the application input and the profiling
machine, so :func:`profile_app` keeps it in a manifest-only store beside
the miss streams (``<active stream store>/profiles``): computed once per
machine, then read back by every process, like the paper's
classification shipped with the binary (Sec. III-C).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial

import numpy as np

from repro.cpu.core import CoreParams, InOrderWindowCore
from repro.cpu.hierarchy import (
    CacheHierarchy,
    SEG_CODE,
    SEG_GLOBAL,
    SEG_STACK,
)
from repro.memctrl.system import ChannelGroup, MemorySystem
from repro.memdev.presets import DDR3
from repro.moca.allocation import HomogeneousPolicy, plan_placement
from repro.moca.lut import ObjectProfile, ProfileLUT
from repro.moca.naming import name_from_site
from repro.obs.registry import OBS
from repro.trace.events import AccessTrace
from repro.util.castore import CAStore, digest
from repro.util.units import MIB
from repro.vm.allocator import OSPageAllocator
from repro.vm.physmem import FramePool
from repro.workloads.inputs import TRAIN, build_app_trace

_SEGMENT_LABELS = {SEG_STACK: "stack", SEG_CODE: "code", SEG_GLOBAL: "global"}
__all__ = ["PROFILE_FORMAT", "ProfiledApp", "MemoryObjectProfiler",
           "profile_app", "profile_key", "default_profiling_system"]

#: Stored-profile encoding: part of every key and the entry version, so
#: an entry written under another encoding is never read.
PROFILE_FORMAT = 1


@dataclass
class ProfiledApp:
    """Everything the offline stage learns about one application."""

    app_name: str
    input_name: str
    lut: ProfileLUT
    app_mpki: float
    app_stall_per_miss: float
    #: segment label → L2 MPKI (Fig. 16).
    segment_mpki: dict[str, float] = field(default_factory=dict)


def default_profiling_system(capacity_bytes: int = 256 * MIB) -> MemorySystem:
    """The profiling machine's memory: 4-channel homogeneous DDR3.

    Matches the paper's profiling substrate (gem5 with the Table I
    controller over DDR3) at the reproduction's 1:8 capacity scale.
    """
    return MemorySystem(
        {"main": ChannelGroup(DDR3, 4, capacity_bytes // 4, name="DDR3")},
        name="profiling-ddr3",
    )


class MemoryObjectProfiler:
    """Runs the offline profiling pass for one application input."""

    def __init__(self, core_params: CoreParams | None = None):
        self.core_params = core_params or CoreParams()

    def profile_trace(self, trace: AccessTrace, app_name: str = "",
                      input_name: str = TRAIN,
                      memsys: MemorySystem | None = None) -> ProfiledApp:
        """Profile an already-built access trace."""
        with OBS.span("moca.profile", app=app_name, input=input_name):
            return self._profile_trace(trace, app_name, input_name, memsys)

    def _profile_trace(self, trace: AccessTrace, app_name: str,
                       input_name: str,
                       memsys: MemorySystem | None) -> ProfiledApp:
        memsys = memsys or default_profiling_system()
        with OBS.span("moca.profile.cache_filter"):
            stream, cache_stats = CacheHierarchy().filter_trace(trace)

        pools = {i: FramePool(g.capacity_bytes, i, g.name)
                 for i, g in enumerate(memsys.groups)}
        allocator = OSPageAllocator(pools, roles={"main": 0})
        plan = plan_placement([stream], HomogeneousPolicy(), allocator)

        with OBS.span("moca.profile.core_replay"):
            core = InOrderWindowCore(stream, plan.groups[0], plan.gaddrs[0],
                                     self.core_params)
            result = core.run_to_completion(memsys)

        with OBS.span("moca.profile.lut_build"):
            ki = cache_stats.total_instructions / 1000.0
            # Per-object store counts straight from the raw trace (the
            # cache filter only tracks miss counters): the read/write mix
            # is a classification feature (repro.moca.policy), not a
            # timing input, so it never touches the filter kernel.
            heap_writes = trace.obj_id[trace.is_write.astype(bool)]
            heap_writes = heap_writes[heap_writes >= 0]
            write_counts = np.bincount(heap_writes) if heap_writes.size else \
                np.zeros(0, dtype=np.int64)
            lut = ProfileLUT(app_name)
            for obj in trace.layout.objects:
                acc, misses = cache_stats.per_object.get(obj.obj_id, [0, 0])
                lut.register(ObjectProfile(
                    name=name_from_site(obj.site),
                    label=f"{app_name}.{obj.name}" if app_name else obj.name,
                    size_bytes=obj.size_bytes,
                    start_vaddr=obj.vbase,
                    accesses=acc,
                    writes=(int(write_counts[obj.obj_id])
                            if obj.obj_id < write_counts.size else 0),
                    llc_misses=misses,
                    load_misses=result.load_misses_by_obj.get(obj.obj_id, 0),
                    stall_cycles=result.stall_by_obj.get(obj.obj_id, 0),
                    kilo_instructions=ki,
                ))
        OBS.add("moca.objects_profiled", len(trace.layout.objects))

        segment_mpki = {}
        for seg_id, label in _SEGMENT_LABELS.items():
            _, seg_misses = cache_stats.per_object.get(seg_id, [0, 0])
            segment_mpki[label] = seg_misses / ki if ki else 0.0

        app_mpki, app_spm = lut.totals()
        return ProfiledApp(
            app_name=app_name,
            input_name=input_name,
            lut=lut,
            app_mpki=app_mpki,
            app_stall_per_miss=app_spm,
            segment_mpki=segment_mpki,
        )


    def profile_windows(self, windows: list[tuple[AccessTrace, float]],
                        app_name: str = "",
                        input_name: str = TRAIN) -> ProfiledApp:
        """Weighted multi-window profiling (the paper's SimPoints).

        The paper fast-forwards to several SimPoints, profiles 100M
        instructions at each, and takes a weighted combination of the
        per-object metrics (Sec. V-A).  Each ``(trace, weight)`` pair
        here is one window; the LUTs merge with the given weights and
        the aggregate metrics are recomputed from the merged counters.
        """
        if not windows:
            raise ValueError("need at least one profiling window")
        total_w = sum(w for _, w in windows)
        if total_w <= 0:
            raise ValueError("window weights must sum to a positive value")
        merged = ProfileLUT(app_name)
        segment_mpki: dict[str, float] = {}
        for trace, weight in windows:
            part = self.profile_trace(trace, app_name, input_name)
            frac = weight / total_w
            for profile in part.lut:
                merged.register(ObjectProfile(
                    name=profile.name, label=profile.label,
                    size_bytes=profile.size_bytes,
                    start_vaddr=profile.start_vaddr,
                ), weight=1.0)  # ensure the entry exists
                merged.get(profile.name).merge(profile, weight=frac)
            for seg, mpki in part.segment_mpki.items():
                segment_mpki[seg] = segment_mpki.get(seg, 0.0) + mpki * frac
        app_mpki, app_spm = merged.totals()
        return ProfiledApp(
            app_name=app_name, input_name=input_name, lut=merged,
            app_mpki=app_mpki, app_stall_per_miss=app_spm,
            segment_mpki=segment_mpki,
        )


def profile_key(app_name: str, input_name: str, n_accesses: int) -> dict:
    """Canonical key document of one stored profile.

    The miss-stream key of the profiled input (the profile filters the
    same trace through the same stock hierarchy) plus everything else
    the profile reads: the core parameters and the profiling machine's
    device timing, channel count and capacity.  Only plain values go
    in — never the ``repr`` of a live object, which can embed an
    address and would miss in every other process.
    """
    # Deferred: repro.sim imports repro.moca.
    from repro.sim.stream_store import filter_key

    (group,) = default_profiling_system().groups
    return {
        **filter_key(app_name, input_name, n_accesses),
        "schema": "moca-profile",
        "profile_format": PROFILE_FORMAT,
        "core": asdict(CoreParams()),
        "device": asdict(group.timing),
        "channels": group.n_channels,
        "capacity_bytes": group.capacity_bytes,
    }


def _profile_store() -> CAStore | None:
    """The profile store beside the active miss-stream store, or ``None``.

    It follows :func:`repro.sim.stream_store.active` exactly: no stream
    store, no profile store; a refreshing stream store refreshes
    profiles too.  No resident cache — :func:`profile_app`'s memo is
    the in-process one.
    """
    from repro.sim import stream_store  # deferred: repro.sim imports repro.moca

    streams = stream_store.active()
    if streams is None:
        return None
    return CAStore(streams.directory / "profiles", version=PROFILE_FORMAT,
                   label="profile store", counter="profile_store",
                   refresh=streams.refresh, resident=0)


def _decode(app_name: str, input_name: str, manifest: dict,
            views: dict) -> ProfiledApp:
    from repro.moca.serialize import lut_from_dict  # serialize imports us

    lut = lut_from_dict(manifest["lut"])
    # Recomputed exactly as profile_trace computes them.
    app_mpki, app_spm = lut.totals()
    return ProfiledApp(
        app_name=app_name, input_name=input_name, lut=lut,
        app_mpki=app_mpki, app_stall_per_miss=app_spm,
        segment_mpki={str(seg): float(mpki) for seg, mpki
                      in manifest["segment_mpki"].items()},
    )


@lru_cache(maxsize=64)
def profile_app(app_name: str, input_name: str = TRAIN,
                n_accesses: int = 200_000) -> ProfiledApp:
    """Profile (and memoize) one named application input.

    Beneath this in-process memo sits the profile store (see
    :func:`_profile_store`, keyed by :func:`profile_key`): a hit
    rebuilds the profile with no synthesis, filtering or replay, and a
    computed profile is written back for every later process.  With no
    stream store active the memo is the only one.
    """
    store = _profile_store()
    if store is not None:
        key = profile_key(app_name, input_name, n_accesses)
        name = digest(key)
        stored = store.get(name, partial(_decode, app_name, input_name))
        if stored is not None:
            return stored
    trace = build_app_trace(app_name, input_name, n_accesses)
    profiled = MemoryObjectProfiler().profile_trace(trace, app_name,
                                                    input_name)
    if store is not None:
        from repro.moca.serialize import lut_to_dict  # serialize imports us

        store.put(name, {"key": key, "lut": lut_to_dict(profiled.lut),
                         "segment_mpki": profiled.segment_mpki})
    return profiled
