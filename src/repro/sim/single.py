"""The front half every run shares (paper Sec. VI-A).

Every driver — static placement on 1..N cores (:mod:`repro.sim.multi`),
the hot-page migrator (:mod:`repro.sim.migration`) and the online
guidance service (:mod:`repro.sim.online`) — starts here:

* cache filtering, memoized per (app, input, length) — the miss stream
  is identical across memory systems, so the expensive pass runs once;
* :func:`policy_context`, which resolves a spec's policy against its
  system configuration;
* :func:`boot`, which builds the machine, applies boot-time faults and
  places the streams, and :func:`finish`, which turns replay results
  into :class:`~repro.sim.metrics.RunMetrics` with provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

from repro.cpu.core import CoreResult
from repro.cpu.hierarchy import CacheHierarchy, CacheStats, MissStream
from repro.faults.inject import apply_system_faults, arm_allocator
from repro.faults.plan import FaultPlan
from repro.memctrl.system import MemorySystem
from repro.moca.allocation import PlacementPlan, PlacementPolicy, \
    plan_placement
from repro.moca.classify import Thresholds
from repro.moca.policy import CapacityBudget, PolicyContext, PolicySpec
from repro.obs.provenance import run_meta
from repro.obs.registry import OBS
from repro.sim import stream_store
from repro.sim.config import CAPACITY_SCALE, SystemConfig
from repro.sim.metrics import RunMetrics, collect_metrics
from repro.trace.chunked import CorruptTraceError
from repro.util.units import MIB
from repro.vm.allocator import OSPageAllocator
from repro.workloads.inputs import (app_layout, build_app_trace,
                                    build_app_trace_chunked)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.spec import RunSpec

#: (app, input, n_accesses) → how its stream was obtained; feeds
#: ``meta["filter"]`` provenance — the record says what actually happened.
_filter_provenance: dict[tuple[str, str, int], dict] = {}


def filter_provenance(app_name: str, input_name: str,
                      n_accesses: int) -> dict | None:
    """How ``filtered_stream`` obtained this key's stream, or ``None``.

    ``{"engine": "kernel" | "store", "from_store": bool}``
    — ``"store"`` means the persistent miss-stream store supplied the
    result and no filtering ran in this process.
    """
    return _filter_provenance.get((app_name, input_name, n_accesses))


def _through_store(app_name: str, input_name: str, n_accesses: int,
                   compute) -> tuple[MissStream, CacheStats]:
    """The stored stream for this key, else ``compute()``'s, stored.

    ``compute()`` returns ``(MissStream, CacheStats)`` and runs only on
    a miss (or with no store active).
    """
    provenance_key = (app_name, input_name, n_accesses)
    store = stream_store.active()
    key = None
    if store is not None:
        key = stream_store.filter_key(app_name, input_name, n_accesses)
        cached = store.get(key)
        if cached is not None:
            _filter_provenance[provenance_key] = {
                "engine": "store", "from_store": True}
            OBS.add("filter.store_hits")
            return cached
    result = compute()
    OBS.add("filter.computed")
    OBS.add("filter.accesses", n_accesses)
    _filter_provenance[provenance_key] = {"engine": "kernel",
                                          "from_store": False}
    if store is not None:
        store.put(key, *result)
    return result


@lru_cache(maxsize=128)
def filtered_stream(app_name: str, input_name: str, n_accesses: int,
                    ) -> tuple[MissStream, CacheStats]:
    """Cache-filter one application input (memoized — **do not mutate**).

    Every call with the same key returns the *same*
    ``(MissStream, CacheStats)`` objects, shared by every run —
    single-core, multicore, and the profiler alike.  Mutating the
    returned stream (e.g. reordering its arrays in place) would silently
    corrupt all subsequent runs in the process.  Callers needing a
    modified stream must copy first; ``tests/test_sim.py`` pins the
    shared-identity contract.

    Beneath this in-process memo sits the persistent
    :mod:`repro.sim.stream_store` (when active): a store hit skips
    synthesis and filtering entirely, and a computed result is written
    back so other worker processes can skip it too.
    """
    def compute():
        trace = build_app_trace(app_name, input_name, n_accesses)
        return CacheHierarchy().filter_trace(trace)

    with OBS.span("cache_filter", app=app_name, input=input_name,
                  n_accesses=n_accesses):
        return _through_store(app_name, input_name, n_accesses, compute)


@lru_cache(maxsize=32)
def filtered_stream_chunked(app_name: str, input_name: str, n_accesses: int,
                            chunk_accesses: int,
                            ) -> tuple[MissStream, CacheStats]:
    """Cache-filter one application input via the chunked trace store.

    The bounded-RSS sibling of :func:`filtered_stream`: the trace is
    generated (or reopened) as :class:`~repro.trace.chunked.ChunkedTrace`
    shards and filtered window-by-window, so peak memory tracks the
    shard size, not ``n_accesses``.  Results are byte-identical to the
    monolithic path, which is why the persistent stream store is shared
    — ``stream_store.filter_key`` deliberately excludes chunking, and a
    stream computed either way satisfies both.  The stream store is
    consulted first, so a hit opens and writes no shard.

    A corrupt shard surfaces as one retry: the store deletes the broken
    entry when it detects it, so the second attempt regenerates from
    scratch.  Memoized like :func:`filtered_stream` — treat the returned
    objects as immutable.
    """
    def compute():
        last_error: CorruptTraceError | None = None
        for _ in range(2):
            try:
                chunked = build_app_trace_chunked(
                    app_name, input_name, n_accesses, chunk_accesses)
                return CacheHierarchy().filter_chunked(chunked)
            except CorruptTraceError as exc:
                last_error = exc
        raise last_error  # both attempts hit corrupt shards

    with OBS.span("cache_filter", app=app_name, input=input_name,
                  n_accesses=n_accesses, chunk_accesses=chunk_accesses):
        return _through_store(app_name, input_name, n_accesses, compute)


def policy_context(policy: str | PolicySpec, app_names: list[str],
                   input_name: str, n_accesses: int, *,
                   config: SystemConfig,
                   thresholds: Thresholds | None = None,
                   faults: FaultPlan | None = None,
                   ) -> tuple[PolicySpec, PolicyContext]:
    """Resolve a spec's policy field against a system configuration.

    The fast-tier budget a capacity-aware policy plans under comes from
    (in priority order) the policy's own ``fast_mb`` parameter — the
    paper's MB scale, divided by :data:`~repro.sim.config.CAPACITY_SCALE`
    like every ``GroupSpec`` capacity — or the physical capacity of the
    config's ``lat`` role; homogeneous systems yield an unlimited
    budget.  Budget resolution lives here (not in ``repro.moca.policy``)
    because it needs the system config, which the policy layer must not
    import.
    """
    spec = PolicySpec.parse(policy)
    fast_mb = spec.params_dict().get("fast_mb")
    if fast_mb is not None:
        fast_bytes = int(fast_mb * MIB) // CAPACITY_SCALE
    else:
        fast_bytes = config.fast_tier_bytes()
    context = PolicyContext(
        app_names=tuple(app_names), input_name=input_name,
        n_accesses=n_accesses, thresholds=thresholds, faults=faults,
        budget=CapacityBudget(fast_bytes))
    return spec, context


@dataclass
class Booted:
    """A run's machine right after allocation-time placement."""

    streams: list[MissStream]
    memsys: MemorySystem
    allocator: OSPageAllocator
    policy: PlacementPolicy
    plan: PlacementPlan


def boot(spec: "RunSpec", label: str,
         make_policy: Callable[[], PlacementPolicy], *,
         faults: FaultPlan | None) -> Booted:
    """Filter a spec's streams, build its machine and place them.

    The one boot every driver shares: ``faults`` (the spec's plan, or
    ``None`` where a driver fires it later) derates the devices and arms
    the allocator before ``make_policy()``'s placement runs.
    """
    if spec.trace_chunk_accesses is not None:
        streams = [filtered_stream_chunked(
            spec.workload, spec.input_name, spec.n_accesses,
            spec.trace_chunk_accesses)[0]]
    else:
        streams = [filtered_stream(a, spec.input_name, spec.n_accesses)[0]
                   for a in spec.apps]
    layouts = [app_layout(a, spec.input_name) for a in spec.apps]
    config = spec.system_config
    with OBS.span("placement", policy=label):
        memsys = config.build()
        if faults is not None:
            apply_system_faults(memsys, faults)
        allocator = config.make_allocator(memsys)
        if faults is not None:
            arm_allocator(allocator, faults)
        policy = make_policy()
        plan = plan_placement(streams, policy, allocator, layouts=layouts)
    return Booted(streams, memsys, allocator, policy, plan)


def finish(spec: "RunSpec", label: str, results: list[CoreResult],
           memsys: MemorySystem, **meta_extra) -> RunMetrics:
    """A run's metrics, with the provenance ``meta`` every run carries
    followed by the driver's own ``meta_extra`` blocks."""
    meta = run_meta(config=spec.system_config, policy=label,
                    workload=spec.workload, thresholds=spec.thresholds,
                    faults=spec.faults)
    meta.update(meta_extra)
    return collect_metrics(spec.config, label, spec.workload, results,
                           memsys, meta=meta)
