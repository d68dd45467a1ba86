"""Runtime page-allocation policies (paper Secs. III-C, V-C).

A policy answers one question — *what type is this page's object?* — and
:func:`plan_placement` does the rest: it walks the workload's objects in
allocation order across all cores, asks the policy for each object's
type, hands the object's whole run of pages to the OS allocator (which
walks the type's fallback chain a pool at a time), and finally translates
each core's miss stream to ``(channel group, physical address)`` arrays
for the core model.

Policies:

* :class:`MocaPolicy` — per-object types from offline profiling (MOCA);
* :class:`HeterAppPolicy` — one type per application (Phadke &
  Narayanasamy's application-level allocation, the paper's baseline);
* :class:`HomogeneousPolicy` — everything in the single module group.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.cpu.hierarchy import MissStream
from repro.obs.registry import OBS
from repro.trace.events import PAGE_BYTES, VirtualLayout
from repro.vm.allocator import AllocationStats, OSPageAllocator
from repro.vm.heap import ObjectType

#: Per-core virtual-address-space separation for page-table keys.
CORE_STRIDE = 1 << 48


class PlacementPolicy(ABC):
    """Maps (core, object) to the ObjectType that drives frame selection.

    Policies may also impose an *allocation order* over objects via
    :meth:`object_priority`: pages are demand-paged object by object, and
    when a preferred module cannot hold everyone, earlier objects win it.
    The default (0.0 for everything) preserves instantiation order — the
    behaviour of an ordinary runtime that allocates objects as the program
    creates them, which is exactly how Heter-App ends up filling RLDRAM
    with the *first* object instead of the hottest (paper Sec. VI-A's
    disparity anecdote).
    """

    name: str = "policy"

    @abstractmethod
    def object_type(self, core_id: int, obj_id: int) -> ObjectType:
        """Type of the given object on the given core."""

    def object_priority(self, core_id: int, obj_id: int) -> float:
        """Allocation priority (lower allocates first; ties keep
        instantiation order)."""
        return 0.0


class HomogeneousPolicy(PlacementPolicy):
    """All pages to the single (or default) module group."""

    name = "homogeneous"

    def object_type(self, core_id: int, obj_id: int) -> ObjectType:
        return ObjectType.POW  # any type: all chains collapse to one group


class HeterAppPolicy(PlacementPolicy):
    """Application-level allocation: every page follows its app's class.

    Args:
        app_types: Per-core application class (Table III letters resolved
            to :class:`ObjectType` — L→LAT, B→BW, N→POW).
    """

    name = "heter-app"

    def __init__(self, app_types: list[ObjectType]):
        if not app_types:
            raise ValueError("need one application type per core")
        self.app_types = list(app_types)

    def object_type(self, core_id: int, obj_id: int) -> ObjectType:
        return self.app_types[core_id]


class MocaPolicy(PlacementPolicy):
    """Object-level allocation from profiling results.

    Args:
        object_types: Per-core mapping of runtime object id → profiled
            type.  Objects absent from the mapping (segments, unprofiled
            allocations) go to the power module, per Secs. IV-D / VI-D.
        object_heat: Per-core mapping of object id → profiled miss density
            (LLC misses per page).  MOCA knows each object's heat from the
            LUT and "prioritizes the high-L2MPKI objects to RLDRAM"
            (Sec. VI-B): when a module cannot hold every object of its
            type, the hottest objects claim it first.
    """

    name = "moca"

    def __init__(self, object_types: list[dict[int, ObjectType]],
                 object_heat: list[dict[int, float]] | None = None):
        if not object_types:
            raise ValueError("need one object-type map per core")
        if object_heat is not None and len(object_heat) != len(object_types):
            raise ValueError("object_heat must parallel object_types")
        self.object_types = object_types
        self.object_heat = object_heat or [{} for _ in object_types]

    def object_type(self, core_id: int, obj_id: int) -> ObjectType:
        return self.object_types[core_id].get(obj_id, ObjectType.POW)

    def object_priority(self, core_id: int, obj_id: int) -> float:
        return -self.object_heat[core_id].get(obj_id, 0.0)


@dataclass
class PlacementPlan:
    """Physical placement of every page a workload touches.

    Attributes:
        groups: Per-core array of channel-group ids, one per miss record.
        gaddrs: Per-core array of group-local physical line addresses.
        stats: Frame-allocation outcome (placements and spills).
    """

    groups: list[np.ndarray]
    gaddrs: list[np.ndarray]
    stats: AllocationStats


def plan_placement(streams: list[MissStream], policy: PlacementPolicy,
                   allocator: OSPageAllocator,
                   layouts: list["VirtualLayout"] | None = None) -> PlacementPlan:
    """Allocate frames for the workload's objects, then translate streams.

    Allocation is *object-granular*: objects are ordered by the policy's
    priority (ties by instantiation order — segment ids, then heap object
    ids, interleaved round-robin across cores), and each object's pages
    walk the object's fallback chain together.  Whichever object reaches
    a filling module first keeps it (paper Sec. VI-A).

    With ``layouts`` given (the default path in the experiment runners),
    each object's *full extent* is reserved — the paper's malloc-time
    allocation, where "the memory object gets the physical pages from
    this memory module" at instantiation, modelling the long-run steady
    state in which every allocated page is eventually touched.  Without
    layouts, only pages touched by the miss streams consume frames
    (pure demand paging over the simulated window).
    """
    if not streams:
        raise ValueError("need at least one miss stream")
    if layouts is not None and len(layouts) != len(streams):
        raise ValueError("need one layout per stream")
    # Per (core, object): the run of pages to back, in allocation order.
    objects: list[tuple[float, int, int, np.ndarray]] = []
    if layouts is not None:
        for core, layout in enumerate(layouts):
            for region in layout.all_regions():
                prio = policy.object_priority(core, region.obj_id)
                pages = region.pages()
                objects.append((prio, region.obj_id, core,
                                np.arange(pages.start, pages.stop,
                                          dtype=np.int64)))
    else:
        for core, stream in enumerate(streams):
            if len(stream) == 0:
                continue
            uniq, _, first_idx = stream.page_split(return_index=True)
            owners = stream.obj_id[first_idx]
            # Group pages by owner, each object's in first-touch order.
            order = np.lexsort((first_idx, owners))
            owners = owners[order]
            objs, starts = np.unique(owners, return_index=True)
            for obj, pages in zip(objs.tolist(),
                                  np.split(uniq[order], starts[1:])):
                prio = policy.object_priority(core, obj)
                objects.append((prio, obj, core, pages))
    # Priority first; then instantiation order (segments before heap,
    # lower allocation sites first), round-robin across cores.
    objects.sort(key=lambda t: (t[0], t[1], t[2]))
    exhausted = allocator.stats.exhausted
    exhausted_warned = False
    for _, obj, core, pages in objects:
        typ = policy.object_type(core, obj)
        base = core * (CORE_STRIDE // PAGE_BYTES)
        n_exhausted = exhausted[typ]
        # Pages that find every pool full (offlined/shrunken modules, or
        # a working set beyond physical capacity) degrade to the
        # overcommit path instead of aborting the run.  The paper's OS
        # would swap here; we keep them in the worst acceptable module
        # and count them.
        allocator.allocate_pages(pages + base, typ, overcommit=True)
        if not exhausted_warned and exhausted[typ] != n_exhausted:
            exhausted_warned = True
            OBS.warn(
                f"placement: all frame pools exhausted placing "
                f"{typ.name} pages; overcommitting (degraded run)")
    # Translate every stream's distinct pages, keyed per core.
    groups: list[np.ndarray] = []
    gaddrs: list[np.ndarray] = []
    for core, stream in enumerate(streams):
        if len(stream) == 0:
            groups.append(np.empty(0, dtype=np.int32))
            gaddrs.append(np.empty(0, dtype=np.int64))
            continue
        pages, inverse = stream.page_split()
        g, a = allocator.page_table.translate_lines(
            stream.vline, (pages + core * (CORE_STRIDE // PAGE_BYTES),
                           inverse))
        groups.append(g)
        gaddrs.append(a)
    return PlacementPlan(groups=groups, gaddrs=gaddrs, stats=allocator.stats)
