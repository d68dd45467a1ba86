"""The multi-channel (possibly heterogeneous) memory system.

A :class:`MemorySystem` is an ordered collection of :class:`ChannelGroup`
objects.  Each group is a set of identical channels over which lines
stripe (``repro.memctrl.addrmap``); different groups hold different memory
technologies.  The OS layer (``repro.vm``) allocates physical frames in
group-local space, so a request is addressed by ``(group, gaddr)``.

Examples:
    * Homogen-DDR3 (paper Sec. V-B): one group, 4 channels x 512 MB DDR3.
    * Heterogeneous config1 (Sec. V-C): three groups — 1x256 MB RLDRAM3,
      1x768 MB HBM, 2x512 MB LPDDR2.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.memctrl.addrmap import GroupAddressMap
from repro.memctrl.controller import ChannelController, SchedulerFn
from repro.memctrl.request import MemRequest
from repro.memctrl.scheduler import frfcfs_order
from repro.memdev.module import MemoryModule
from repro.memdev.power import PowerModel
from repro.memdev.timing import DeviceTiming
from repro.obs.registry import OBS
from repro.util.histogram import LatencyHistogram


def batch_size_counter(n: int) -> str:
    """OBS counter of a batch of ``n`` requests: ``memsys.batches.single``
    or ``memsys.batches.le<m>``, ``m`` the least power of two >= ``n``."""
    if n == 1:
        return "memsys.batches.single"
    return f"memsys.batches.le{1 << (n - 1).bit_length()}"


class ChannelGroup:
    """A set of identical channels acting as one allocation region."""

    def __init__(self, timing: DeviceTiming, n_channels: int,
                 capacity_per_channel: int, name: str | None = None,
                 scheduler: SchedulerFn = frfcfs_order):
        if n_channels < 1:
            raise ValueError("a channel group needs at least one channel")
        self.timing = timing
        self.name = name or timing.name
        self.addrmap = GroupAddressMap(n_channels)
        self.modules = [
            MemoryModule(timing, capacity_per_channel, f"{self.name}/ch{i}")
            for i in range(n_channels)
        ]
        self.controllers = [ChannelController(m, scheduler) for m in self.modules]

    @property
    def n_channels(self) -> int:
        return len(self.modules)

    @property
    def capacity_bytes(self) -> int:
        return sum(m.capacity_bytes for m in self.modules)

    def service_batch(self, batch: Sequence[MemRequest]) -> None:
        """Route a batch across channels and drain each channel's share."""
        per_channel: dict[int, list[MemRequest]] = defaultdict(list)
        for req in batch:
            ch, local = self.addrmap.route(req.gaddr)
            req.local_addr = local
            per_channel[ch].append(req)
        for ch, reqs in per_channel.items():
            self.controllers[ch].service_batch(reqs)


@dataclass(frozen=True)
class SystemSummary:
    """Aggregate counters of one simulated interval."""

    n_requests: int
    total_latency_cycles: int
    total_queue_cycles: int
    row_hit_rate: float
    power_w: float
    energy_j: float


class MemorySystem:
    """Named channel groups + routing + power accounting."""

    def __init__(self, groups: dict[str, ChannelGroup], name: str = "memsys"):
        if not groups:
            raise ValueError("memory system needs at least one channel group")
        self.name = name
        self.group_names = list(groups)
        self.groups = list(groups.values())
        self.group_index = {n: i for i, n in enumerate(self.group_names)}
        self.power_model = PowerModel()

    # ---- structure ---------------------------------------------------------------

    def group(self, name: str) -> ChannelGroup:
        return self.groups[self.group_index[name]]

    @property
    def modules(self) -> list[MemoryModule]:
        return [m for g in self.groups for m in g.modules]

    @property
    def capacity_bytes(self) -> int:
        return sum(g.capacity_bytes for g in self.groups)

    def controller_layout(self) -> tuple[list[ChannelController], list[int]]:
        """Flat controller list + per-group base offsets.

        The SoA replay kernel (``repro.memctrl.batch``) addresses every
        channel in the system by one flat index ``bases[group] +
        channel``; bases follow group declaration order, matching
        :attr:`groups`.
        """
        flat: list[ChannelController] = []
        bases: list[int] = []
        for g in self.groups:
            bases.append(len(flat))
            flat.extend(g.controllers)
        return flat, bases

    def describe(self) -> str:
        parts = [
            f"{g.name}: {g.n_channels}x{g.modules[0].capacity_bytes >> 20} MiB "
            f"{g.timing.name}"
            for g in self.groups
        ]
        return f"{self.name} [{'; '.join(parts)}]"

    # ---- servicing ---------------------------------------------------------------

    def service_batch(self, batch: Sequence[MemRequest]) -> None:
        """Serve a batch of concurrently-outstanding requests."""
        if not batch:
            return
        per_group: dict[int, list[MemRequest]] = defaultdict(list)
        for req in batch:
            per_group[req.group].append(req)
        for gi, reqs in per_group.items():
            self.groups[gi].service_batch(reqs)
        if OBS.enabled:
            OBS.add("memsys.batches")
            OBS.add(batch_size_counter(len(batch)))
            OBS.add("memsys.requests", len(batch))
            for gi, reqs in per_group.items():
                OBS.add(f"memsys.group.{self.group_names[gi]}.requests",
                        len(reqs))

    def service_one(self, req: MemRequest) -> MemRequest:
        """Serve a single request (convenience for tests/examples)."""
        self.service_batch([req])
        return req

    # ---- accounting ---------------------------------------------------------------

    def latency_histogram(self, group: str | None = None) -> LatencyHistogram:
        """Merged demand-latency histogram (optionally one group's)."""
        merged = LatencyHistogram()
        groups = [self.group(group)] if group is not None else self.groups
        for g in groups:
            for c in g.controllers:
                merged.merge(c.latency_hist)
        return merged

    def reset_stats(self) -> None:
        for g in self.groups:
            for m in g.modules:
                m.reset_stats()
            for c in g.controllers:
                c.n_served = 0
                c.total_queue_cycles = 0
                c.total_service_cycles = 0
                c.latency_hist = LatencyHistogram()

    def summary(self, elapsed_cycles: int) -> SystemSummary:
        """Aggregate served-request statistics over ``elapsed_cycles``."""
        n = 0
        lat = 0
        queue = 0
        hits = 0
        accesses = 0
        for g in self.groups:
            for c in g.controllers:
                n += c.n_served
                lat += c.total_queue_cycles + c.total_service_cycles
                queue += c.total_queue_cycles
            for m in g.modules:
                hits += m.n_row_hits
                accesses += m.n_accesses
        power = self.power_model.system_power(self.modules, elapsed_cycles)
        energy = self.power_model.system_energy(self.modules, elapsed_cycles)
        return SystemSummary(
            n_requests=n,
            total_latency_cycles=lat,
            total_queue_cycles=queue,
            row_hit_rate=hits / accesses if accesses else 0.0,
            power_w=power,
            energy_j=energy,
        )
