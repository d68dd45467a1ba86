"""Per-channel memory controller.

One controller fronts one :class:`~repro.memdev.module.MemoryModule`
(paper Sec. V-C: "a dedicated memory controller for each memory channel as
the device timing parameters differ").  The controller applies the
scheduling policy to each batch of concurrently-outstanding requests and
drives the device model, recording per-request latency breakdowns.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.memctrl.request import MemRequest
from repro.memctrl.scheduler import frfcfs_order
from repro.memctrl.stats import LatencyHistogram
from repro.memdev.module import MemoryModule
from repro.obs.registry import OBS

SchedulerFn = Callable[[MemoryModule, Sequence[MemRequest]], list[MemRequest]]


class ChannelController:
    """Schedules request batches onto one memory module."""

    def __init__(self, module: MemoryModule,
                 scheduler: SchedulerFn = frfcfs_order,
                 line_bytes: int = 64):
        self.module = module
        self.scheduler = scheduler
        self.line_bytes = line_bytes
        self.n_served = 0
        self.total_queue_cycles = 0
        self.total_service_cycles = 0
        #: Demand-request latency distribution (loads + stores).
        self.latency_hist = LatencyHistogram()

    def service_batch(self, batch: Sequence[MemRequest]) -> None:
        """Serve a batch of requests, mutating each request in place.

        Requests in the batch are outstanding simultaneously; the scheduler
        picks the drain order (FR-FCFS by default) and the device model
        accounts bank/bus contention between them.
        """
        if not batch:
            return
        ordered = self.scheduler(self.module, batch) if len(batch) > 1 else list(batch)
        for req in ordered:
            res = self.module.access(
                req.local_addr, req.issue_cycle,
                nbytes=self.line_bytes, is_write=req.is_write,
            )
            req.done_cycle = res.done
            req.queue_cycles = res.queue_cycles
            req.service_cycles = res.service_cycles
            req.row_hit = res.row_hit
            self.n_served += 1
            self.total_queue_cycles += res.queue_cycles
            self.total_service_cycles += res.service_cycles
            if req.demand:
                self.latency_hist.record(res.queue_cycles
                                         + res.service_cycles)
        if OBS.enabled:
            # One registry touch per batch (not per request): per-channel
            # request/row-hit counters and the batch's queue occupancy.
            name = self.module.name
            OBS.add(f"mem.{name}.requests", len(ordered))
            OBS.add(f"mem.{name}.row_hits",
                    sum(1 for r in ordered if r.row_hit))
            OBS.add(f"mem.{name}.queue_cycles",
                    sum(r.queue_cycles for r in ordered))
            OBS.gauge(f"mem.{name}.queue_occupancy", len(ordered))

    @property
    def mean_latency(self) -> float:
        """Average request latency (queue + service), cycles."""
        if not self.n_served:
            return 0.0
        return (self.total_queue_cycles + self.total_service_cycles) / self.n_served
