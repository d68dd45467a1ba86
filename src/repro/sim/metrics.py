"""Run metrics: memory access time, power, and EDP (paper Sec. VI-A).

Definitions, following the paper:

* **memory access time** — the sum over all demand requests of queue
  latency + bus latency + service time ("We calculate memory access time
  by adding up the queue latency, bus latency and the time required for
  the memory request to get serviced");
* **memory EDP** — memory power x memory access time ("We compute memory
  EDP by multiplying memory power and memory access latency");
* **system performance** — workload execution time (max over cores);
* **system EDP** — (core power + memory power) x execution time squared,
  i.e. conventional energy x delay, with the calibrated 21 W four-core
  power (5.25 W per active core, Sec. V-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.core import CoreResult
from repro.memctrl.system import MemorySystem, SystemSummary
from repro.util.units import cycles_to_ns

#: Calibrated McPAT core power (paper Sec. V-A: 21 W for the 4-core CMP).
CORE_POWER_W = 5.25


@dataclass(frozen=True)
class RunMetrics:
    """Outcome of one (workload, memory system, policy) run."""

    system: str
    policy: str
    workload: str
    n_cores: int
    exec_cycles: int
    mem_access_cycles: int
    mem_power_w: float
    mem_energy_j: float
    total_instructions: int
    n_requests: int
    row_hit_rate: float
    load_stall_cycles: int = 0
    n_load_misses: int = 0
    #: Demand-request latency percentiles (bucket upper bounds, cycles).
    latency_p50: int = 0
    latency_p95: int = 0
    latency_p99: int = 0
    per_core: tuple = field(default_factory=tuple)
    #: Provenance block (config hash, policy, thresholds, seed — see
    #: :func:`repro.obs.provenance.run_meta`).
    #: Excluded from equality: two runs with identical numbers but
    #: different timestamps are the same result.
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    # ---- derived ------------------------------------------------------------

    @property
    def exec_seconds(self) -> float:
        return cycles_to_ns(self.exec_cycles) * 1e-9

    @property
    def mem_access_seconds(self) -> float:
        return cycles_to_ns(self.mem_access_cycles) * 1e-9

    @property
    def memory_edp(self) -> float:
        """Paper's memory EDP: memory power x total memory access time."""
        return self.mem_power_w * self.mem_access_seconds

    @property
    def core_power_w(self) -> float:
        return CORE_POWER_W * self.n_cores

    @property
    def system_power_w(self) -> float:
        return self.core_power_w + self.mem_power_w

    @property
    def system_energy_j(self) -> float:
        return self.system_power_w * self.exec_seconds

    @property
    def system_edp(self) -> float:
        """Conventional energy x delay for the whole system."""
        return self.system_energy_j * self.exec_seconds

    @property
    def ipc(self) -> float:
        return (self.total_instructions / self.exec_cycles
                if self.exec_cycles else 0.0)

    @property
    def stall_per_load_miss(self) -> float:
        return (self.load_stall_cycles / self.n_load_misses
                if self.n_load_misses else 0.0)

    def to_dict(self) -> dict:
        """Lossless JSON-compatible form.

        Contains every stored field (so :meth:`from_dict` reconstructs an
        equal instance — this is what the persistent result cache
        round-trips) plus the derived headline numbers (``memory_edp``,
        ``system_edp``, ``ipc``, ``stall_per_load_miss``) for human
        readers of the JSON; ``from_dict`` ignores the derived keys.
        """
        return {
            "system": self.system,
            "policy": self.policy,
            "workload": self.workload,
            "n_cores": self.n_cores,
            "exec_cycles": self.exec_cycles,
            "mem_access_cycles": self.mem_access_cycles,
            "mem_power_w": self.mem_power_w,
            "mem_energy_j": self.mem_energy_j,
            "total_instructions": self.total_instructions,
            "memory_edp": self.memory_edp,
            "system_edp": self.system_edp,
            "ipc": self.ipc,
            "row_hit_rate": self.row_hit_rate,
            "n_requests": self.n_requests,
            "load_stall_cycles": self.load_stall_cycles,
            "n_load_misses": self.n_load_misses,
            "stall_per_load_miss": self.stall_per_load_miss,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "per_core": [r.to_dict() for r in self.per_core],
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunMetrics":
        """Inverse of :meth:`to_dict`; derived keys are recomputed, not
        read, so a hand-edited artefact cannot disagree with itself."""
        return cls(
            system=data["system"],
            policy=data["policy"],
            workload=data["workload"],
            n_cores=data["n_cores"],
            exec_cycles=data["exec_cycles"],
            mem_access_cycles=data["mem_access_cycles"],
            mem_power_w=data["mem_power_w"],
            mem_energy_j=data["mem_energy_j"],
            total_instructions=data["total_instructions"],
            n_requests=data["n_requests"],
            row_hit_rate=data["row_hit_rate"],
            load_stall_cycles=data.get("load_stall_cycles", 0),
            n_load_misses=data.get("n_load_misses", 0),
            latency_p50=data.get("latency_p50", 0),
            latency_p95=data.get("latency_p95", 0),
            latency_p99=data.get("latency_p99", 0),
            per_core=tuple(CoreResult.from_dict(d)
                           for d in data.get("per_core", ())),
            meta=dict(data.get("meta", {})),
        )


def weighted_speedup(shared: RunMetrics, alone: list[RunMetrics]) -> float:
    """Multi-programmed weighted speedup: mean of per-core IPC ratios.

    ``alone[i]`` is the same application run by itself on the same
    memory system; values near the core count mean contention-free
    scaling.  (Standard multi-programmed metric; the paper reports raw
    execution time, this is the fairness-aware companion.)
    """
    if len(alone) != shared.n_cores:
        raise ValueError("need one solo run per core")
    total = 0.0
    for core, solo in zip(shared.per_core, alone):
        solo_ipc = solo.per_core[0].ipc if solo.per_core else solo.ipc
        if solo_ipc <= 0:
            raise ValueError("solo run has zero IPC")
        total += core.ipc / solo_ipc
    return total


def fairness(shared: RunMetrics, alone: list[RunMetrics]) -> float:
    """Min/max ratio of per-core slowdowns (1.0 = perfectly fair)."""
    if len(alone) != shared.n_cores:
        raise ValueError("need one solo run per core")
    ratios = []
    for core, solo in zip(shared.per_core, alone):
        solo_ipc = solo.per_core[0].ipc if solo.per_core else solo.ipc
        ratios.append(core.ipc / solo_ipc)
    return min(ratios) / max(ratios) if max(ratios) > 0 else 0.0


def collect_metrics(system: str, policy: str, workload: str,
                    results: list[CoreResult],
                    memsys: MemorySystem,
                    meta: dict | None = None) -> RunMetrics:
    """Aggregate core results + memory-system counters into RunMetrics."""
    exec_cycles = max((r.cycles for r in results), default=0)
    summary: SystemSummary = memsys.summary(exec_cycles)
    hist = memsys.latency_histogram()
    return RunMetrics(
        system=system,
        policy=policy,
        workload=workload,
        n_cores=len(results),
        exec_cycles=exec_cycles,
        mem_access_cycles=sum(r.mem_access_cycles for r in results),
        mem_power_w=summary.power_w,
        mem_energy_j=summary.energy_j,
        total_instructions=sum(r.total_instructions for r in results),
        n_requests=summary.n_requests,
        row_hit_rate=summary.row_hit_rate,
        load_stall_cycles=sum(r.load_stall_cycles for r in results),
        n_load_misses=sum(r.n_load_misses for r in results),
        latency_p50=hist.p50,
        latency_p95=hist.p95,
        latency_p99=hist.p99,
        per_core=tuple(results),
        meta=meta or {},
    )
