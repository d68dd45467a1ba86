"""Device timing parameters and derived quantities.

Field names follow JEDEC / Micron datasheet conventions, values come from
the paper's Table II.  Datasheet timings are nanoseconds; the simulator
works in 1 GHz core cycles (1 cycle == 1 ns, Table I), so the derived
properties round each analog timing up to integer cycles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from repro.util.validation import check_positive, check_power_of_two


@dataclass(frozen=True)
class DeviceTiming:
    """Timing/architecture description of one memory technology.

    Parameters mirror Table II of the paper.  ``channel_width_bits`` and
    ``n_subchannels`` model the interface: HBM exposes several independent
    (pseudo-)channels over a very wide interface, which is where its
    bandwidth advantage comes from; planar parts expose a single channel.

    The model derives CAS latency as ``tRCD`` (a standard first-order
    approximation: parts are specified with tCL ≈ tRCD ≈ tRP) and the
    precharge time as ``tRC − tRAS``.
    """

    name: str
    burst_length: int
    n_banks: int
    row_buffer_bytes: int
    n_rows: int
    device_width_bits: int
    channel_width_bits: int
    n_subchannels: int
    tCK_ns: float
    tRAS_ns: float
    tRCD_ns: float
    tRC_ns: float
    tRFC_ns: float
    #: Average refresh interval (time between REF commands), ns.
    tREFI_ns: float = 7800.0
    #: Four-activate window, ns (0 disables the constraint).  At most
    #: four ACTs may issue to one rank within this window — the current
    #: delivery limit on bank-level parallelism for row-missing traffic.
    tFAW_ns: float = 0.0
    #: Bus turnaround when the data bus switches direction
    #: (write→read tWTR / read→write tRTW folded into one figure), ns.
    turnaround_ns: float = 0.0
    #: Standby (background) power per GB, milliwatts — Table II.
    standby_mw_per_gb: float = 0.0
    #: Active power per GB at full utilization, watts — Table II.
    active_w_per_gb: float = 0.0

    def __post_init__(self) -> None:
        check_power_of_two("burst_length", self.burst_length)
        check_power_of_two("n_banks", self.n_banks)
        check_power_of_two("row_buffer_bytes", self.row_buffer_bytes)
        check_power_of_two("channel_width_bits", self.channel_width_bits)
        check_positive("tCK_ns", self.tCK_ns)
        check_positive("tRC_ns", self.tRC_ns)
        if self.tRAS_ns > self.tRC_ns:
            raise ValueError(
                f"{self.name}: tRAS ({self.tRAS_ns}) cannot exceed tRC ({self.tRC_ns})"
            )

    # ---- derived analog timings -------------------------------------------------

    @property
    def tRP_ns(self) -> float:
        """Row precharge time: the tRC budget left after tRAS."""
        return self.tRC_ns - self.tRAS_ns

    @property
    def tCL_ns(self) -> float:
        """CAS (column access) latency; first-order tCL ≈ tRCD."""
        return self.tRCD_ns

    @property
    def burst_ns(self) -> float:
        """Data-bus occupancy of one burst (double data rate: BL/2 clocks)."""
        return self.burst_length / 2 * self.tCK_ns

    @property
    def devices_per_channel(self) -> int:
        """Devices ganged to fill the channel width (a DIMM rank)."""
        return max(1, self.channel_width_bits // self.device_width_bits)

    @property
    def effective_row_bytes(self) -> int:
        """Channel-level open-row window: per-device row buffer x ganged
        devices.  Table II lists per-device row buffers; a 64-bit DDR3
        channel opens eight 128 B device rows at once (1 KiB)."""
        return self.row_buffer_bytes * self.devices_per_channel

    def transfer_ns(self, nbytes: int) -> float:
        """Bus time to move ``nbytes`` over one subchannel.

        A burst moves ``channel_width_bits/8 * burst_length`` bytes; larger
        transfers chain bursts back-to-back.
        """
        bytes_per_burst = self.channel_width_bits // 8 * self.burst_length
        bursts = max(1, math.ceil(nbytes / bytes_per_burst))
        return bursts * self.burst_ns

    # ---- derived integer-cycle timings (1 GHz core clock) -----------------------

    @property
    def tRP(self) -> int:
        return _cyc(self.tRP_ns)

    @property
    def tRCD(self) -> int:
        return _cyc(self.tRCD_ns)

    @property
    def tCL(self) -> int:
        return _cyc(self.tCL_ns)

    @property
    def tRAS(self) -> int:
        return _cyc(self.tRAS_ns)

    @property
    def tRC(self) -> int:
        return _cyc(self.tRC_ns)

    @property
    def tRFC(self) -> int:
        return _cyc(self.tRFC_ns)

    @property
    def tREFI(self) -> int:
        return _cyc(self.tREFI_ns)

    @property
    def tFAW(self) -> int:
        return _cyc(self.tFAW_ns)

    @property
    def turnaround(self) -> int:
        return _cyc(self.turnaround_ns)

    def transfer_cycles(self, nbytes: int) -> int:
        """Whole cycles of bus time to move ``nbytes`` (memoized)."""
        return _transfer_cycles(self, nbytes)

    @property
    def tCCD(self) -> int:
        """Column-to-column command spacing: one burst worth of cycles.
        Row-buffer hits pipeline at this rate instead of serializing on
        the full CAS latency."""
        return max(1, _cyc(self.burst_ns))

    # ---- headline figures of merit ----------------------------------------------

    @property
    def row_hit_latency(self) -> int:
        """Idle-bank read latency when the row is already open (cycles)."""
        return self.tCL

    @property
    def row_miss_latency(self) -> int:
        """Idle-bank read latency when the bank is precharged (cycles)."""
        return self.tRCD + self.tCL

    @property
    def row_conflict_latency(self) -> int:
        """Idle-bank read latency when another row is open (cycles)."""
        return self.tRP + self.tRCD + self.tCL

    def peak_bandwidth_gbps(self) -> float:
        """Aggregate peak bandwidth across subchannels, GB/s."""
        bytes_per_ns = self.channel_width_bits / 8 * 2 / self.tCK_ns
        return bytes_per_ns * self.n_subchannels

    # ---- fault injection ----------------------------------------------------

    def scaled(self, factor: float) -> "DeviceTiming":
        """Uniformly derated copy: every analog timing ``factor`` slower.

        Models a throttled or degraded part (fault injection, thermal
        derating).  Scaling tCK slows the data bus, so both latency and
        bandwidth degrade together; architecture parameters (banks,
        widths, row sizes) are untouched, and the tRAS <= tRC invariant
        is preserved by construction.  The refresh interval tREFI is
        deliberately *not* scaled — refresh obligations don't relax just
        because the part runs slow.
        """
        if factor < 1.0:
            raise ValueError(f"derating factor {factor} must be >= 1")
        import dataclasses

        return dataclasses.replace(
            self,
            tCK_ns=self.tCK_ns * factor,
            tRAS_ns=self.tRAS_ns * factor,
            tRCD_ns=self.tRCD_ns * factor,
            tRC_ns=self.tRC_ns * factor,
            tRFC_ns=self.tRFC_ns * factor,
            tFAW_ns=self.tFAW_ns * factor,
            turnaround_ns=self.turnaround_ns * factor,
        )


def _cyc(ns: float) -> int:
    """Round an analog timing up to whole 1 GHz cycles (>=0)."""
    return max(0, int(math.ceil(ns - 1e-9)))


@functools.lru_cache(maxsize=256)
def _transfer_cycles(t: DeviceTiming, nbytes: int) -> int:
    # Page migrations ask for the same page-copy time per moved page.
    return _cyc(t.transfer_ns(nbytes))
