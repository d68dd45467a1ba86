"""Request-latency histograms (power-of-two buckets).

Mean memory access time hides the tail; latency-sensitive applications
feel p95/p99.  Controllers feed every served request into a
:class:`LatencyHistogram`, so experiments can report percentile
latencies per channel, per group, or per system — e.g. to show MOCA
shortening the tail of chase-object misses, not just the mean.

Buckets are powers of two (cycle counts), so recording is two integer
ops per request and memory is ~64 counters regardless of run length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

N_BUCKETS = 40  # covers latencies up to 2^39 cycles — effectively all


def bucket_of(latencies: np.ndarray) -> np.ndarray:
    """Vectorized bucket index of :meth:`LatencyHistogram.record`.

    Bucketing must be *exactly* ``bit_length()`` — a float ``log2``
    would mis-bucket values adjacent to powers of two.  ``frexp``'s
    exponent is the bit length of any integer below 2**53 (exact in a
    double), and every larger one lands in the last bucket either way.
    """
    return np.minimum(np.frexp(latencies)[1], N_BUCKETS - 1)


@dataclass
class LatencyHistogram:
    """Power-of-two-bucketed latency distribution."""

    counts: list[int] = field(default_factory=lambda: [0] * N_BUCKETS)
    total: int = 0
    sum_cycles: int = 0
    max_cycles: int = 0

    def record(self, latency: int) -> None:
        if latency < 0:
            raise ValueError("latency cannot be negative")
        self.counts[min(latency.bit_length(), N_BUCKETS - 1)] += 1
        self.total += 1
        self.sum_cycles += latency
        if latency > self.max_cycles:
            self.max_cycles = latency

    def merge(self, other: "LatencyHistogram") -> None:
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.total += other.total
        self.sum_cycles += other.sum_cycles
        self.max_cycles = max(self.max_cycles, other.max_cycles)

    @property
    def mean(self) -> float:
        return self.sum_cycles / self.total if self.total else 0.0

    def percentile(self, p: float) -> int:
        """Upper bound of the bucket containing the p-th percentile.

        Args:
            p: Percentile in (0, 100].
        """
        if not 0.0 < p <= 100.0:
            raise ValueError("p must be in (0, 100]")
        if self.total == 0:
            return 0
        target = self.total * p / 100.0
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                return (1 << i) - 1  # bucket upper bound
        return self.max_cycles

    @property
    def p50(self) -> int:
        return self.percentile(50.0)

    @property
    def p95(self) -> int:
        return self.percentile(95.0)

    @property
    def p99(self) -> int:
        return self.percentile(99.0)

    def summary(self) -> str:
        return (f"n={self.total} mean={self.mean:.1f} p50≤{self.p50} "
                f"p95≤{self.p95} p99≤{self.p99} max={self.max_cycles}")
