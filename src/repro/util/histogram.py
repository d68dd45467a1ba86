"""Log2 histograms: one mergeable distribution for latencies and spans.

Mean memory access time hides the tail; latency-sensitive applications
feel p95/p99.  Controllers feed every served request's latency (cycles)
into a :class:`LatencyHistogram`, so experiments can report percentile
latencies per channel, per group, or per system — e.g. to show MOCA
shortening the tail of chase-object misses, not just the mean.  Campaign
telemetry (:mod:`repro.obs.telemetry`) keeps one per span name for its
closed durations (nanoseconds).

Bucket ``i`` holds the values of bit length ``i`` (``[2**(i-1), 2**i)``;
bucket 0 holds 0), clamped at the last bucket.  Recording is two integer
ops, memory is 64 counters regardless of run length, merging is
element-wise addition (so any fold order gives the same histogram), and
a percentile is the upper bound of its bucket: never below the true
value, at most twice it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

N_BUCKETS = 64  # bucket 63 holds every value >= 2**62 (~146 years in ns)


def bucket_of(values: np.ndarray) -> np.ndarray:
    """Vectorized bucket index of :meth:`LatencyHistogram.record`.

    Bucketing must be *exactly* ``bit_length()`` — a float ``log2``
    would mis-bucket values adjacent to powers of two.  ``frexp``'s
    exponent is the bit length of any integer below 2**53 (exact in a
    double), and every larger one lands in the last bucket either way.
    """
    return np.minimum(np.frexp(values)[1], N_BUCKETS - 1)


@dataclass
class LatencyHistogram:
    """Power-of-two-bucketed distribution of non-negative integers."""

    buckets: list[int] = field(default_factory=lambda: [0] * N_BUCKETS)
    count: int = 0
    sum: int = 0
    max: int = 0

    def record(self, value: int) -> None:
        if value < 0:
            raise ValueError("latency cannot be negative")
        self.buckets[min(value.bit_length(), N_BUCKETS - 1)] += 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value

    def merge(self, other: "LatencyHistogram") -> None:
        """Add ``other`` into this histogram (``other`` is unchanged)."""
        for i, c in enumerate(other.buckets):
            self.buckets[i] += c
        self.count += other.count
        self.sum += other.sum
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> int:
        """Upper bound of the bucket containing the p-th percentile.

        Args:
            p: Percentile in (0, 100].
        """
        if not 0.0 < p <= 100.0:
            raise ValueError("p must be in (0, 100]")
        if self.count == 0:
            return 0
        target = self.count * p / 100.0
        seen = 0
        for i, c in enumerate(self.buckets):
            seen += c
            if seen >= target:
                return (1 << i) - 1  # bucket upper bound
        return self.max

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
        return (f"n={self.count} mean={self.mean:.1f} p50≤{self.p50} "
                f"p95≤{self.p95} p99≤{self.p99} max={self.max}")

    def to_dict(self) -> dict:
        """JSON form: sparse buckets, plus percentiles for human readers
        (:meth:`from_dict` ignores them)."""
        return {
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
            "buckets": {str(i): c for i, c in enumerate(self.buckets) if c},
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyHistogram":
        buckets = [0] * N_BUCKETS
        for i, c in data.get("buckets", {}).items():
            buckets[int(i)] = int(c)
        return cls(buckets, int(data.get("count", 0)),
                   int(data.get("sum", 0)), int(data.get("max", 0)))
