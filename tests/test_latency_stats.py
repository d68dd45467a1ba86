"""Tests for log2 histograms and the variance/robustness experiment.

The one histogram class serves controller latencies (cycles) and
campaign-telemetry span durations (nanoseconds); its hypothesis
properties — percentile within one bucket, fold-order independence,
lossless JSON round trip — cover both uses.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memctrl.request import MemRequest
from repro.util.histogram import N_BUCKETS, LatencyHistogram
from repro.workloads.inputs import build_app_trace, is_valid_input

values = st.integers(min_value=0, max_value=1 << 40)
value_lists = st.lists(values, max_size=30)


def _hist_from(vals: list[int]) -> LatencyHistogram:
    h = LatencyHistogram()
    for v in vals:
        h.record(v)
    return h


class TestLatencyHistogram:
    def test_record_and_mean(self):
        h = LatencyHistogram()
        for v in (10, 20, 30):
            h.record(v)
        assert h.count == 3
        assert h.mean == pytest.approx(20.0)
        assert h.max == 30

    def test_percentiles_monotone(self):
        h = LatencyHistogram()
        for v in range(1, 1001):
            h.record(v)
        assert h.p50 <= h.p95 <= h.p99 <= h.max * 2

    def test_percentile_bucket_bounds(self):
        h = LatencyHistogram()
        for _ in range(100):
            h.record(100)  # bucket [64, 127]
        assert h.p50 == 127
        assert h.p99 == 127

    def test_tail_visible(self):
        """99 fast + 1 slow: p50 stays fast, p99+ sees the straggler."""
        h = LatencyHistogram()
        for _ in range(99):
            h.record(10)
        h.record(10_000)
        assert h.p50 < 16
        assert h.percentile(100.0) >= 8191

    def test_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(5)
        b.record(500)
        a.merge(b)
        assert a.count == 2
        assert a.max == 500
        assert b == _hist_from([500])  # the added operand is unchanged

    def test_validation(self):
        h = LatencyHistogram()
        with pytest.raises(ValueError):
            h.record(-1)
        with pytest.raises(ValueError):
            h.percentile(0.0)
        with pytest.raises(ValueError):
            h.percentile(101.0)

    def test_empty(self):
        h = LatencyHistogram()
        assert h.mean == 0.0
        assert h.p99 == 0

    def test_huge_latency_clamped_to_last_bucket(self):
        h = LatencyHistogram()
        h.record(1 << 70)
        assert sum(h.buckets) == 1
        assert h.buckets[N_BUCKETS - 1] == 1

    def test_summary_renders(self):
        h = LatencyHistogram()
        h.record(42)
        assert "p99" in h.summary()


class TestHistogramProperties:
    def test_bins_and_count(self):
        h = _hist_from([0, 1, 2, 3, 1000])
        assert h.count == 5
        assert sum(h.buckets) == 5
        assert h.buckets[0] == 1  # 0 has its own bucket

    def test_empty_percentile_is_zero(self):
        assert LatencyHistogram().percentile(50.0) == 0

    @given(value_lists.filter(bool), st.sampled_from([50.0, 95.0, 99.0]))
    @settings(max_examples=80)
    def test_percentile_within_one_bin(self, vals, p):
        """Estimate >= true percentile and <= 2x (one log2 bucket width)."""
        est = _hist_from(vals).percentile(p)
        true = sorted(vals)[max(1, math.ceil(p * len(vals) / 100)) - 1]
        assert est >= true
        assert est <= max(1, 2 * true)

    @given(value_lists, value_lists, value_lists)
    @settings(max_examples=60)
    def test_merge_associative(self, a, b, c):
        left = _hist_from(a)
        left.merge(_hist_from(b))
        left.merge(_hist_from(c))
        right = _hist_from(b)
        right.merge(_hist_from(c))
        outer = _hist_from(a)
        outer.merge(right)
        assert left == outer == _hist_from(a + b + c)

    @given(value_lists, st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_fold_order_independent(self, vals, rnd):
        shuffled = list(vals)
        rnd.shuffle(shuffled)
        assert _hist_from(vals) == _hist_from(shuffled)

    @given(value_lists)
    @settings(max_examples=60)
    def test_round_trip(self, vals):
        h = _hist_from(vals)
        assert LatencyHistogram.from_dict(
            json.loads(json.dumps(h.to_dict()))) == h


class TestSystemHistogram:
    def test_controller_records_demand_only(self, ddr3_system):
        reqs = [MemRequest(group=0, gaddr=i * 64, issue_cycle=0)
                for i in range(8)]
        reqs.append(MemRequest(group=0, gaddr=9999 * 64, issue_cycle=0,
                               is_write=True, demand=False))
        ddr3_system.service_batch(reqs)
        hist = ddr3_system.latency_histogram()
        assert hist.count == 8  # the writeback is excluded

    def test_group_filter(self, hetero_system):
        hetero_system.service_batch([
            MemRequest(group=0, gaddr=0, issue_cycle=0),
            MemRequest(group=2, gaddr=0, issue_cycle=0),
        ])
        assert hetero_system.latency_histogram("lat").count == 1
        assert hetero_system.latency_histogram("pow").count == 1
        assert hetero_system.latency_histogram().count == 2

    def test_reset_clears(self, ddr3_system):
        ddr3_system.service_one(MemRequest(group=0, gaddr=0, issue_cycle=0))
        ddr3_system.reset_stats()
        assert ddr3_system.latency_histogram().count == 0

    def test_rl_p99_below_lp_p50ish(self, hetero_system):
        """RLDRAM's tail beats LPDDR's body on random traffic."""
        import numpy as np
        rng = np.random.default_rng(11)
        addrs = (rng.integers(0, 8 * (1 << 20) // 64, 300) * 64).tolist()
        for gi in (0, 2):
            for a in addrs:
                hetero_system.service_one(
                    MemRequest(group=gi, gaddr=a, issue_cycle=0))
        rl = hetero_system.latency_histogram("lat")
        lp = hetero_system.latency_histogram("pow")
        assert rl.p99 <= lp.p50 * 4
        assert rl.mean < lp.mean


class TestInputVariants:
    def test_valid_names(self):
        assert is_valid_input("train")
        assert is_valid_input("ref")
        assert is_valid_input("ref2")
        assert is_valid_input("ref17")
        assert not is_valid_input("validation")
        assert not is_valid_input("ref2x")

    def test_variants_differ_from_each_other(self):
        a = build_app_trace("sift", "ref", 5_000)
        b = build_app_trace("sift", "ref2", 5_000)
        assert not (a.vaddr[:200] == b.vaddr[:200]).all()
        assert (a.layout.heap_footprint_bytes()
                != b.layout.heap_footprint_bytes())

    def test_variance_experiment_tiny(self):
        from repro.experiments.runner import Fidelity
        from repro.experiments.variance import compute
        fig = compute(Fidelity("micro-var", 8_000, 4_000), n_variants=2)
        assert len(fig.rows) == 4
        assert fig.columns[-1] == "always_wins"

    def test_variance_needs_two(self):
        from repro.experiments.variance import compute
        with pytest.raises(ValueError):
            compute(n_variants=1)
