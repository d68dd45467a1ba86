"""Property-based parity: synthesis kernel vs reference chunk loop.

The vectorized trace-synthesis kernel (``repro.trace.kernel``) claims
bit-exactness with the reference builder loop — same columns, same
instruction counter, same final RNG state — for every supported
behaviour mix.  Hypothesis sweeps the behaviour space (all five
patterns, geometric gap means straddling numpy's two sampling paths,
burst/write/dependency parameters, multi-object mixes) and holds the
kernel to that claim.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import kernel
from repro.trace.builder import ObjectBehavior, TraceBuilder
from repro.trace.events import VirtualLayout
from repro.util.rng import stream

#: gap_mean values straddle the numpy geometric sampler's two regimes:
#: the search path (p >= 1/3, i.e. gap_mean <= 3) and the
#: exponential-ziggurat path (p < 1/3), including the 3.0 boundary.
_GAP_MEANS = st.one_of(
    st.none(),
    st.sampled_from([1.0, 2.0, 3.0]),
    st.floats(min_value=3.0, max_value=40.0,
              allow_nan=False, allow_infinity=False),
)


#: The largest object ``kernel.supported`` accepts: a Lemire span
#: ``size - 8 + 1`` just under 2**32 (8-byte accesses).
_MAX_SIZE = (1 << 32) + 6
#: rand/chase sizes: small spans reject with probability below 2**-12
#: per half, so half the draws take spans just above 2**31 (where about
#: every other half rejects) up to the 2**32 limit.
_LEM_SIZES = st.one_of(
    st.integers(min_value=64, max_value=1 << 20),
    st.integers(min_value=(1 << 31) + 8, max_value=_MAX_SIZE),
)


@st.composite
def behaviors(draw, index=0):
    pattern = draw(st.sampled_from(
        ["seq", "strided", "rand", "chase", "hotspot"]))
    sizes = _LEM_SIZES if pattern in ("rand", "chase") \
        else st.integers(min_value=64, max_value=1 << 20)
    return ObjectBehavior(
        name=f"obj{index}",
        size_bytes=draw(sizes),
        weight=draw(st.floats(min_value=0.05, max_value=10.0)),
        pattern=pattern,
        burst_mean=draw(st.floats(min_value=1.0, max_value=128.0)),
        write_frac=draw(st.floats(min_value=0.0, max_value=1.0)),
        stride=draw(st.sampled_from([8, 24, 64, 256, 4096])),
        hot_fraction=draw(st.floats(min_value=0.01, max_value=1.0)),
        hot_weight=draw(st.floats(min_value=0.0, max_value=1.0)),
        dep_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
        gap_mean=draw(_GAP_MEANS),
        site=index,
    )


@st.composite
def behavior_lists(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return [draw(behaviors(index=i)) for i in range(n)]


def _reference_build(builder, n_accesses, rng):
    """``builder.build`` on the reference chunk loop."""
    layout = VirtualLayout()
    blocks = builder._iter_reference(n_accesses, rng,
                                     *builder._place(layout))
    return builder._concat(blocks, n_accesses, layout)


def _build_both(behaviors_list, n_accesses, *, mem_per_ki=100.0):
    """Build the same trace twice (kernel, reference); return both plus
    the final RNG states."""
    out = []
    for fast in (True, False):
        builder = TraceBuilder(list(behaviors_list), mem_per_ki=mem_per_ki)
        rng = stream("parity", n_accesses)
        if fast:
            assert kernel.supported(builder, rng), \
                "strategy generated an unsupported config"
            trace = builder.build(n_accesses, rng)
        else:
            trace = _reference_build(builder, n_accesses, rng)
        out.append((trace, rng.bit_generator.state))
    return out


def _assert_identical(fast, ref):
    (t_fast, s_fast), (t_ref, s_ref) = fast, ref
    np.testing.assert_array_equal(t_fast.inst, t_ref.inst)
    np.testing.assert_array_equal(t_fast.vaddr, t_ref.vaddr)
    np.testing.assert_array_equal(t_fast.is_write, t_ref.is_write)
    np.testing.assert_array_equal(t_fast.dep, t_ref.dep)
    np.testing.assert_array_equal(t_fast.obj_id, t_ref.obj_id)
    assert t_fast.total_instructions == t_ref.total_instructions
    assert s_fast == s_ref, "kernel consumed a different RNG word count"


class TestKernelParity:
    @given(behavior_lists(), st.integers(min_value=1, max_value=6000))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_across_behavior_space(self, bs, n):
        fast, ref = _build_both(bs, n)
        _assert_identical(fast, ref)

    @given(behaviors(), st.floats(min_value=10.0, max_value=2000.0))
    @settings(max_examples=25, deadline=None)
    def test_mem_intensity_sweep(self, b, mem_per_ki):
        """The default inter-access gap depends on mem_per_ki; the
        kernel must reproduce the rounding at every intensity."""
        fast, ref = _build_both([b], 2000, mem_per_ki=mem_per_ki)
        _assert_identical(fast, ref)

    def test_single_access_trace(self):
        b = ObjectBehavior("one", 4096, 1.0, pattern="rand")
        fast, ref = _build_both([b], 1)
        _assert_identical(fast, ref)

    def test_zero_weight_object_skipped_identically(self):
        """A never-scheduled behaviour must not perturb either engine
        (the reference never evaluates it; supported() ignores it)."""
        bs = [ObjectBehavior("hot", 65536, 1.0, pattern="hotspot"),
              ObjectBehavior("dead", 4096, 0.0, pattern="seq")]
        fast, ref = _build_both(bs, 3000)
        _assert_identical(fast, ref)

    def test_chase_forces_dependencies(self):
        bs = [ObjectBehavior("list", 1 << 18, 1.0, pattern="chase",
                             dep_prob=0.0, gap_mean=25.0)]
        fast, ref = _build_both(bs, 4000)
        _assert_identical(fast, ref)
        assert bool(ref[0].dep[1:].all() or len(ref[0].dep) <= 1)


#: Ziggurat gaps (gap mean > 3) beside Lemire-heavy objects: a chase
#: and a rand object whose spans reject often, hotspots (one of them
#: degenerate: a one-slot hot region inside a wider cold one) and a
#: search-method gap.
_MIXED = [
    ObjectBehavior("arcs", 34 << 20, 1.0, pattern="chase", gap_mean=14.0,
                   burst_mean=32.0, write_frac=0.1),
    ObjectBehavior("costs", 3 << 20, 0.4, pattern="rand", dep_prob=0.3,
                   gap_mean=10.0, burst_mean=16.0),
    ObjectBehavior("pyr", 2560 << 10, 0.5, pattern="hotspot",
                   hot_fraction=0.06, hot_weight=0.98, gap_mean=8.0,
                   burst_mean=24.0),
    ObjectBehavior("slot", 64, 0.1, pattern="hotspot", hot_fraction=0.1,
                   gap_mean=5.0, burst_mean=6.0),
    ObjectBehavior("buf", 192 << 10, 0.3, pattern="seq", gap_mean=2.0,
                   burst_mean=12.0),
]


#: Rejection stress: a rand span of 2**31 + 1 rejects about every other
#: half (runs of rejections inside one op, rejected carries, odd
#: rejection counts that flip the parity of every later op) and a chase
#: span of 3 * 2**30 one half in three, in short bursts between
#: ziggurat gaps whose slow paths shift the same reads; plus a hotspot
#: and a search-method gap.
_STRESS = [
    ObjectBehavior("coin", (1 << 31) + 8, 1.0, pattern="rand",
                   gap_mean=14.0, burst_mean=3.0, dep_prob=0.5),
    ObjectBehavior("third", 3 << 30, 0.6, pattern="chase", gap_mean=25.0,
                   burst_mean=2.0, write_frac=0.5),
    ObjectBehavior("costs", 3 << 20, 0.3, pattern="rand", gap_mean=9.0,
                   burst_mean=1.0),
    ObjectBehavior("pyr", 2560 << 10, 0.3, pattern="hotspot",
                   hot_fraction=0.06, hot_weight=0.9, gap_mean=6.0,
                   burst_mean=4.0),
    ObjectBehavior("buf", 192 << 10, 0.2, pattern="seq", gap_mean=2.0,
                   burst_mean=12.0),
]


class TestBlockSizeInvariance:
    """Block boundaries and the walk's scan window are layout choices:
    no size may change a column, the instruction count or the RNG end
    state."""

    @pytest.mark.parametrize("block", [1, 64, 2048, 8192, 1 << 17])
    @pytest.mark.parametrize("slack", [None, 0.0])
    def test_any_block_and_walk_window(self, monkeypatch, block, slack):
        monkeypatch.setattr(kernel, "_BLOCK_ACCESSES", block)
        if slack is not None:  # rescan every few words
            monkeypatch.setattr(kernel, "_WALK_SLACK", slack)
        fast, ref = _build_both(_MIXED, 30_000)
        _assert_identical(fast, ref)

    @pytest.mark.parametrize("block", [1, 64, 2048, 8192, 1 << 17])
    @pytest.mark.parametrize("slack", [None, 0.0])
    def test_rejection_stress(self, monkeypatch, block, slack):
        monkeypatch.setattr(kernel, "_BLOCK_ACCESSES", block)
        if slack is not None:
            monkeypatch.setattr(kernel, "_WALK_SLACK", slack)
        fast, ref = _build_both(_STRESS, 20_000)
        _assert_identical(fast, ref)


class TestWindowCuts:
    """Only hotspot ops may cut a layout window: rand/chase rejections
    are walked.  A build without hotspots lays out one window per block
    and never replays an op scalar."""

    def test_no_hotspot_build_is_one_window_per_block(self, monkeypatch):
        K = kernel._Kernel
        real = K._layout_detect_decode
        windows = []

        def layout(self, *a, **k):
            windows.append(1)
            return real(self, *a, **k)

        def exact(self, *a, **k):
            raise AssertionError("a rand/chase rejection cut the window")
        monkeypatch.setattr(K, "_layout_detect_decode", layout)
        monkeypatch.setattr(K, "_eval_exact", exact)
        monkeypatch.setattr(kernel, "_BLOCK_ACCESSES", 2048)
        builder = TraceBuilder([b for b in _STRESS if b.pattern != "hotspot"])
        blocks = list(builder.iter_blocks(20_000, stream("cuts", 1)))
        assert len(windows) == len(blocks) > 1
        assert sum(len(b[0]) for b in blocks) == 20_000


class TestKernelDispatch:
    def _builder(self):
        return TraceBuilder([ObjectBehavior("o", 8192, 1.0)])

    def test_unsupported_configs_decline(self):
        rng = stream("disp", 1)
        assert not kernel.supported(
            TraceBuilder([ObjectBehavior("tiny", 4, 1.0, pattern="seq")]),
            rng)
        assert not kernel.supported(
            TraceBuilder([ObjectBehavior("huge", 1 << 33, 1.0,
                                         pattern="rand")]), rng)
        assert not kernel.supported(
            self._builder(), np.random.Generator(np.random.MT19937(1)))

    def test_unsupported_generator_runs_reference(self, monkeypatch):
        def boom(*a, **k):
            raise AssertionError("kernel invoked on a non-PCG64 generator")
        monkeypatch.setattr(kernel, "iter_kernel_blocks", boom)
        rng = np.random.Generator(np.random.MT19937(3))
        ref_rng = np.random.Generator(np.random.MT19937(3))
        trace = self._builder().build(500, rng)
        ref = _reference_build(self._builder(), 500, ref_rng)
        np.testing.assert_array_equal(trace.vaddr, ref.vaddr)
        np.testing.assert_array_equal(trace.inst, ref.inst)

    def test_default_dispatch_reaches_kernel(self, monkeypatch):
        called = {}
        real = kernel.iter_kernel_blocks

        def spy(*a, **k):
            called["yes"] = True
            return real(*a, **k)
        monkeypatch.setattr(kernel, "iter_kernel_blocks", spy)
        self._builder().build(500, stream("disp", 4))
        assert called.get("yes")
