"""Fast-path vs reference replay parity: bit-identical, at volume.

The fused replay kernel (``repro.memctrl.batch.replay``, which
``InOrderWindowCore`` drives in fast mode) is an *optimization*, not a
model change: for any trace, memory system, and core parameterization
it must produce byte-for-byte the same :class:`CoreResult` and leave the
memory system in byte-for-byte the same state (module counters,
controller counters, latency histograms, per-bank timing state, bus
direction and occupancy, tFAW activate history, refresh horizon) as the
retained per-record reference interpreter.

This file pins that contract four ways:

* a seeded bulk sweep over >= 10k random tiny traces (mixed request
  kinds, dependence chains, fractional IPC, multi-group heterogeneous
  systems, derated timings that exercise the tRAS precharge guard,
  FCFS and FR-FCFS scheduling, single-core and multicore heap
  interleave through both the fused kernel and the stepping API);
* hypothesis property tests (fewer examples, but shrinkable — a failure
  here minimizes itself), including parts with a short refresh interval
  and a wide tFAW window run through the fused one- and four-core loops;
* OBS parity: with observability on, fused runs publish the same
  counters and gauges as the stepping API and the reference engine;
* whole-pipeline ``run(spec)`` comparisons plus pinned cache keys and
  result digests, so the fast path can never silently change either the
  numbers or the cache identity of a default-valued spec.
"""

import dataclasses
import hashlib
import heapq
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.core import CoreParams, InOrderWindowCore, run_interleaved
from repro.cpu.hierarchy import (
    KIND_LOAD,
    KIND_PREFETCH,
    KIND_STORE,
    KIND_WRITEBACK,
    MissStream,
)
from repro.memctrl.scheduler import fcfs_order, frfcfs_order
from repro.memctrl.system import ChannelGroup, MemorySystem
from repro.memdev.presets import DDR3, HBM, LPDDR2, RLDRAM3
from repro.obs.registry import OBS
from repro.sim.spec import RunSpec, run
from repro.util.units import MIB

# ---- system recipes ---------------------------------------------------------
#
# Each entry: (builder, [per-group capacity in bytes]).  Fresh systems per
# replay — bank/bus state is mutable and must start identical on both paths.

_RECIPES = [
    # Single channel, FR-FCFS: the simplest configuration.
    (lambda: MemorySystem({"main": ChannelGroup(DDR3, 1, 8 * MIB)}),
     [8 * MIB]),
    # Two channels: power-of-two XOR channel hashing in the address map.
    (lambda: MemorySystem({"main": ChannelGroup(DDR3, 2, 4 * MIB)}),
     [8 * MIB]),
    # Three channels + FCFS: modulo routing and the other scheduler mode.
    (lambda: MemorySystem({"main": ChannelGroup(HBM, 3, 4 * MIB,
                                                scheduler=fcfs_order)}),
     [12 * MIB]),
    # Heterogeneous three-group system with derated (fault-injected)
    # timings: odd cycle counts exercise the tRAS-before-precharge guard.
    (lambda: MemorySystem({
        "fast": ChannelGroup(RLDRAM3.scaled(1.1), 1, 4 * MIB),
        "mid": ChannelGroup(HBM, 2, 4 * MIB),
        "pow": ChannelGroup(LPDDR2.scaled(1.25), 1, 8 * MIB),
    }), [4 * MIB, 8 * MIB, 8 * MIB]),
]

_PARAMS = [
    CoreParams(),
    CoreParams(ipc=0.1),                      # fractional IPC, den=10
    CoreParams(ipc=1.5, rob_size=16, mshr=4),
    CoreParams(ipc=0.3, lq_size=2),           # tiny episodes
    CoreParams(ipc=2.0, backlog=16),          # tight non-demand backlog
    CoreParams(mshr=1),                       # no overlap at all
]

_KINDS = np.array([KIND_LOAD, KIND_STORE, KIND_WRITEBACK, KIND_PREFETCH],
                  dtype=np.int8)


def _random_trace(rng, caps):
    """One random tiny (stream, groups, gaddrs) against ``caps`` groups."""
    n = int(rng.integers(1, 24))
    gaps = rng.integers(0, 40, size=n)
    inst = (np.cumsum(gaps) + 1).astype(np.int64)
    stream = MissStream(
        inst=inst,
        vline=(rng.integers(0, 1 << 24, size=n) * 64).astype(np.int64),
        obj_id=rng.integers(0, 5, size=n).astype(np.int32),
        dep=rng.random(n) < 0.25,
        kind=_KINDS[rng.integers(0, 4, size=n)],
        total_instructions=int(inst[-1]) + int(rng.integers(0, 50)),
    )
    groups = rng.integers(0, len(caps), size=n).astype(np.int32)
    lines = rng.random(n)  # uniform within each group's capacity
    gaddrs = np.array([int(lines[i] * (caps[groups[i]] // 64)) * 64
                       for i in range(n)], dtype=np.int64)
    return stream, groups, gaddrs


def _records_trace(records, caps, group_seed=0):
    """(stream, groups, gaddrs) from hypothesis ``_record`` tuples."""
    n = len(records)
    gaps, kinds, deps, objs, lines = zip(*records)
    inst = (np.cumsum(np.asarray(gaps, dtype=np.int64)) + 1)
    stream = MissStream(
        inst=inst,
        vline=np.asarray(lines, dtype=np.int64) * 64,
        obj_id=np.asarray(objs, dtype=np.int32),
        dep=np.asarray(deps, dtype=bool),
        kind=np.asarray(kinds, dtype=np.int8),
        total_instructions=int(inst[-1]) + 10,
    )
    groups = ((np.arange(n) + group_seed) % len(caps)).astype(np.int32)
    gaddrs = np.asarray(
        [(lines[i] * 64) % caps[groups[i]] for i in range(n)],
        dtype=np.int64)
    return stream, groups, gaddrs


def _loads(inst, gaddrs):
    """A dependence-free, load-only trace on group 0."""
    inst = np.asarray(inst, dtype=np.int64)
    gaddrs = np.asarray(gaddrs, dtype=np.int64)
    n = len(inst)
    stream = MissStream(
        inst=inst, vline=gaddrs.copy(),
        obj_id=np.zeros(n, dtype=np.int32), dep=np.zeros(n, dtype=bool),
        kind=np.full(n, KIND_LOAD, dtype=np.int8),
        total_instructions=int(inst[-1]) + 10)
    return stream, np.zeros(n, dtype=np.int32), gaddrs


# ---- state snapshots --------------------------------------------------------


def _memsys_doc(memsys):
    """Every observable counter and timing in the system, as one dict."""
    doc = {}
    for gname, g in zip(memsys.group_names, memsys.groups):
        for ci, (c, m) in enumerate(zip(g.controllers, g.modules)):
            doc[f"{gname}/ch{ci}"] = {
                "n_served": c.n_served,
                "queue_cycles": c.total_queue_cycles,
                "service_cycles": c.total_service_cycles,
                "hist": (tuple(c.latency_hist.counts), c.latency_hist.total,
                         c.latency_hist.sum_cycles,
                         c.latency_hist.max_cycles),
                "n_accesses": m.n_accesses,
                "n_row_hits": m.n_row_hits,
                "n_reads": m.n_reads,
                "n_writes": m.n_writes,
                "bus_busy_cycles": m.bus_busy_cycles,
                "bank_busy_cycles": m.bank_busy_cycles,
                "bytes_transferred": m.bytes_transferred,
                "last_done_cycle": m.last_done_cycle,
                "banks": [(b.open_row, b.ready_at, b.last_activate)
                          for sub in m.banks for b in sub],
                "bus": (list(m.bus_free_at), list(m._last_was_write)),
                "faw": [list(acts) for acts in m._recent_acts],
                "next_refresh": m._next_refresh,
            }
    return doc


def _replay(stream, groups, gaddrs, params, recipe, fast):
    memsys = recipe()
    core = InOrderWindowCore(stream, groups, gaddrs, params,
                             fast_path=fast)
    res = core.run_to_completion(memsys)
    return res, memsys


def _assert_parity(stream, groups, gaddrs, params, recipe, label=""):
    rf, mf = _replay(stream, groups, gaddrs, params, recipe, fast=True)
    rr, mr = _replay(stream, groups, gaddrs, params, recipe, fast=False)
    assert rf.to_dict() == rr.to_dict(), f"CoreResult diverged {label}"
    assert _memsys_doc(mf) == _memsys_doc(mr), f"memsys diverged {label}"


def _cores(traces, params, fast):
    return [InOrderWindowCore(s, g, a, params, core_id=i, fast_path=fast)
            for i, (s, g, a) in enumerate(traces)]


def _step(cores, memsys):
    """Drive ``cores`` through the stepping API in global issue order,
    one ``run_episode`` per heap pop.  Returns (results, pop order)."""
    heap = [(c.peek_next_issue(), i) for i, c in enumerate(cores)
            if not c.finished]
    heapq.heapify(heap)
    order = []
    while heap:
        _, i = heapq.heappop(heap)
        order.append(i)
        cores[i].run_episode(memsys)
        if not cores[i].finished:
            heapq.heappush(heap, (cores[i].peek_next_issue(), i))
    return [c.run_to_completion(memsys) for c in cores], order


def _fused_and_reference(traces, params, build):
    """``(CoreResult dicts, memsys doc)`` after the fused kernel and after
    the reference engine.  One trace runs through ``run_to_completion``,
    several through ``run_interleaved`` — the two fused entry points."""
    out = []
    for fast in (True, False):
        memsys = build()
        cores = _cores(traces, params, fast)
        if len(cores) == 1:
            results = [cores[0].run_to_completion(memsys)]
        else:
            results = run_interleaved(cores, memsys)
        out.append(([r.to_dict() for r in results], _memsys_doc(memsys)))
    return out


# ---- the bulk sweep ---------------------------------------------------------


class TestBulkParity:
    def test_ten_thousand_random_traces_single_core(self):
        rng = np.random.default_rng(0xC0FFEE)
        for i in range(10_000):
            recipe, caps = _RECIPES[i % len(_RECIPES)]
            params = _PARAMS[i % len(_PARAMS)]
            stream, groups, gaddrs = _random_trace(rng, caps)
            _assert_parity(stream, groups, gaddrs, params, recipe,
                           label=f"(trace {i})")

    def test_multicore_heap_interleave(self):
        """4 cores sharing one system, advanced in global issue order.
        Interleaving makes the cores' episodes contend for the same
        banks, so parity here pins that ``peek_next_issue`` and all
        shared live state (bank timing, bus direction, refresh schedule)
        agree between the stepping API on both engines and the heap
        inside the fused kernel (``run_interleaved``, what
        ``repro.sim.multi`` runs)."""
        rng = np.random.default_rng(0xBEEF)
        for rep in range(150):
            recipe, caps = _RECIPES[rep % len(_RECIPES)]
            params = _PARAMS[rep % len(_PARAMS)]
            traces = [_random_trace(rng, caps) for _ in range(4)]

            outcome = []
            for fast in (True, False):
                memsys = recipe()
                results, order = _step(_cores(traces, params, fast), memsys)
                outcome.append(([r.to_dict() for r in results], order,
                                _memsys_doc(memsys)))
            assert outcome[0] == outcome[1], f"multicore rep {rep}"
            memsys = recipe()
            fused = run_interleaved(_cores(traces, params, True), memsys)
            assert ([r.to_dict() for r in fused], _memsys_doc(memsys)) \
                == (outcome[1][0], outcome[1][2]), f"fused rep {rep}"

    def test_empty_stream(self):
        stream = MissStream(
            inst=np.array([], dtype=np.int64),
            vline=np.array([], dtype=np.int64),
            obj_id=np.array([], dtype=np.int32),
            dep=np.array([], dtype=bool),
            kind=np.array([], dtype=np.int8),
            total_instructions=777,
        )
        empty = np.array([], dtype=np.int64)
        for params in _PARAMS:
            _assert_parity(stream, empty.astype(np.int32), empty, params,
                           _RECIPES[0][0], label="(empty)")
        # An empty core next to a busy one: the fused heap skips it.
        recipe, caps = _RECIPES[3]
        busy = _random_trace(np.random.default_rng(7), caps)
        idle = (stream, empty.astype(np.int32), empty)
        fused, ref = _fused_and_reference([idle, busy], _PARAMS[0], recipe)
        assert fused == ref


# ---- hypothesis: same contract, shrinkable ---------------------------------

_record = st.tuples(
    st.integers(min_value=0, max_value=30),    # inst gap
    st.sampled_from([KIND_LOAD, KIND_STORE, KIND_WRITEBACK,
                     KIND_PREFETCH]),
    st.booleans(),                             # dep
    st.integers(min_value=0, max_value=3),     # obj id
    st.integers(min_value=0, max_value=(4 * MIB) // 64 - 1),  # line
)
_records = st.lists(_record, min_size=1, max_size=16)


class TestHypothesisParity:
    @given(records=_records,
           params_i=st.integers(min_value=0, max_value=len(_PARAMS) - 1),
           recipe_i=st.integers(min_value=0, max_value=len(_RECIPES) - 1),
           group_seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=200, deadline=None)
    def test_random_trace_parity(self, records, params_i, recipe_i,
                                 group_seed):
        recipe, caps = _RECIPES[recipe_i]
        stream, groups, gaddrs = _records_trace(records, caps, group_seed)
        _assert_parity(stream, groups, gaddrs, _PARAMS[params_i], recipe)


# ---- refresh and tFAW under stress ------------------------------------------


def _stressed(tREFI_ns, tFAW_ns, scheduler=frfcfs_order):
    """Derated parts with a short refresh interval and a wide tFAW window.

    A tiny trace then crosses many refreshes, and its row misses queue
    on the four-activate limit.  tRFC shrinks with tREFI so a refresh
    never outlasts the interval it serves.
    """
    def part(base, factor):
        return dataclasses.replace(base.scaled(factor), tREFI_ns=tREFI_ns,
                                   tRFC_ns=15.0, tFAW_ns=tFAW_ns)

    return MemorySystem({
        "a": ChannelGroup(part(DDR3, 1.3), 1, 4 * MIB, scheduler=scheduler),
        "b": ChannelGroup(part(HBM, 1.15), 2, 4 * MIB, scheduler=scheduler),
    })


class TestRefreshAndFawParity:
    """Refresh catch-up and tFAW-bound activates through the fused
    one-core and four-core loops, against the reference engine."""

    @given(records=st.lists(_record, min_size=4, max_size=48),
           tREFI_ns=st.integers(min_value=40, max_value=300),
           tFAW_ns=st.integers(min_value=20, max_value=240),
           fcfs=st.booleans(),
           n_cores=st.sampled_from([1, 4]),
           params_i=st.integers(min_value=0, max_value=len(_PARAMS) - 1))
    @settings(max_examples=120, deadline=None)
    def test_fused_matches_reference(self, records, tREFI_ns, tFAW_ns,
                                     fcfs, n_cores, params_i):
        caps = [4 * MIB, 8 * MIB]
        traces = [_records_trace(records[i::n_cores], caps, group_seed=i)
                  for i in range(n_cores)]
        scheduler = fcfs_order if fcfs else frfcfs_order
        fused, ref = _fused_and_reference(
            traces, _PARAMS[params_i],
            lambda: _stressed(tREFI_ns, tFAW_ns, scheduler))
        assert fused == ref

    def test_stress_recipe_binds_refresh_and_faw(self):
        """The stress parts really do what the property test relies on."""
        def replay(trace, tREFI_ns, tFAW_ns):
            fused, ref = _fused_and_reference(
                [trace], CoreParams(), lambda: _stressed(tREFI_ns, tFAW_ns))
            assert fused == ref
            return fused

        # Eight independent loads to row 1 of banks 0..7 of group "a"'s
        # single subchannel issue together: the fifth activate waits.
        burst = _loads(range(1, 9), [(8 + b) << 10 for b in range(8)])
        wide = replay(burst, 10_000, 240)
        off = replay(burst, 10_000, 0)
        assert wide[0][0]["cycles"] > off[0][0]["cycles"]
        # One row re-read every 150 instructions: row hits unless a
        # refresh closed the row in between.
        reread = _loads(range(1, 1500, 150), [8 << 10] * 10)
        hits = [replay(reread, refi, 0)[1]["a/ch0"]["n_row_hits"]
                for refi in (100, 100_000)]
        assert hits[0] < hits[1]


# ---- observability ----------------------------------------------------------

#: Counters that track process-level memo hits, not the replay itself.
_MEMO_COUNTERS = ("replay.decode_reuse", "data_plane.copies_avoided")


def _observed(fn):
    """Counters and gauges published while ``fn()`` runs with OBS on."""
    OBS.reset().enable()
    try:
        fn()
        counters = {k: v for k, v in OBS.counters.items()
                    if k not in _MEMO_COUNTERS}
        gauges = dict(OBS.gauges)
    finally:
        OBS.reset().disable()
    return counters, gauges


class TestObsParity:
    """With OBS on, the fused kernel computes the ``memsys.*`` and
    ``mem.<channel>.*`` counters and the ``queue_occupancy`` gauges from
    its per-record columns.  They must equal what the stepping API and
    the reference engine publish batch by batch."""

    def test_single_core(self):
        rng = np.random.default_rng(0x0B5)
        for i in range(80):
            recipe, caps = _RECIPES[i % len(_RECIPES)]
            params = _PARAMS[i % len(_PARAMS)]
            trace = _random_trace(rng, caps)
            seen = [_observed(f) for f in (
                lambda: _cores([trace], params, True)[0]
                .run_to_completion(recipe()),
                lambda: _step(_cores([trace], params, True), recipe()),
                lambda: _cores([trace], params, False)[0]
                .run_to_completion(recipe()),
            )]
            assert seen[0] == seen[1] == seen[2], f"trace {i}"
            assert any(k.startswith("mem.") for k in seen[0][0])

    def test_four_cores(self):
        rng = np.random.default_rng(0x0B54)
        for rep in range(40):
            recipe, caps = _RECIPES[rep % len(_RECIPES)]
            params = _PARAMS[rep % len(_PARAMS)]
            traces = [_random_trace(rng, caps) for _ in range(4)]
            seen = [_observed(f) for f in (
                lambda: run_interleaved(_cores(traces, params, True),
                                        recipe()),
                lambda: _step(_cores(traces, params, True), recipe()),
                lambda: run_interleaved(_cores(traces, params, False),
                                        recipe()),
            )]
            assert seen[0] == seen[1] == seen[2], f"rep {rep}"
            assert any(k.endswith(".queue_occupancy") for k in seen[0][1])


# ---- whole pipeline: run(spec), cache keys, pinned digests ------------------


def _metrics_doc(metrics) -> dict:
    """Deterministic form of RunMetrics: meta carries a timestamp, so it
    is checked separately (fast_path flag) and dropped here."""
    doc = metrics.to_dict()
    doc.pop("meta", None)
    return doc


def _digest(metrics) -> str:
    blob = json.dumps(_metrics_doc(metrics), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class TestRunSpecParity:
    def test_single_core_run_matches_reference(self):
        spec = RunSpec(workload="mcf", config="Heter-config1",
                       policy="moca", n_accesses=6000)
        fast = run(spec)
        ref = run(dataclasses.replace(spec, fast_path=False))
        assert fast.to_dict()["meta"]["fast_path"] is True
        assert ref.to_dict()["meta"]["fast_path"] is False
        assert _metrics_doc(fast) == _metrics_doc(ref)

    def test_multicore_run_matches_reference(self):
        spec = RunSpec(workload="2L1B1N", config="Homogen-DDR3",
                       policy="homogen", n_accesses=3000)
        fast = run(spec)
        ref = run(dataclasses.replace(spec, fast_path=False))
        assert fast.to_dict()["meta"]["fast_path"] is True
        assert ref.to_dict()["meta"]["fast_path"] is False
        assert _metrics_doc(fast) == _metrics_doc(ref)


class TestCacheKeyStability:
    """Default-valued specs must keep their pre-fast-path cache keys, so
    warm sweep caches survive the upgrade.  Forced-reference runs are a
    distinct request and get their own key."""

    def test_single_spec_key_pinned(self):
        spec = RunSpec(workload="mcf", config="Heter-config1",
                       policy="moca", n_accesses=20_000)
        assert spec.key() == ("ae1e8ff4bc9a4062327d5be316a5a7cc"
                              "7b085a027a491c01b7d33ecedb1e8e91")

    def test_multi_spec_key_pinned(self):
        spec = RunSpec(workload="2L1B1N", config="Homogen-DDR3",
                       policy="homogen", n_accesses=10_000)
        assert spec.key() == ("290a5b050d60590042ef88249cef7058"
                              "7b5ee9bfd17655ff5f589bdfee686c33")

    def test_forced_reference_gets_distinct_key(self):
        spec = RunSpec(workload="mcf", config="Heter-config1",
                       policy="moca", n_accesses=20_000)
        off = dataclasses.replace(spec, fast_path=False)
        assert off.key() != spec.key()
        assert off.canonical()["fast_path"] is False
        assert "fast_path" not in spec.canonical()
