"""Chunked traces: byte-identity with the monolithic path, the trace
store's round trip and rebuild-on-corruption, windowed-filter parity,
and the RunSpec knob.  Damaged, stale and garbled entries of every
store are cases of ``tests/test_castore.py``.

The contract under test everywhere: chunking is a *layout* choice, not
a semantic one.  Shard content, filter output, and run metrics must be
byte-identical to the monolithic pipeline for every shard size — which
is also why the persistent miss-stream store is shared between the two
pipelines.
"""

import json

import numpy as np
import pytest
import reference_filter

from repro.cpu.hierarchy import CacheHierarchy
from repro.sim import run, stream_store
from repro.sim.spec import RunSpec
import repro.sim.single as single
from repro.trace import chunked, kernel
from repro.trace.builder import TraceBuilder
from repro.trace.io import import_trace, save_trace
from repro.util.rng import stream


@pytest.fixture
def trace_store(tmp_path):
    """Isolate the chunked store (and disable the stream store)."""
    store = chunked.configure(tmp_path / "traces")
    stream_store.configure(None)
    single.filtered_stream_chunked.cache_clear()
    yield store
    chunked.reset()
    stream_store.reset()
    single.filtered_stream_chunked.cache_clear()


def _assert_traces_equal(a, b):
    np.testing.assert_array_equal(a.inst, b.inst)
    np.testing.assert_array_equal(a.vaddr, b.vaddr)
    np.testing.assert_array_equal(a.is_write, b.is_write)
    np.testing.assert_array_equal(a.obj_id, b.obj_id)
    np.testing.assert_array_equal(a.dep, b.dep)
    assert a.total_instructions == b.total_instructions


def _assert_filter_equal(res_a, res_b):
    s_a, c_a = res_a
    s_b, c_b = res_b
    for name in ("inst", "vline", "obj_id", "dep", "kind"):
        x, y = getattr(s_a, name), getattr(s_b, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)
    assert (c_a.total_instructions, c_a.l1_hits, c_a.l1_misses,
            c_a.l2_hits, c_a.l2_misses, c_a.n_writebacks) == \
           (c_b.total_instructions, c_b.l1_hits, c_b.l1_misses,
            c_b.l2_hits, c_b.l2_misses, c_b.n_writebacks)
    assert list(c_a.per_object) == list(c_b.per_object)
    assert c_a.per_object == c_b.per_object


N = 12_000


class TestChunkedGeneration:
    @pytest.mark.parametrize("chunk", [7, 997, N, N + 5000])
    def test_byte_identical_across_shard_sizes(self, tiny_behaviors,
                                               tmp_path, chunk):
        mono_rng = stream("chunktest", 0)
        mono = TraceBuilder(tiny_behaviors).build(N, mono_rng)
        ct_rng = stream("chunktest", 0)
        ct = chunked.build_chunked(
            TraceBuilder(tiny_behaviors), N, ct_rng,
            tmp_path / f"entry-{chunk}", chunk_accesses=chunk)
        _assert_traces_equal(ct.materialize(), mono)
        assert sum(ct.shard_rows) == N
        assert all(r == chunk for r in ct.shard_rows[:-1])
        # Generation must drain the engine: identical final RNG state.
        assert ct_rng.bit_generator.state == mono_rng.bit_generator.state

    def test_engines_agree(self, tiny_behaviors, tmp_path, monkeypatch):
        """Kernel and reference chunk loop shard the same trace; the
        reference runs when ``kernel.supported`` declines the build."""
        out = []
        for fast in (True, False):
            if not fast:
                monkeypatch.setattr(kernel, "supported", lambda *a: False)
            ct = chunked.build_chunked(
                TraceBuilder(tiny_behaviors), N, stream("chunktest", 1),
                tmp_path / f"e-{fast}", chunk_accesses=5000)
            out.append(ct.materialize())
        _assert_traces_equal(out[0], out[1])

    def test_layout_survives_reopen(self, tiny_behaviors, trace_store):
        key = chunked.trace_key("mcf", "ref", N, 5000)
        built = trace_store.build(key, TraceBuilder(tiny_behaviors), N,
                                  stream("chunktest", 2))
        reopened = trace_store.get(key)
        assert reopened is not None
        a, b = built.layout, reopened.layout
        assert [(o.name, o.vbase, o.size_bytes, o.site)
                for o in a.objects] == \
               [(o.name, o.vbase, o.size_bytes, o.site)
                for o in b.objects]
        vaddr = built.materialize().vaddr
        np.testing.assert_array_equal(a.resolve(vaddr), b.resolve(vaddr))

    def test_rebuild_into_named_directory_replaces(self, tiny_behaviors,
                                                   tmp_path):
        """A caller-named directory is not content-addressed: writing a
        different trace there must replace the old one."""
        for seed, n in ((4, N), (5, N // 2)):
            chunked.build_chunked(
                TraceBuilder(tiny_behaviors), n, stream("chunktest", seed),
                tmp_path / "entry", chunk_accesses=5000)
        want = TraceBuilder(tiny_behaviors).build(N // 2,
                                                  stream("chunktest", 5))
        got = chunked.ChunkedTrace(
            tmp_path / "entry",
            json.loads((tmp_path / "entry" / "manifest.json").read_text()))
        _assert_traces_equal(got.materialize(), want)

    def test_rejects_nonpositive_chunk(self, tiny_behaviors, tmp_path):
        with pytest.raises(ValueError, match="chunk_accesses"):
            chunked.build_chunked(
                TraceBuilder(tiny_behaviors), 100, stream("chunktest", 3),
                tmp_path / "bad", chunk_accesses=0)


class TestFilterChunkedParity:
    # warm_until = 0.2 * N = 2400: chunk=2400 puts the warmup boundary
    # exactly on a shard edge, 1000/1800 put it mid-shard (after/inside
    # whole warm shards), N+1 degenerates to one window.
    @pytest.mark.parametrize("chunk", [1000, 1800, 2400, N + 1])
    @pytest.mark.parametrize("fast", [True, False])
    def test_matches_monolithic(self, tiny_behaviors, tmp_path, chunk,
                                fast):
        """On the kernel, and on the oracle: its windowed loop against
        its monolithic form, so cross-window state is pinned there too."""
        mono = TraceBuilder(tiny_behaviors).build(N, stream("chunktest", 4))
        ct = chunked.chunk_trace(mono, tmp_path / f"e-{chunk}-{fast}",
                                 chunk_accesses=chunk)
        h_mono, h_chunk = CacheHierarchy(), CacheHierarchy()
        if fast:
            res_mono = h_mono.filter_trace(mono)
            res_chunk = h_chunk.filter_chunked(ct)
        else:
            warm_until = int(len(mono) * 0.2)
            res_mono = reference_filter.filter_trace(h_mono, mono,
                                                     warm_until)
            state = reference_filter.ReferenceFilterState()
            for window in ct.windows():
                reference_filter.filter_window(h_chunk, window, warm_until,
                                               state)
            res_chunk = state.finalize(h_chunk)
        _assert_filter_equal(res_chunk, res_mono)

    def test_invalid_warmup_frac(self, tiny_behaviors, tmp_path):
        mono = TraceBuilder(tiny_behaviors).build(2000, stream("ct", 5))
        ct = chunked.chunk_trace(mono, tmp_path / "e", chunk_accesses=500)
        with pytest.raises(ValueError):
            CacheHierarchy().filter_chunked(ct, warmup_frac=1.5)


class TestTraceStore:
    def _build(self, store, behaviors, n=N, chunk=4000, salt=6):
        key = chunked.trace_key("mcf", "ref", n, chunk)
        got = store.get(key)
        if got is not None:
            return key, got
        return key, store.build(key, TraceBuilder(behaviors), n,
                                stream("chunktest", salt))

    def test_round_trip(self, tiny_behaviors, trace_store):
        key, built = self._build(trace_store, tiny_behaviors)
        again = trace_store.get(key)
        _assert_traces_equal(again.materialize(), built.materialize())
        assert len(trace_store) == 1

    def test_miss_on_absent_key(self, trace_store):
        assert trace_store.get(chunked.trace_key("gcc", "ref", 5, 5)) is None

    def test_filtered_stream_chunked_retries_corruption(self, trace_store):
        """The runner-facing wrapper recovers from a corrupt entry by
        rebuilding — one retry, no caller-visible error."""
        first = single.filtered_stream_chunked("mcf", "ref", N, 4000)
        entry = trace_store.get(chunked.trace_key("mcf", "ref", N, 4000))
        entry.shard_path(0).write_bytes(b"garbage")
        single.filtered_stream_chunked.cache_clear()
        again = single.filtered_stream_chunked("mcf", "ref", N, 4000)
        _assert_filter_equal(again[:2], first[:2])
        prov = single.filter_provenance("mcf", "ref", N)
        assert prov == {"engine": "kernel", "from_store": False}


class TestRunSpecKnob:
    def test_canonical_key_only_when_set(self):
        plain = RunSpec("mcf", "Heter-config1", "moca", N)
        knobbed = RunSpec("mcf", "Heter-config1", "moca", N,
                          trace_chunk_accesses=4000)
        c_plain, c_knob = plain.canonical(), knobbed.canonical()
        assert "trace_chunk_accesses" not in c_plain
        assert c_knob.pop("trace_chunk_accesses") == 4000
        assert c_knob == c_plain

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            RunSpec("mcf", "Heter-config1", "moca", N,
                    trace_chunk_accesses=0)
        with pytest.raises(ValueError, match="single-core"):
            RunSpec("2L1B1N", "Heter-config1", "moca", N,
                    trace_chunk_accesses=4000)
        with pytest.raises(ValueError, match="migration|online"):
            RunSpec("mcf", "Heter-config1", "moca", N,
                    trace_chunk_accesses=4000, migration=True)

    def test_run_equals_unchunked(self, trace_store):
        base = RunSpec("mcf", "Heter-config1", "moca", N)
        m_plain = run(base)
        m_chunk = run(RunSpec("mcf", "Heter-config1", "moca", N,
                              trace_chunk_accesses=5000))
        d_plain = {k: v for k, v in m_plain.to_dict().items()
                   if k != "meta"}
        d_chunk = {k: v for k, v in m_chunk.to_dict().items()
                   if k != "meta"}
        assert d_chunk == d_plain
        assert m_chunk.meta["trace_chunk_accesses"] == 5000
        assert "trace_chunk_accesses" not in m_plain.meta


    def test_warm_stream_store_writes_no_shard(self, trace_store,
                                               tmp_path, monkeypatch):
        """A chunked unit whose stream is stored opens no trace at all:
        the trace store stays empty and the metrics are unchanged."""
        spec = RunSpec("mcf", "Heter-config1", "moca", N,
                       trace_chunk_accesses=5000)
        stream_store.configure(tmp_path / "streams")
        cold = run(spec)
        warm_traces = chunked.configure(tmp_path / "traces-warm")
        single.filtered_stream_chunked.cache_clear()

        def boom(self, *args, **kwargs):
            raise AssertionError("trace synthesized on a warm store")

        monkeypatch.setattr(TraceBuilder, "iter_blocks", boom)
        warm = run(spec)
        assert not warm_traces.directory.exists()
        assert warm.meta["filter"] == {"engine": "store", "from_store": True}
        d_cold = {k: v for k, v in cold.to_dict().items() if k != "meta"}
        d_warm = {k: v for k, v in warm.to_dict().items() if k != "meta"}
        assert d_warm == d_cold


class TestImportPath:
    def test_save_import_round_trip(self, tiny_behaviors, tmp_path):
        mono = TraceBuilder(tiny_behaviors).build(8000, stream("ct", 7))
        path = tmp_path / "captured.trace.npz"
        save_trace(mono, path)
        ct = import_trace(path, tmp_path / "imported", chunk_accesses=3000)
        assert ct.n_shards == 3
        _assert_traces_equal(ct.materialize(), mono)
        np.testing.assert_array_equal(
            ct.layout.resolve(mono.vaddr), mono.obj_id)
