"""Tests for the persistent miss-stream store and its engine wiring.

Round-trips, stream-specific corrupt/stale handling, the writer/mmap-
reader race, and cross-process sharing; the crash-consistency cases
every store shares live in ``tests/test_castore.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cpu.hierarchy import CacheHierarchy
from repro.experiments import engine
from repro.sim import stream_store
from repro.trace.builder import ObjectBehavior, TraceBuilder
from repro.util import settings
from repro.util.rng import stream
from repro.util.units import KIB, MIB


@pytest.fixture(autouse=True)
def _clean_wiring(isolated_settings):
    """Isolate every test from ambient store configuration."""
    stream_store.reset()
    yield
    stream_store.reset()
    engine.reset()


def _filtered():
    b = [ObjectBehavior("o", 2 * MIB, 1.0, pattern="rand", gap_mean=5,
                        write_frac=0.4, site=1)]
    trace = TraceBuilder(b).build(6000, stream("tests", "stream_store"))
    return CacheHierarchy().filter_trace(trace)


def _assert_equal_result(a, b):
    s1, c1 = a
    s2, c2 = b
    for name in ("inst", "vline", "obj_id", "dep", "kind"):
        x, y = getattr(s1, name), getattr(s2, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert s1.total_instructions == s2.total_instructions
    assert c1 == c2
    assert list(c1.per_object) == list(c2.per_object)


class TestStoreRoundTrip:
    def test_put_get(self, tmp_path):
        store = stream_store.StreamStore(tmp_path)
        key = stream_store.filter_key("mcf", "ref", 6000)
        result = _filtered()
        assert store.get(key) is None          # cold
        store.put(key, *result)
        got = store.get(key)
        assert got is not None
        _assert_equal_result(got, result)
        assert store.stats.to_dict() == {
            "hits": 1, "misses": 1, "stores": 1, "corrupt": 0,
            "hit_ratio": 0.5}
        assert len(store) == 1

    def test_hit_returns_mmap_views(self, tmp_path):
        store = stream_store.StreamStore(tmp_path)
        key = stream_store.filter_key("mcf", "ref", 6000)
        store.put(key, *_filtered())
        got, _ = store.get(key)
        assert isinstance(got.inst, np.memmap)
        assert not got.inst.flags.writeable

    def test_repeat_get_serves_resident_entry(self, tmp_path):
        store = stream_store.StreamStore(tmp_path)
        key = stream_store.filter_key("mcf", "ref", 6000)
        store.put(key, *_filtered())
        first = store.get(key)
        second = store.get(key)
        # Identity, not just equality: the resident LRU returns the
        # exact decoded object while the entry file is unchanged.
        assert second[0] is first[0]
        assert store.stats.hits == 2
        # Rewriting the entry (a new manifest file) invalidates
        # residency; only a refresh overwrites a published entry.
        stream_store.StreamStore(tmp_path, refresh=True).put(key, *first)
        third = store.get(key)
        assert third[0] is not first[0]
        _assert_equal_result(third, first)

    def test_key_distinguishes_geometry_and_length(self):
        base = stream_store.filter_key("mcf", "ref", 6000)
        assert (stream_store.key_digest(base)
                != stream_store.key_digest(
                    stream_store.filter_key("mcf", "ref", 6001)))
        small = stream_store.filter_key(
            "mcf", "ref", 6000, hierarchy=CacheHierarchy(l1_size=32 * KIB))
        assert (stream_store.key_digest(base)
                != stream_store.key_digest(small))
        assert (stream_store.key_digest(base)
                == stream_store.key_digest(
                    stream_store.filter_key("mcf", "ref", 6000)))

    def test_refresh_bypasses_reads_but_still_writes(self, tmp_path):
        key = stream_store.filter_key("mcf", "ref", 6000)
        result = _filtered()
        stream_store.StreamStore(tmp_path).put(key, *result)
        store = stream_store.StreamStore(tmp_path, refresh=True)
        assert store.get(key) is None
        store.put(key, *result)
        assert store.stats.stores == 1
        assert stream_store.StreamStore(tmp_path).get(key) is not None

    def test_stale_version_dropped_silently(self, tmp_path):
        store = stream_store.StreamStore(tmp_path)
        key = stream_store.filter_key("mcf", "ref", 6000)
        path = store.put(key, *_filtered())
        doc = json.loads(path.read_text())
        doc["version"] = stream_store.STREAM_STORE_VERSION + 1
        path.write_text(json.dumps(doc))
        assert store.get(key) is None
        assert store.stats.corrupt == 0        # stale != corrupt
        assert not path.exists()
        assert len(store) == 0

    def test_truncated_array_is_corrupt(self, tmp_path):
        store = stream_store.StreamStore(tmp_path)
        key = stream_store.filter_key("mcf", "ref", 6000)
        store.put(key, *_filtered())
        digest = stream_store.key_digest(key)
        cpath = store.column_path(digest, "vline")
        arr = np.load(cpath)
        np.save(cpath.with_suffix(""), arr[:-1])  # np.save re-adds .npy
        assert store.get(key) is None
        assert store.stats.corrupt == 1


class TestWriterReaderRace:
    def test_reader_keeps_view_after_eviction(self, tmp_path):
        """POSIX keeps an unlinked mapping valid: a reader's arrays
        survive a concurrent drop and overwrite of their entry."""
        store = stream_store.StreamStore(tmp_path)
        key = stream_store.filter_key("mcf", "ref", 6000)
        result = _filtered()
        store.put(key, *result)
        miss, stats = stream_store.StreamStore(tmp_path).get(key)
        snapshot = miss.inst[:10].copy()
        # Drop the entry out from under the live mapping...
        store.store.drop(stream_store.key_digest(key))
        assert len(store) == 0
        assert np.array_equal(miss.inst[:10], snapshot)
        _assert_equal_result((miss, stats), result)
        # ...and overwrite it; the old view still reads old content.
        store.put(key, *result)
        assert np.array_equal(miss.inst, result[0].inst)


class TestModuleWiring:
    def test_disabled_by_default(self):
        assert stream_store.active() is None
        assert stream_store.stats_dict() is None

    def test_env_dir_selects_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_STORE_DIR", str(tmp_path))
        store = stream_store.active()
        assert store is not None and store.directory == tmp_path
        assert store is stream_store.active()  # cached instance

    def test_empty_env_means_explicitly_disabled(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert stream_store.active() is not None
        monkeypatch.setenv("REPRO_STREAM_STORE_DIR", "")
        assert stream_store.active() is None

    def test_cache_dir_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = stream_store.active()
        assert store.directory == tmp_path / "streams"

    def test_configure_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_STORE_DIR", str(tmp_path / "env"))
        stream_store.configure(tmp_path / "explicit")
        assert stream_store.active().directory == tmp_path / "explicit"
        stream_store.configure(None)
        assert stream_store.active() is None
        stream_store.reset()
        assert stream_store.active().directory == tmp_path / "env"

    def test_refresh_setting(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_STORE_DIR", str(tmp_path))
        assert not stream_store.active().refresh
        settings.update(refresh=True)
        assert stream_store.active().refresh


class TestEngineWiring:
    def test_configure_roots_streams_under_cache_dir(self, tmp_path):
        engine.configure(tmp_path)
        store = stream_store.active()
        assert store is not None
        assert store.directory == tmp_path / "streams"
        # Handed to worker processes with the settings, not the env.
        assert settings.current().cache_dir == str(tmp_path)
        assert "REPRO_STREAM_STORE_DIR" not in os.environ

    def test_no_cache_disables_streams_everywhere(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        engine.configure(None)
        assert stream_store.active() is None
        # Workers must inherit the disable, not fall back to env dirs.
        assert settings.current().stream_store_dir == ""

    def test_refresh_carries_over(self, tmp_path):
        engine.configure(tmp_path, refresh=True)
        assert stream_store.active().refresh
        assert settings.current().refresh

    def test_env_stream_dir_overrides_cache_dir(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_STORE_DIR", str(tmp_path / "s"))
        engine.configure(tmp_path / "cache")
        assert stream_store.active().directory == tmp_path / "s"

    def test_reset_restores_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_STORE_DIR", str(tmp_path / "orig"))
        before = dict(os.environ)
        engine.configure(None)
        assert stream_store.active() is None
        assert dict(os.environ) == before  # configure never writes it
        engine.reset()
        assert stream_store.active().directory == tmp_path / "orig"

    def test_cache_stats_reports_streams_block(self, tmp_path):
        engine.configure(tmp_path)
        store = stream_store.active()
        store.put(stream_store.filter_key("mcf", "ref", 6000), *_filtered())
        stats = engine.cache_stats()
        assert stats is not None
        assert stats["streams"]["stores"] == 1
        assert "hit_ratio" in stats["streams"]
        engine.configure(None)
        assert engine.cache_stats() is None


_CHILD = """\
import sys
import numpy as np
from repro.sim.single import filter_provenance, filtered_stream
s, c = filtered_stream("disparity", "ref", 3000)
prov = filter_provenance("disparity", "ref", 3000)
print(prov["engine"], prov["from_store"], len(s), c.l2_misses,
      isinstance(s.inst, np.memmap))
"""


class TestCrossProcess:
    def test_second_process_hits_the_store(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": "src",
               "REPRO_STREAM_STORE_DIR": str(tmp_path)}
        outs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-c", _CHILD],
                                  capture_output=True, text=True, env=env,
                                  cwd=Path(__file__).resolve().parent.parent)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout.split())
        engine1, from1, n1, m1, mmap1 = outs[0]
        engine2, from2, n2, m2, mmap2 = outs[1]
        assert engine1 == "kernel" and from1 == "False"
        assert engine2 == "store" and from2 == "True"
        assert (n1, m1) == (n2, m2)            # identical stream content
        # The store hit is a shared mapping, not a private copy: both
        # processes read the same physical pages off the page cache.
        assert mmap1 == "False" and mmap2 == "True"
