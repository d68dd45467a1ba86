"""Crash-consistency suite for the content-addressed store primitive.

Every case runs against all three stores built on
:mod:`repro.util.castore` — the result cache, the miss-stream store and
the chunked-trace store — through a small adapter per store, so the
stores cannot drift apart again.  Damaged, foreign or half-written
entries must end in a warning (corrupt) or silently (stale, absent) as
a clean miss, never a crash or a wrong number.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cpu.core import CoreResult
from repro.cpu.hierarchy import CacheHierarchy
from repro.experiments.cache import ResultCache
from repro.obs.registry import OBS
from repro.sim import stream_store
from repro.sim.metrics import RunMetrics
from repro.sim.spec import RunSpec
from repro.trace import chunked
from repro.trace.builder import ObjectBehavior, TraceBuilder
from repro.util import castore, settings
from repro.util.rng import stream
from repro.util.units import MIB

REPO = Path(__file__).resolve().parent.parent

SPEC = RunSpec("sift", "Homogen-DDR3", "homogen", 4_000)
BEHAVIORS = [ObjectBehavior("o", 2 * MIB, 1.0, pattern="rand", gap_mean=5,
                            write_frac=0.4, site=1)]
N_TRACE = 3_000
STREAM_KEY = stream_store.filter_key("mcf", "ref", N_TRACE)
TRACE_KEY = chunked.trace_key("mcf", "ref", N_TRACE, 1_000)


def _metrics() -> RunMetrics:
    core = CoreResult(
        core_id=0, cycles=1000, total_instructions=123, n_demand=7,
        n_load_misses=5, n_writebacks=1, n_episodes=3,
        mem_access_cycles=400, load_stall_cycles=11, stall_by_obj={1: 11},
        load_misses_by_obj={1: 5}, demand_by_obj={1: 7})
    return RunMetrics(
        system="Homogen-DDR3", policy="homogen", workload="sift",
        n_cores=1, exec_cycles=1000, mem_access_cycles=400,
        mem_power_w=0.5, mem_energy_j=1e-6, total_instructions=123,
        n_requests=7, row_hit_rate=0.25, load_stall_cycles=11,
        n_load_misses=5, latency_p50=1, latency_p95=2, latency_p99=4,
        per_core=(core,))


def _trace():
    return TraceBuilder(BEHAVIORS).build(N_TRACE, stream("castore", 0))


class ResultAdapter:
    """``RunSpec -> RunMetrics``; an entry with no columns."""

    kind = "result"

    def __init__(self, root: Path, refresh: bool = False):
        self.obj = ResultCache(root, refresh=refresh)
        self.store = self.obj.store
        self.entry = self.obj.path_for(SPEC).parent

    def put(self) -> None:
        self.obj.put(SPEC, _metrics())

    def fetch(self):
        return self.obj.get(SPEC)

    def check(self, got) -> None:
        assert got == _metrics()

    def write_former(self) -> None:
        """The v1 layout: one flat ``<spec-key>.json`` per run."""
        self.store.directory.mkdir(parents=True, exist_ok=True)
        (self.store.directory / f"{SPEC.key()}.json").write_text(json.dumps(
            {"version": 1, "spec": SPEC.canonical(),
             "metrics": _metrics().to_dict()}))


class StreamAdapter:
    """``filter_key -> (MissStream, CacheStats)``; five columns."""

    kind = "stream"
    column = "vline.npy"

    def __init__(self, root: Path, refresh: bool = False):
        self.obj = stream_store.StreamStore(root, refresh=refresh)
        self.store = self.obj.store
        self.entry = self.obj.path_for(STREAM_KEY).parent
        self.want = CacheHierarchy().filter_trace(_trace())

    def put(self) -> None:
        self.obj.put(STREAM_KEY, *self.want)

    def fetch(self):
        return self.obj.get(STREAM_KEY)

    def views(self):
        return [self.fetch()[0].vline]

    def check(self, got) -> None:
        (s1, c1), (s2, c2) = got, self.want
        for name in ("inst", "vline", "obj_id", "dep", "kind"):
            x, y = getattr(s1, name), getattr(s2, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        assert s1.total_instructions == s2.total_instructions
        assert c1 == c2 and list(c1.per_object) == list(c2.per_object)

    def write_former(self) -> None:
        """v1 (one ``.npz``) and flat v2 (``<digest>.json`` + columns)."""
        d = self.store.directory
        d.mkdir(parents=True, exist_ok=True)
        digest = stream_store.key_digest(STREAM_KEY)
        miss, _ = self.want
        np.savez_compressed(d / f"{digest}.npz", inst=miss.inst,
                            meta=np.frombuffer(b'{"version": 1}', np.uint8))
        np.save(d / f"{digest}.inst.npy", miss.inst)
        (d / f"{digest}.json").write_text(json.dumps({"version": 2}))


class TraceAdapter:
    """``trace_key -> ChunkedTrace``; three shards of five columns."""

    kind = "trace"
    column = "shard-00001.vaddr.npy"

    def __init__(self, root: Path, refresh: bool = False):
        self.obj = chunked.TraceStore(root)
        self.store = self.obj.store
        self.entry = self.obj.entry_dir(TRACE_KEY)

    def put(self) -> None:
        self.obj.build(TRACE_KEY, TraceBuilder(BEHAVIORS), N_TRACE,
                       stream("castore", 0))

    def fetch(self):
        """The materialized trace; a corrupt shard reads as a miss."""
        got = self.obj.get(TRACE_KEY)
        try:
            return None if got is None else got.materialize()
        except chunked.CorruptTraceError:
            return None

    def views(self):
        return [w.vaddr for w in self.obj.get(TRACE_KEY).windows()]

    def check(self, got) -> None:
        want = _trace()
        for name in ("inst", "vaddr", "is_write", "obj_id", "dep"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert got.total_instructions == want.total_instructions

    def write_former(self) -> None:
        """v1: npz shards under a version-1 manifest."""
        self.entry.mkdir(parents=True)
        np.savez_compressed(self.entry / "shard-00000.npz",
                            inst=np.arange(3))
        (self.entry / castore.MANIFEST_NAME).write_text(json.dumps(
            {"version": 1, "n_accesses": 3, "chunk_accesses": 3,
             "shard_rows": [3]}))


ADAPTERS = {"result": ResultAdapter, "stream": StreamAdapter,
            "trace": TraceAdapter}
COLUMNED = ("stream", "trace")


@pytest.fixture(autouse=True)
def _obs():
    OBS.reset().enable()
    yield
    OBS.reset().disable()


@pytest.fixture(params=list(ADAPTERS))
def store(request, tmp_path):
    return ADAPTERS[request.param](tmp_path / "store")


@pytest.fixture(params=COLUMNED)
def columned(request, tmp_path):
    return ADAPTERS[request.param](tmp_path / "store")


def _debris(root: Path) -> list[str]:
    return [name for _, dirs, files in os.walk(root)
            for name in dirs + files if name.endswith(".tmp")]


def _assert_clean_miss(store, capsys, *, warned: bool) -> str:
    assert store.fetch() is None
    assert not store.entry.exists()
    assert len(store.store) == 0
    err = capsys.readouterr().err
    assert err.count("corrupt entry") == warned, err  # at most once
    # Trace shards load lazily, outside ``get``: count via OBS.
    assert OBS.counters.get(f"{store.store.counter}.corrupt", 0) == warned
    return err


class TestLayout:
    def test_round_trip(self, store):
        assert store.fetch() is None
        store.put()
        store.check(store.fetch())
        assert len(store.store) == 1
        names = {p.name for p in store.entry.iterdir()}
        assert castore.MANIFEST_NAME in names
        assert all(n == castore.MANIFEST_NAME or n.endswith(".npy")
                   for n in names)
        assert not _debris(store.store.directory)
        stats = store.store.stats
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)

    def test_known_digests_pinned(self):
        """Key digests address every entry already on disk; changing
        the serialization would orphan them all."""
        assert stream_store.key_digest(
            stream_store.filter_key("mcf", "ref", 6000)) == (
            "dc4131f0a938a664ba49022eff838e6108a3e252c00dc96e5e894417e5a3c78d")
        assert castore.digest(chunked.trace_key("mcf", "ref", 12000, 4000)) \
            == ("d75f401a5545159ad1cf4a77329f427d0502053f86233e25a46a9a2aa"
                "daac5b8")


class TestDamagedManifest:
    @pytest.mark.parametrize("raw", [b'{"version": 2, "ke', b"[]", b"null",
                                     b'"text"', b"\xff\xfe{}"],
                             ids=["truncated", "list", "null", "string",
                                  "non-utf8"])
    def test_warns_drops_and_misses(self, store, capsys, raw):
        store.put()
        (store.entry / castore.MANIFEST_NAME).write_bytes(raw)
        err = _assert_clean_miss(store, capsys, warned=True)
        if raw in (b"[]", b"null", b'"text"'):
            assert "not a JSON object" in err
        store.put()  # the slot refills and serves normally
        store.check(store.fetch())

    def test_missing_fields_are_corrupt(self, store, capsys):
        store.put()
        path = store.entry / castore.MANIFEST_NAME
        path.write_text(json.dumps({"version": store.store.version}))
        _assert_clean_miss(store, capsys, warned=True)

    def test_result_metrics_validated_on_read(self, tmp_path, capsys):
        """The result cache checks the stored metrics document itself,
        not only its presence: one missing field is a corrupt entry."""
        store = ResultAdapter(tmp_path / "store")
        store.put()
        path = store.entry / castore.MANIFEST_NAME
        doc = json.loads(path.read_text())
        del doc["metrics"]["exec_cycles"]
        path.write_text(json.dumps(doc))
        _assert_clean_miss(store, capsys, warned=True)
        assert store.store.stats.corrupt == 1

    def test_stale_version_dropped_quietly(self, store, capsys):
        store.put()
        path = store.entry / castore.MANIFEST_NAME
        doc = json.loads(path.read_text())
        doc["version"] += 1
        path.write_text(json.dumps(doc))
        _assert_clean_miss(store, capsys, warned=False)
        assert OBS.counters[f"{store.store.counter}.stale"] == 1

    def test_former_v1_files_are_misses(self, store, capsys):
        store.write_former()
        assert store.fetch() is None
        assert len(store.store) == 0
        assert "corrupt" not in capsys.readouterr().err
        store.put()  # the new layout fills alongside the old files
        store.check(store.fetch())


class TestDamagedColumn:
    def _damage(self, columned, how):
        path = columned.entry / columned.column
        arr = np.load(path)
        if how == "missing":
            path.unlink()
        elif how == "truncated":
            path.write_bytes(path.read_bytes()[:-9])
        elif how == "short":
            np.save(path, arr[:-1])
        else:
            np.save(path, arr.astype(np.int16))

    @pytest.mark.parametrize("how", ["missing", "truncated", "short",
                                     "wrong-dtype"])
    def test_warns_drops_and_misses(self, columned, capsys, how):
        columned.put()
        self._damage(columned, how)
        _assert_clean_miss(columned, capsys, warned=True)
        columned.put()  # the slot refills and serves normally
        columned.check(columned.fetch())

    def test_views_survive_drop_and_overwrite(self, columned):
        """POSIX keeps an unlinked mapping valid."""
        columned.put()
        views = columned.views()
        assert all(isinstance(v, np.memmap) and not v.flags.writeable
                   for v in views)
        before = [v.copy() for v in views]
        columned.store.drop(columned.entry.name)
        assert columned.fetch() is None
        assert all(np.array_equal(v, b) for v, b in zip(views, before))
        columned.put()
        views = columned.views()
        columned.store.refresh = True
        columned.put()  # a refresh overwrites the published entry
        assert all(np.array_equal(v, b) for v, b in zip(views, before))
        assert not _debris(columned.store.directory)


class TestRefresh:
    @pytest.mark.parametrize("kind", ["result", "stream"])
    def test_bypasses_reads_but_overwrites(self, tmp_path, kind):
        ADAPTERS[kind](tmp_path).put()
        fresh = ADAPTERS[kind](tmp_path, refresh=True)
        assert fresh.fetch() is None
        assert OBS.counters[f"{fresh.store.counter}.refresh_bypass"] == 1
        fresh.put()
        assert fresh.store.stats.to_dict() == {
            "hits": 0, "misses": 1, "stores": 1, "corrupt": 0,
            "hit_ratio": 0.0}
        ADAPTERS[kind](tmp_path).check(ADAPTERS[kind](tmp_path).fetch())


#: Child body: publish one entry, or die by SIGKILL just before the
#: publishing rename, or publish ``repeat`` times racing siblings.
CHILD = """
import os, signal, sys
sys.path[:0] = ["src", "tests"]
import test_castore
from repro.util import castore
kind, root, mode, repeat = sys.argv[1:]
store = test_castore.ADAPTERS[kind](root)
if mode == "crash":
    castore.os.rename = lambda *a: os.kill(os.getpid(), signal.SIGKILL)
for _ in range(int(repeat)):
    store.put()
"""


def _children(kind, root, mode, repeat, n):
    procs = [subprocess.Popen(
        [sys.executable, "-c", CHILD, kind, str(root), mode, str(repeat)],
        cwd=REPO, env={**os.environ, "PYTHONPATH": "src"},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(n)]
    for p in procs:
        p.communicate(timeout=300)
    return procs


class TestCrashAndRace:
    def test_crash_before_publish_leaves_nothing_readable(self, store):
        (proc,) = _children(store.kind, store.store.directory, "crash", 1,
                            1)
        assert proc.returncode == -9
        assert _debris(store.store.directory)  # the dead writer's temp dir
        assert store.fetch() is None
        assert len(store.store) == 0
        store.put()  # a later writer publishes over the debris
        store.check(store.fetch())

    def test_interrupted_put_cleans_up(self, store, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(castore.os, "rename", interrupted)
        with pytest.raises(KeyboardInterrupt):
            store.put()
        monkeypatch.undo()
        assert store.fetch() is None
        assert not _debris(store.store.directory)

    def test_publish_keeps_a_complete_entry_unless_refreshing(self, store):
        """A second writer of one digest keeps the published entry, so
        readers never see the name vacant; a refresh replaces it."""
        store.put()
        manifest = store.entry / castore.MANIFEST_NAME
        ino = manifest.stat().st_ino
        store.put()
        assert manifest.stat().st_ino == ino
        store.store.refresh = True
        store.put()
        assert manifest.stat().st_ino != ino
        assert not _debris(store.store.directory)
        store.store.refresh = False
        store.check(store.fetch())

    def test_two_processes_publish_one_digest(self, store):
        procs = _children(store.kind, store.store.directory, "publish", 15,
                          2)
        assert all(p.returncode == 0 for p in procs)
        assert len(store.store) == 1
        store.check(store.fetch())
        assert not _debris(store.store.directory)


class TestSelection:
    def test_precedence(self, tmp_path, isolated_settings):
        monkeypatch = isolated_settings
        sel = castore.Selection("stream_store_dir", "sub",
                                lambda d, refresh: (d, refresh))
        assert sel.active() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert sel.active() == (tmp_path / "sub", False)
        monkeypatch.setenv("REPRO_STREAM_STORE_DIR", str(tmp_path / "env"))
        settings.update(refresh=True)
        assert sel.active() == (tmp_path / "env", True)
        assert sel.active() is sel.active()  # one instance per choice
        settings.update(stream_store_dir="")
        assert sel.active() is None
        sel.configure("explicit")
        assert sel.active() == "explicit"
        sel.reset()
        assert sel.active() is None

    def test_empty_trace_store_env_selects_tempdir(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_STORE_DIR", "")
        chunked.reset()
        try:
            assert chunked.active().directory != tmp_path / "traces"
            assert chunked.active() is chunked.active()
        finally:
            chunked.reset()
