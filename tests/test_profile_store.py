"""The stored MOCA profile: a manifest-only store beside the miss streams.

``profile_app`` keeps its in-process memo; beneath it sits
``<active stream store>/profiles``, keyed by ``profile_key``.  These
tests pin that a stored profile is the computed one bit for bit, that a
second process reads it back without synthesizing a trace, that the key
is stable across processes and moves with every input it covers, that
damaged entries recompute, and that the store follows the stream store's
switches.
"""

import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from repro.cpu.core import CoreParams
from repro.experiments import engine
from repro.moca import profiler
from repro.moca.serialize import lut_to_dict
from repro.obs.registry import OBS
from repro.service.spec import OnlineSpec
from repro.sim import run, stream_store
from repro.sim import single
from repro.sim.spec import RunSpec
from repro.trace.builder import TraceBuilder
from repro.util.castore import MANIFEST_NAME, digest
from repro.workloads import inputs

ROOT = Path(__file__).resolve().parent.parent
N = 4000


def _clear_memos():
    profiler.profile_app.cache_clear()
    single.filtered_stream.cache_clear()
    inputs.build_app_trace.cache_clear()


@pytest.fixture(autouse=True)
def _clean(isolated_settings):
    stream_store.reset()
    _clear_memos()
    yield
    _clear_memos()
    stream_store.reset()
    engine.reset()


@pytest.fixture
def streams(tmp_path):
    return stream_store.configure(tmp_path / "streams")


@pytest.fixture
def profiles_run(monkeypatch):
    """Counts calls of the profiling pass itself."""
    calls = []
    original = profiler.MemoryObjectProfiler.profile_trace

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(profiler.MemoryObjectProfiler, "profile_trace",
                        counted)
    return calls


def _no_synthesis(monkeypatch):
    """Make any trace synthesis (monolithic or chunked) fail the test."""
    def boom(self, *args, **kwargs):
        raise AssertionError("trace synthesized on a warm store")

    monkeypatch.setattr(TraceBuilder, "iter_blocks", boom)


def _entry(streams, app="mcf", input_name="train", n=N) -> Path:
    name = digest(profiler.profile_key(app, input_name, n))
    return streams.directory / "profiles" / name


def _assert_same_profile(a, b):
    assert lut_to_dict(a.lut) == lut_to_dict(b.lut)
    assert a.segment_mpki == b.segment_mpki
    assert a.app_mpki == b.app_mpki
    assert a.app_stall_per_miss == b.app_stall_per_miss
    assert (a.app_name, a.input_name) == (b.app_name, b.input_name)


class TestRoundTrip:
    def test_stored_profile_is_bit_equal(self, streams, profiles_run):
        computed = profiler.profile_app("mcf", "train", N)
        assert _entry(streams).joinpath(MANIFEST_NAME).exists()
        profiler.profile_app.cache_clear()
        stored = profiler.profile_app("mcf", "train", N)
        assert stored is not computed
        assert len(profiles_run) == 1
        _assert_same_profile(stored, computed)


_CHILD = """\
from repro.moca import profiler
from repro.moca.serialize import lut_to_dict
from repro.obs.registry import OBS
from repro.trace.builder import TraceBuilder
import json

OBS.enable()
builds = []
original = TraceBuilder.iter_blocks
def counted(self, *args, **kwargs):
    builds.append(1)
    return original(self, *args, **kwargs)
TraceBuilder.iter_blocks = counted
p = profiler.profile_app("disparity", "train", 3000)
print(json.dumps({
    "objects_profiled": OBS.counters.get("moca.objects_profiled", 0),
    "hits": OBS.counters.get("profile_store.hit", 0),
    "builds": len(builds),
    "lut": lut_to_dict(p.lut),
    "segment_mpki": p.segment_mpki,
    "app_mpki": p.app_mpki,
    "app_stall_per_miss": p.app_stall_per_miss,
}))
"""

_KEY_CHILD = """\
from repro.moca.profiler import profile_key
from repro.util.castore import digest
print(digest(profile_key("mcf", "train", 12345)))
"""


def _child(code: str, **env: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=ROOT,
        env={**{k: v for k, v in os.environ.items()
                if not k.startswith("REPRO_")},
             "PYTHONPATH": "src", **env})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestCrossProcess:
    def test_second_process_hits_without_synthesis(self, tmp_path):
        env = {"REPRO_STREAM_STORE_DIR": str(tmp_path)}
        first = json.loads(_child(_CHILD, **env))
        second = json.loads(_child(_CHILD, **env))
        assert first["objects_profiled"] > 0 and first["builds"] == 1
        assert first["hits"] == 0
        assert second["objects_profiled"] == 0
        assert second["builds"] == 0
        assert second["hits"] == 1
        for field in ("lut", "segment_mpki", "app_mpki",
                      "app_stall_per_miss"):
            assert second[field] == first[field], field

    def test_key_digest_is_stable_across_processes(self):
        a = _child(_KEY_CHILD).strip()
        b = _child(_KEY_CHILD).strip()
        assert a == b
        assert a == digest(profiler.profile_key("mcf", "train", 12345))


class TestKey:
    def test_key_extends_the_filter_key(self):
        key = profiler.profile_key("mcf", "train", N)
        base = stream_store.filter_key("mcf", "train", N)
        assert key["schema"] == "moca-profile"
        assert {k: key[k] for k in base if k != "schema"} == \
            {k: v for k, v in base.items() if k != "schema"}
        assert key["profile_format"] == profiler.PROFILE_FORMAT
        assert key["channels"] == 4
        assert key["device"]["name"] == "DDR3"
        json.dumps(key)  # plain values only

    @pytest.mark.parametrize("change", ["input", "n_accesses", "core"])
    def test_changed_inputs_miss(self, streams, profiles_run, monkeypatch,
                                 change):
        profiler.profile_app("mcf", "train", N)
        profiler.profile_app.cache_clear()
        profiler.profile_app("mcf", "train", N)
        assert len(profiles_run) == 1  # the unchanged key hits
        args = ("mcf", "train", N)
        if change == "input":
            args = ("mcf", "ref", N)
        elif change == "n_accesses":
            args = ("mcf", "train", N + 1000)
        else:
            monkeypatch.setattr(profiler, "CoreParams",
                                partial(CoreParams, rob_size=64))
        profiler.profile_app.cache_clear()
        profiler.profile_app(*args)
        assert len(profiles_run) == 2
        assert len(list((streams.directory / "profiles").iterdir())) == 2


class TestBadEntries:
    @pytest.mark.parametrize("damage", ["corrupt", "stale"])
    def test_bad_manifest_recomputes(self, streams, profiles_run, damage,
                                     capsys):
        OBS.reset().enable()
        try:
            computed = profiler.profile_app("mcf", "train", N)
            manifest = _entry(streams) / MANIFEST_NAME
            if damage == "corrupt":
                manifest.write_text("{oops")
            else:
                doc = json.loads(manifest.read_text())
                doc["version"] = profiler.PROFILE_FORMAT + 1
                manifest.write_text(json.dumps(doc))
            profiler.profile_app.cache_clear()
            again = profiler.profile_app("mcf", "train", N)
            counters = dict(OBS.counters)
        finally:
            OBS.reset().disable()
        assert len(profiles_run) == 2
        _assert_same_profile(again, computed)
        assert counters.get(f"profile_store.{damage}") == 1
        assert counters.get("profile_store.store") == 2
        assert manifest.exists()  # republished by the recompute
        warned = "corrupt entry" in capsys.readouterr().err
        assert warned == (damage == "corrupt")

    def test_wrong_document_is_corrupt(self, streams, profiles_run):
        profiler.profile_app("mcf", "train", N)
        manifest = _entry(streams) / MANIFEST_NAME
        doc = json.loads(manifest.read_text())
        doc["lut"]["kind"] = "instrumented-app"
        manifest.write_text(json.dumps(doc))
        profiler.profile_app.cache_clear()
        profiler.profile_app("mcf", "train", N)
        assert len(profiles_run) == 2


def _cli(*args: str) -> None:
    from repro.__main__ import main

    assert main(["run", "mcf", "--system", "Heter-config1", "--policy",
                 "moca", "--accesses", str(N), *args]) == 0


class TestStoreSwitches:
    def test_refresh_bypasses_the_store(self, tmp_path, profiles_run,
                                        capsys):
        _cli("--cache-dir", str(tmp_path))
        manifest = (tmp_path / "streams" / "profiles"
                    / digest(profiler.profile_key("mcf", "train", N))
                    / MANIFEST_NAME)
        assert manifest.exists()
        before = manifest.stat().st_ino
        _clear_memos()
        engine.reset()
        _cli("--cache-dir", str(tmp_path), "--refresh")
        assert len(profiles_run) == 2
        # A refreshing store republishes the entry it recomputed.
        assert manifest.stat().st_ino != before

    def test_no_cache_creates_no_profiles_directory(self, tmp_path,
                                                    isolated_settings,
                                                    profiles_run, capsys):
        isolated_settings.setenv("REPRO_CACHE_DIR", str(tmp_path))
        _cli("--no-cache")
        assert len(profiles_run) == 1
        assert not (tmp_path / "streams").exists()


def _without_meta(metrics) -> dict:
    return {k: v for k, v in metrics.to_dict().items() if k != "meta"}


class TestOnline:
    def test_warm_store_online_unit_synthesizes_nothing(self, streams,
                                                        monkeypatch):
        spec = RunSpec("milc", "Heter-config1", "moca", 12_000,
                       input_name="drift1", online=OnlineSpec())
        cold = run(spec)
        _clear_memos()
        inputs.app_layout.cache_clear()
        _no_synthesis(monkeypatch)
        warm = run(spec)
        assert _without_meta(warm) == _without_meta(cold)
        assert warm.meta["service"] == cold.meta["service"]
