"""Tests for the campaign settings value (``repro.util.settings``).

Parsing (defaults, malformed values, the empty-directory rules), the
install/update/reset lifecycle, the stores that follow ``cache_dir``,
and the hand-off to sweep workers: a campaign configured in the parent
reaches its workers as a pool-initializer argument — under fork and
forkserver alike — and never touches ``os.environ``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import engine, resilience
from repro.sim.single import filtered_stream
from repro.sim.spec import RunSpec
from repro.trace import chunked
from repro.util import settings
from repro.util.settings import RetryPolicy, Settings

from conftest import repro_free_env

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: Four workloads, so each worker filters (and stores) its own streams.
SPECS = [RunSpec(app, "Homogen-DDR3", "homogen", 1_500)
         for app in ("mcf", "milc", "gcc", "lbm")]


@pytest.fixture(autouse=True)
def _isolated(isolated_settings):
    engine.reset()
    yield
    engine.reset()


class TestParse:
    def test_defaults(self):
        s = Settings.from_env({})
        assert s == Settings()
        assert s.workers == 1 and s.batch_units is None
        assert s.retry == RetryPolicy()
        assert not (s.refresh or s.telemetry or s.profile)

    def test_retry_from_env(self):
        p = Settings.from_env({"REPRO_UNIT_TIMEOUT": "2.5",
                               "REPRO_MAX_ATTEMPTS": "7"}).retry
        assert p.unit_timeout == 2.5
        assert p.max_attempts == 7

    def test_retry_from_env_malformed_falls_back(self):
        p = Settings.from_env({"REPRO_UNIT_TIMEOUT": "soon",
                               "REPRO_MAX_ATTEMPTS": "many"}).retry
        assert p.unit_timeout is None
        assert p.max_attempts == 3

    def test_workers_garbage_warns_and_defaults(self, capsys):
        from repro.obs.registry import OBS
        OBS.reset()  # clear warn-once memory from other tests
        assert Settings.from_env({"REPRO_WORKERS": "garbage"}).workers == 1
        assert Settings.from_env({"REPRO_WORKERS": "garbage"}).workers == 1
        assert Settings.from_env({"REPRO_WORKERS": "0"}).workers == 1
        err = capsys.readouterr().err
        assert err.count("REPRO_WORKERS='garbage'") == 1

    def test_batch_units_forms(self):
        for raw in ("", "0", "auto", "frogs"):
            env = {"REPRO_BATCH_UNITS": raw}
            assert Settings.from_env(env).batch_units is None
        assert Settings.from_env({"REPRO_BATCH_UNITS": "3"}).batch_units == 3

    def test_empty_directories(self):
        s = Settings.from_env({"REPRO_CACHE_DIR": "",
                               "REPRO_STREAM_STORE_DIR": "",
                               "REPRO_CHAOS_DIR": ""})
        assert s.cache_dir is None and s.chaos_dir is None
        assert s.stream_store_dir == ""  # explicitly no stream store
        assert s.trace_store_dir is None  # unset: follows cache_dir


class TestLifecycle:
    def test_current_reads_environment_each_call(self, monkeypatch):
        assert settings.current().workers == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert settings.current().workers == 3

    def test_update_installs_copy_and_reset_uninstalls(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        s = settings.update(telemetry=True)
        assert settings.current() is s
        assert s.workers == 3 and s.telemetry
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert settings.current().workers == 3  # installed value wins
        settings.reset()
        assert settings.current().workers == 5
        assert not settings.current().telemetry

    def test_engine_reset_uninstalls(self, tmp_path):
        engine.configure(tmp_path)
        assert settings.current().cache_dir == str(tmp_path)
        engine.reset()
        assert settings.current() == Settings()


class TestTraceStoreFollowsCache:
    def test_cache_dir_roots_traces(self, tmp_path):
        engine.configure(tmp_path)
        assert chunked.active().directory == tmp_path / "traces"

    def test_trace_store_dir_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_STORE_DIR", str(tmp_path / "t"))
        engine.configure(tmp_path / "cache")
        assert chunked.active().directory == tmp_path / "t"

    def test_no_cache_selects_tempdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert chunked.active().directory == tmp_path / "traces"
        engine.configure(None)
        directory = chunked.active().directory
        assert directory.name.startswith("repro-traces-")
        assert tmp_path not in directory.parents


def _report_settings(spec: RunSpec) -> tuple[int, Settings]:
    """Pool runner: this worker's pid and installed settings.

    Each call first waits (up to a minute) until two workers have
    checked in under ``<cache_dir>/meet``, so one worker cannot take
    every unit while the other is still starting.
    """
    received = settings.current()
    meet = Path(received.cache_dir) / "meet"
    meet.mkdir(parents=True, exist_ok=True)
    (meet / str(os.getpid())).touch()
    deadline = time.monotonic() + 60
    while len(list(meet.iterdir())) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    return os.getpid(), received


def handoff(cache: str) -> dict:
    """Run :data:`SPECS` as a refresh + telemetry campaign on ``cache``,
    then ask both workers of a fresh pool which settings they received.

    The caller sets ``REPRO_WORKERS``/``REPRO_OVERSUBSCRIBE``.  Returns
    what the test checks: whether ``os.environ`` changed, the pids of
    the workers that ran units, the campaign counters they shipped back,
    and per worker whether its settings equal the parent's.
    """
    filtered_stream.cache_clear()  # forked workers must not inherit it
    before = dict(os.environ)
    engine.configure(cache, refresh=True)
    settings.update(telemetry=True)
    try:
        engine.execute(SPECS, phase="handoff")
        ct = engine.campaign_telemetry()
        probe = resilience.run_resilient(SPECS, workers=2,
                                         runner=_report_settings)
        return {"env_unchanged": dict(os.environ) == before,
                "parent": os.getpid(), "units": ct.units,
                "workers": sorted(int(pid) for pid in ct.workers),
                "received": {str(pid): got == settings.current()
                             for pid, got in probe.results},
                "counters": ct.counters,
                "entries": len(list((Path(cache) / "streams").iterdir()))}
    finally:
        engine.reset()


def _check_handoff(out: dict) -> None:
    assert out["env_unchanged"]
    assert out["units"] == len(SPECS)
    # Which worker ran the units is up to the pool; every worker of the
    # probe pool must hold the parent's settings.
    assert 1 <= len(out["workers"]) <= 2
    assert out["parent"] not in out["workers"]
    assert len(out["received"]) == 2
    assert str(out["parent"]) not in out["received"]
    assert all(out["received"].values()), out["received"]
    # Every worker filtered into <cache>/streams, bypassing reads
    # because --refresh travelled with the settings.
    counters = out["counters"]
    assert counters.get("stream_store.refresh_bypass") == len(SPECS)
    assert counters.get("stream_store.store") == len(SPECS)
    assert out["entries"] == len(SPECS)


_FORKSERVER_CHILD = """
import json, multiprocessing, sys
sys.path[:0] = ["src", "tests"]
multiprocessing.set_start_method("forkserver")
import test_settings
print(json.dumps(test_settings.handoff(sys.argv[1])))
"""


class TestWorkerHandOff:
    def test_workers_get_settings_without_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_OVERSUBSCRIBE", "1")
        _check_handoff(handoff(str(tmp_path / "cache")))

    def test_forkserver_workers_get_settings(self, tmp_path):
        env = repro_free_env(PYTHONPATH="src", REPRO_WORKERS="2",
                             REPRO_OVERSUBSCRIBE="1")
        proc = subprocess.run(
            [sys.executable, "-c", _FORKSERVER_CHILD, str(tmp_path / "c")],
            capture_output=True, text=True, env=env, cwd=REPO, timeout=300)
        assert proc.returncode == 0, proc.stderr
        _check_handoff(json.loads(proc.stdout.splitlines()[-1]))


class TestOneReader:
    def test_every_knob_is_in_the_table(self):
        names = set()
        for path in SRC.rglob("*.py"):
            names |= set(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
        assert names == set(settings.ENV)

    def test_only_settings_touches_environ(self):
        offenders = []
        for path in SRC.rglob("*.py"):
            rel = path.relative_to(SRC).as_posix()
            if rel == "util/settings.py":
                continue
            for n, line in enumerate(path.read_text().splitlines(), 1):
                if not re.search(r"\benviron\b|getenv|putenv", line):
                    continue
                if rel == "obs/dashboard.py" and '"TERM"' in line:
                    continue
                offenders.append(f"{rel}:{n}: {line.strip()}")
        assert offenders == []
