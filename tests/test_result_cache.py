"""Tests for the persistent result cache and the sweep engine.

Covers the on-disk entry lifecycle (hit/miss; the corrupt, stale and
refresh paths are ``tests/test_castore.py``'s, shared by all stores),
the engine's cache wiring and precedence rules, lossless
``RunMetrics`` round-trips (including a hypothesis property test),
cross-process reuse through the CLI, and the cold-vs-warm campaign
equivalence the cache exists to provide.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.core import CoreResult
from repro.experiments import engine
from repro.experiments.cache import CACHE_VERSION, ResultCache
from repro.obs.registry import OBS
from repro.sim.metrics import RunMetrics
from repro.sim.spec import RunSpec, run
from repro.util.castore import StoreStats

N = 8_000

SPEC = RunSpec("sift", "Homogen-DDR3", "homogen", N)
SPEC2 = RunSpec("sift", "Homogen-HBM", "homogen", N)


@pytest.fixture(scope="module")
def metrics() -> RunMetrics:
    """One real (small) run shared by the whole module."""
    return run(SPEC)


@pytest.fixture(autouse=True)
def _engine_isolated(monkeypatch):
    """Every test starts with no configured cache and no env fallback."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    engine.reset()
    yield
    engine.reset()


class TestResultCache:
    def test_miss_on_empty(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(SPEC) is None
        assert cache.stats.misses == 1
        assert len(cache) == 0

    def test_put_get_roundtrip(self, tmp_path, metrics):
        cache = ResultCache(tmp_path)
        path = cache.put(SPEC, metrics)
        assert path.name == "manifest.json"
        assert path.parent.name == SPEC.key()
        restored = cache.get(SPEC)
        assert restored == metrics
        assert restored.per_core == metrics.per_core
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_entry_records_spec_and_version(self, tmp_path, metrics):
        cache = ResultCache(tmp_path)
        doc = json.loads(cache.put(SPEC, metrics).read_text())
        assert doc["version"] == CACHE_VERSION
        assert doc["spec"] == SPEC.canonical()
        assert "repro_version" in doc

    def test_cross_instance_reuse(self, tmp_path, metrics):
        ResultCache(tmp_path).put(SPEC, metrics)
        assert ResultCache(tmp_path).get(SPEC) == metrics

    def test_hit_ratio(self):
        stats = StoreStats(hits=3, misses=1)
        assert stats.hit_ratio == 0.75
        assert StoreStats().hit_ratio == 0.0
        assert stats.to_dict()["hit_ratio"] == 0.75


class TestMemoLayer:
    """The resident cache fronting the disk entries: repeat lookups
    skip read+parse, the stat signature keeps sibling processes honest,
    and a new (e.g. ``--refresh``) cache instance starts without it."""

    @pytest.fixture(autouse=True)
    def _obs(self):
        OBS.reset().enable()
        yield
        OBS.reset().disable()

    def test_repeat_get_served_from_memo(self, tmp_path, metrics):
        cache = ResultCache(tmp_path)
        cache.put(SPEC, metrics)  # put seeds the memo
        assert cache.get(SPEC) == metrics
        assert OBS.counters.get("cache.resident_hit") == 1
        assert OBS.counters.get("data_plane.copies_avoided") == 1
        assert cache.stats.hits == 1  # memo hits are still cache hits

    def test_memo_keyed_by_directory(self, tmp_path, metrics):
        ResultCache(tmp_path / "a").put(SPEC, metrics)
        # Same spec, different cache root: the resident entry for "a"
        # must not leak into "b".
        assert ResultCache(tmp_path / "b").get(SPEC) is None

    def test_external_overwrite_invalidates_memo(self, tmp_path, metrics):
        cache = ResultCache(tmp_path)
        path = cache.put(SPEC, metrics)
        # A sibling process replaces the entry: new bytes, new stat
        # signature — our resident entry must be bypassed for disk.
        doc = json.loads(path.read_text())
        doc["metrics"]["exec_cycles"] = doc["metrics"]["exec_cycles"] + 1
        path.write_text(json.dumps(doc))
        got = cache.get(SPEC)
        assert got.exec_cycles == metrics.exec_cycles + 1
        assert "cache.resident_hit" not in OBS.counters

    def test_vanished_file_misses_despite_memo(self, tmp_path, metrics):
        cache = ResultCache(tmp_path)
        cache.put(SPEC, metrics).unlink()
        assert cache.get(SPEC) is None
        assert cache.stats.misses == 1
        assert "cache.resident_hit" not in OBS.counters

    def test_refresh_clears_memo(self, tmp_path, metrics):
        ResultCache(tmp_path).put(SPEC, metrics)
        assert ResultCache(tmp_path, refresh=True).get(SPEC) is None
        assert ResultCache(tmp_path).get(SPEC) == metrics  # via disk
        assert "cache.resident_hit" not in OBS.counters


class TestMetricsRoundTrip:
    def test_real_run_roundtrip_is_equal(self, metrics):
        clone = RunMetrics.from_dict(
            json.loads(json.dumps(metrics.to_dict())))
        assert clone == metrics
        assert clone.per_core == metrics.per_core
        assert clone.memory_edp == metrics.memory_edp

    def test_derived_keys_ignored_on_load(self, metrics):
        doc = metrics.to_dict()
        doc["memory_edp"] = -1.0  # hand-edited artefact lies
        assert RunMetrics.from_dict(doc).memory_edp == metrics.memory_edp

    @settings(max_examples=50, deadline=None)
    @given(
        exec_cycles=st.integers(1, 2**50),
        mem_access_cycles=st.integers(0, 2**50),
        mem_power_w=st.floats(0, 1e3, allow_nan=False),
        mem_energy_j=st.floats(0, 1e3, allow_nan=False),
        row_hit_rate=st.floats(0, 1),
        per_obj=st.dictionaries(st.integers(0, 2**20),
                                st.integers(0, 2**40), max_size=4),
    )
    def test_property_roundtrip(self, exec_cycles, mem_access_cycles,
                                mem_power_w, mem_energy_j, row_hit_rate,
                                per_obj):
        """to_dict -> json -> from_dict is the identity on stored fields,
        including exact float values and int-keyed per-object maps."""
        core = CoreResult(
            core_id=0, cycles=exec_cycles, total_instructions=123,
            n_demand=7, n_load_misses=5, n_writebacks=1, n_episodes=3,
            mem_access_cycles=mem_access_cycles,
            load_stall_cycles=11, stall_by_obj=dict(per_obj),
            load_misses_by_obj=dict(per_obj), demand_by_obj=dict(per_obj))
        m = RunMetrics(
            system="s", policy="p", workload="w", n_cores=1,
            exec_cycles=exec_cycles, mem_access_cycles=mem_access_cycles,
            mem_power_w=mem_power_w, mem_energy_j=mem_energy_j,
            total_instructions=123, n_requests=7,
            row_hit_rate=row_hit_rate, load_stall_cycles=11,
            n_load_misses=5, latency_p50=1, latency_p95=2, latency_p99=4,
            per_core=(core,))
        clone = RunMetrics.from_dict(json.loads(json.dumps(m.to_dict())))
        assert clone == m
        assert clone.per_core[0].stall_by_obj == per_obj


class TestEngineWiring:
    def test_no_cache_by_default(self):
        assert engine.active_cache() is None
        assert engine.cache_stats() is None

    def test_env_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = engine.active_cache()
        assert cache is not None and cache.directory == tmp_path

    def test_configure_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        engine.configure(tmp_path / "explicit")
        assert engine.active_cache().directory == tmp_path / "explicit"
        engine.configure(None)  # --no-cache beats the env too
        assert engine.active_cache() is None

    def test_execute_misses_then_hits(self, tmp_path):
        engine.configure(tmp_path)
        cold = engine.execute([SPEC, SPEC2], phase="t")
        warm = engine.execute([SPEC, SPEC2], phase="t")
        assert cold == warm
        stats = engine.cache_stats()
        assert stats["misses"] == 2 and stats["hits"] == 2
        assert stats["hit_ratio"] == 0.5
        assert engine.sweep_seconds()["t"] > 0

    def test_run_cached(self, tmp_path, metrics):
        engine.configure(tmp_path)
        assert engine.run_cached(SPEC) == metrics
        assert engine.run_cached(SPEC) == metrics
        assert engine.cache_stats()["hits"] == 1

    def test_uncached_execute_still_works(self, metrics):
        assert engine.execute([SPEC]) == [metrics]

    def test_parallel_engine_matches_serial(self, monkeypatch, tmp_path):
        specs = [RunSpec("sift", c, p, 6_000) for c, p in
                 (("Homogen-DDR3", "homogen"), ("Homogen-HBM", "homogen"),
                  ("Heter-config1", "heter-app"), ("Heter-config1", "moca"))]
        serial = engine.execute(specs)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        # Exercise the real pool even on a single-CPU machine.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        engine.configure(tmp_path)  # parallel pass also fills the cache
        parallel = engine.execute(specs)
        assert serial == parallel
        assert engine.cache_stats()["stores"] == len(specs)

    def test_oversubscription_capped_to_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "64")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert engine._effective_workers(60) == 2
        assert engine._effective_workers(1) == 1  # never more than work


class TestCrossProcessReuse:
    def test_two_cli_processes_share_one_cache(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": "src"}
        cmd = [sys.executable, "-m", "repro", "run", "sift",
               "--system", "Homogen-DDR3", "--policy", "homogen",
               "--accesses", "6000", "--cache-dir", str(tmp_path)]
        first = subprocess.run(cmd, capture_output=True, text=True,
                               env=env, cwd=Path(__file__).parent.parent)
        second = subprocess.run(cmd, capture_output=True, text=True,
                                env=env, cwd=Path(__file__).parent.parent)
        assert first.returncode == 0 and second.returncode == 0
        assert "0 hits, 1 misses" in first.stderr
        assert "1 hits, 0 misses" in second.stderr
        assert first.stdout.splitlines()[:6] == second.stdout.splitlines()[:6]


class TestCampaignEquivalence:
    def test_warm_campaign_reproduces_cold_rows(self, tmp_path, capsys):
        """A repeat campaign must simulate nothing (hit ratio 1.0) and
        write byte-identical figure rows."""
        from repro.experiments import runner
        from repro.experiments.__main__ import main

        cache_dir = tmp_path / "cache"
        cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
        args = ["fig08", "fig09", "--fidelity", "tiny",
                "--cache-dir", str(cache_dir)]
        runner.single_sweep.cache_clear()
        assert main(args + ["--save", str(cold_dir)]) == 0
        # Drop the in-process memoization so the second pass must go
        # back through the engine (and therefore the disk cache).
        runner.single_sweep.cache_clear()
        assert main(args + ["--save", str(warm_dir)]) == 0
        capsys.readouterr()

        cold = json.loads((cold_dir / "manifest.json").read_text())
        warm = json.loads((warm_dir / "manifest.json").read_text())
        assert cold["cache"]["misses"] == 60  # 10 apps x 6 systems
        assert cold["cache"]["stores"] == 60
        assert cold["cache"]["hit_ratio"] == 0.0
        assert warm["cache"]["hits"] == 60
        assert warm["cache"]["misses"] == 0
        assert warm["cache"]["hit_ratio"] == 1.0
        assert "sweep.single" in cold["sweep_seconds"]

        for fig_id in ("fig08", "fig09"):
            a = json.loads((cold_dir / f"{fig_id}.json").read_text())
            b = json.loads((warm_dir / f"{fig_id}.json").read_text())
            assert a["columns"] == b["columns"]
            assert a["rows"] == b["rows"]
        runner.single_sweep.cache_clear()
