"""Tests for batched unit dispatch (``REPRO_BATCH_UNITS``).

The engine groups first-attempt sweep units into workload-major batches
per future.  These tests pin the contract: rows are byte-identical with
batching on or off, a failed unit inside a batch never takes its
siblings down, survivors checkpoint incrementally (mid-batch resume),
and the sizing heuristics respect their bounds.
"""

import json

import pytest

from repro.experiments import engine
from repro.experiments.resilience import (
    RetryPolicy,
    SweepFailure,
    chaos_probe,
    run_resilient,
)
from repro.sim.spec import RunSpec
from repro.util import settings

# Two units per workload: batching is workload-major, so consecutive
# same-workload units are what actually groups into one future.
SPECS = [RunSpec(app, "Homogen-DDR3", "homogen", n)
         for app in ("mcf", "milc")
         for n in (1_000, 2_000)]

FAST = RetryPolicy(max_attempts=3, backoff_base=0.01, backoff_cap=0.05)


def _echo_runner(spec):
    chaos_probe()
    return spec.workload


@pytest.fixture(autouse=True)
def _isolated(isolated_settings):
    engine.reset()
    yield
    engine.reset()


class TestBatchSizing:
    def test_serial_never_batches(self):
        assert engine._auto_batch_units(100, 1) == 1

    def test_small_sweeps_never_batch(self):
        assert engine._auto_batch_units(2, 2) == 1
        assert engine._auto_batch_units(4, 4) == 1

    def test_default_without_telemetry(self):
        assert engine._auto_batch_units(100, 2) == engine.DEFAULT_BATCH_UNITS

    def test_fair_share_clamp(self):
        # 5 units over 2 workers: ceil(5/2)=3 beats the default of 4.
        assert engine._auto_batch_units(5, 2) == 3

    def test_telemetry_drives_width(self):
        camp = engine.campaign_telemetry()
        camp.units = 10
        camp.wall_ns = int(1.0e9)  # 0.1 s/unit -> 20 wide, clamped to max
        assert engine._auto_batch_units(1000, 2) == engine.MAX_BATCH_UNITS
        camp.wall_ns = int(100.0e9)  # 10 s/unit -> no batching wins
        assert engine._auto_batch_units(1000, 2) == 1

    def test_env_literal_and_clamp(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_UNITS", "3")
        assert engine.batch_units_for(100, 2) == 3
        monkeypatch.setenv("REPRO_BATCH_UNITS", "999")
        assert engine.batch_units_for(100, 2) == engine.MAX_BATCH_UNITS

    def test_env_auto_forms(self, monkeypatch):
        for raw in ("", "0", "auto"):
            monkeypatch.setenv("REPRO_BATCH_UNITS", raw)
            assert engine.batch_units_for(100, 2) == \
                engine.DEFAULT_BATCH_UNITS

    def test_env_malformed_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_UNITS", "frogs")
        assert engine.batch_units_for(100, 2) == engine.DEFAULT_BATCH_UNITS

    def test_configure_dispatch_roundtrip(self, monkeypatch):
        settings.update(batch_units=2)
        assert engine.batch_units_for(100, 2) == 2
        settings.update(batch_units=None)
        assert engine.batch_units_for(100, 2) == engine.DEFAULT_BATCH_UNITS


class TestBatchedRows:
    """Batching is a dispatch optimization — never a results change."""

    def test_batched_rows_byte_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_OVERSUBSCRIBE", "1")

        monkeypatch.setenv("REPRO_BATCH_UNITS", "1")
        plain = engine.execute(SPECS, phase="sweep.test")
        assert engine.dispatch_stats() is None  # nothing batched
        engine.reset()

        monkeypatch.setenv("REPRO_BATCH_UNITS", "2")
        batched = engine.execute(SPECS, phase="sweep.test")
        disp = engine.dispatch_stats()
        assert disp is not None and disp["batched_units"] == len(SPECS)
        assert disp["max_batch_units"] == 2

        for a, b in zip(plain, batched):
            da, db = a.to_dict(), b.to_dict()
            # meta carries provenance wall-clock timestamps, excluded
            # from result identity by design.
            da.pop("meta", None)
            db.pop("meta", None)
            assert json.dumps(da, sort_keys=True) == \
                json.dumps(db, sort_keys=True)

    def test_serial_path_ignores_batching(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_UNITS", "4")
        metrics = engine.execute(SPECS[:2], phase="sweep.test")
        assert all(m.exec_cycles > 0 for m in metrics)
        assert engine.dispatch_stats() is None

    def test_batch_size_lands_in_unit_telemetry(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_OVERSUBSCRIBE", "1")
        monkeypatch.setenv("REPRO_BATCH_UNITS", "2")
        settings.update(telemetry=True)
        engine.execute(SPECS, phase="sweep.test")
        counters = engine.campaign_telemetry().counters
        assert counters.get("dispatch.batched_units", 0) == len(SPECS)


class TestBatchFaultIsolation:
    def test_failed_unit_spares_batch_siblings(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        (tmp_path / "error").write_text("1")
        report = run_resilient(SPECS, workers=2, policy=FAST,
                               runner=_echo_runner, batch_units=4)
        assert report.ok
        assert report.retries == 1  # only the chaos victim re-ran
        assert sorted(report.results) == sorted(s.workload for s in SPECS)

    def test_terminal_failure_in_batch_is_isolated(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        (tmp_path / "error").write_text("99")
        policy = RetryPolicy(max_attempts=2, backoff_base=0.01,
                             backoff_cap=0.05)
        report = run_resilient(SPECS, workers=2, policy=policy,
                               runner=_echo_runner, batch_units=4)
        assert not report.ok
        # Chaos keeps erroring, so every unit eventually fails — but each
        # is charged individually, with full attempt accounting.
        for failure in report.failures:
            assert failure.attempts == policy.max_attempts
        done = [r for r in report.results if r is not None]
        assert len(done) + len(report.failures) == len(SPECS)

    def test_worker_crash_charges_whole_batch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        (tmp_path / "crash").write_text("1")
        report = run_resilient(SPECS, workers=2, policy=FAST,
                               runner=_echo_runner, batch_units=2)
        assert report.ok
        assert report.pool_breaks == 1
        assert sorted(report.results) == sorted(s.workload for s in SPECS)


class TestMidBatchResume:
    def test_survivors_checkpoint_and_resume(self, tmp_path, monkeypatch):
        """A campaign killed mid-batch re-simulates only the loser."""
        cache_dir = tmp_path / "cache"
        chaos = tmp_path / "chaos"
        chaos.mkdir()
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(chaos))
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_OVERSUBSCRIBE", "1")
        monkeypatch.setenv("REPRO_BATCH_UNITS", "2")
        (chaos / "error").write_text("1")
        engine.configure(cache_dir)
        settings.update(retry=RetryPolicy(
            max_attempts=1, backoff_base=0.01, backoff_cap=0.05))
        with pytest.raises(SweepFailure) as excinfo:
            engine.execute(SPECS, phase="sweep.test")
        assert len(excinfo.value.failures) == 1
        # Batch siblings landed in the cache despite the terminal loss.
        assert engine.cache_stats()["stores"] == len(SPECS) - 1

        engine.reset()
        engine.configure(cache_dir)
        settings.update(retry=FAST)
        metrics = engine.execute(SPECS, phase="sweep.test")
        assert all(m is not None and m.exec_cycles > 0 for m in metrics)
        stats = engine.cache_stats()
        assert stats["hits"] == len(SPECS) - 1  # only the loser re-ran
        assert stats["stores"] == 1
