"""Tests for the resilient sweep harness (``repro.experiments.resilience``).

Worker crashes, hung units, transient errors, pool rebuilds, the
degraded-serial fallback, and the campaign checkpoint journal.  Fault
injection uses the ``REPRO_CHAOS_DIR`` hook: marker files make the next
unit(s) crash the worker (``os._exit``), hang, or raise.
"""

import json

import pytest

from repro.experiments import engine
from repro.experiments.resilience import (
    CampaignJournal,
    ChaosError,
    ExecutionReport,
    JOURNAL_VERSION,
    RetryPolicy,
    SweepFailure,
    UnitFailure,
    backoff_delay,
    chaos_probe,
    run_resilient,
)
from repro.obs.registry import OBS
from repro.sim.spec import RunSpec
from repro.util import settings

#: Tiny but real specs — run_resilient only needs key()/describe() and,
#: for the chaos runner below, something cheap to "simulate".
SPECS = [RunSpec(app, "Homogen-DDR3", "homogen", 1_000)
         for app in ("mcf", "milc", "gcc", "lbm")]

#: Fast-retry policy so fault tests don't sit in backoff sleeps.
FAST = RetryPolicy(max_attempts=3, backoff_base=0.01, backoff_cap=0.05)


def _echo_runner(spec):
    """Picklable stand-in for the engine's worker entry."""
    chaos_probe()
    return spec.workload


@pytest.fixture(autouse=True)
def _isolated(isolated_settings):
    engine.reset()
    yield
    engine.reset()


class TestRetryPolicy:
    def test_defaults(self):
        p = RetryPolicy()
        assert p.unit_timeout is None
        assert p.max_attempts == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(unit_timeout=0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(max_pool_breaks=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1)


class TestBackoff:
    def test_deterministic(self):
        p = RetryPolicy()
        assert backoff_delay("k", 1, p) == backoff_delay("k", 1, p)
        assert backoff_delay("k", 1, p) != backoff_delay("k2", 1, p)

    def test_bounds_and_growth(self):
        p = RetryPolicy(backoff_base=0.1, backoff_cap=5.0)
        delays = [backoff_delay("key", a, p) for a in range(1, 12)]
        assert all(0.05 <= d <= 5.0 for d in delays)
        assert delays[-1] == pytest.approx(
            backoff_delay("key", 11, p))  # capped region is stable
        assert max(delays) > delays[0]


class TestSerialExecution:
    def test_all_succeed(self):
        report = run_resilient(SPECS, workers=1, policy=FAST,
                               runner=_echo_runner)
        assert report.ok
        assert report.results == [s.workload for s in SPECS]
        assert report.retries == 0

    def test_transient_errors_are_retried(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        (tmp_path / "error").write_text("2")
        report = run_resilient(SPECS, workers=1, policy=FAST,
                               runner=_echo_runner)
        assert report.ok
        assert report.retries == 2
        assert report.results == [s.workload for s in SPECS]

    def test_persistent_error_fails_terminally(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        (tmp_path / "error").write_text("99")
        report = run_resilient(SPECS[:2], workers=1, policy=FAST,
                               runner=_echo_runner)
        assert not report.ok
        assert len(report.failures) == 2
        for failure in report.failures:
            assert failure.attempts == FAST.max_attempts
            assert "ChaosError" in failure.error
            assert not failure.timed_out
        assert report.results == [None, None]

    def test_report_to_dict(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        (tmp_path / "error").write_text("99")
        report = run_resilient(SPECS[:1], workers=1, policy=FAST,
                               runner=_echo_runner)
        doc = report.to_dict()
        assert doc["units"] == 1
        assert doc["degraded_serial"] is False
        assert doc["failed_units"][0]["attempts"] == 3
        assert doc["failed_units"][0]["unit"] == SPECS[0].describe()


class TestPoolRecovery:
    def test_worker_crash_rebuilds_pool(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        (tmp_path / "crash").write_text("1")
        report = run_resilient(SPECS, workers=2, policy=FAST,
                               runner=_echo_runner)
        assert report.ok
        assert report.pool_breaks == 1
        assert report.retries >= 1
        assert sorted(report.results) == sorted(s.workload for s in SPECS)
        assert not report.degraded_serial

    def test_retry_counter_matches_report(self, tmp_path, monkeypatch):
        """A pool break's retries are counted like any other retry."""
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        (tmp_path / "crash").write_text("1")
        OBS.reset().enable()
        try:
            report = run_resilient(SPECS, workers=2, policy=FAST,
                                   runner=_echo_runner)
            assert report.ok and report.pool_breaks == 1
            assert report.retries >= 1
            assert OBS.counters.get("resilience.retry", 0) == report.retries
        finally:
            OBS.reset().disable()

    def test_hung_unit_is_killed_and_charged(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        (tmp_path / "hang").write_text("1 60")
        policy = RetryPolicy(unit_timeout=2.0, max_attempts=3,
                             backoff_base=0.01, backoff_cap=0.05)
        report = run_resilient(SPECS, workers=2, policy=policy,
                               runner=_echo_runner)
        assert report.ok
        assert report.timeouts == 1
        assert report.pool_breaks >= 1
        assert sorted(report.results) == sorted(s.workload for s in SPECS)

    def test_repeated_breaks_degrade_to_serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        # Exactly max_pool_breaks crashes: the pool breaks twice in a
        # row, the harness gives up on process isolation, and the serial
        # fallback (chaos budget now spent) finishes the batch.
        (tmp_path / "crash").write_text("2")
        policy = RetryPolicy(max_attempts=5, max_pool_breaks=2,
                             backoff_base=0.01, backoff_cap=0.05)
        report = run_resilient(SPECS[:1], workers=2, policy=policy,
                               runner=_echo_runner)
        assert report.ok
        assert report.degraded_serial
        assert report.pool_breaks == 2
        assert report.results == [SPECS[0].workload]


class TestEngineIntegration:
    def test_execute_survives_transient_errors(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        (tmp_path / "error").write_text("2")
        settings.update(retry=FAST)
        metrics = engine.execute(SPECS, phase="sweep.test")
        assert all(m is not None and m.exec_cycles > 0 for m in metrics)
        stats = engine.resilience_stats()
        assert stats["retries"] == 2
        assert stats["failed_units"] == []

    def test_execute_raises_sweep_failure_with_details(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        (tmp_path / "error").write_text("99")
        settings.update(retry=FAST)
        with pytest.raises(SweepFailure) as excinfo:
            engine.execute(SPECS[:2], phase="sweep.test")
        assert len(excinfo.value.failures) == 2
        assert excinfo.value.phase == "sweep.test"
        stats = engine.resilience_stats()
        assert len(stats["failed_units"]) == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_successes_are_cached_despite_failures(
            self, tmp_path, monkeypatch, workers):
        cache_dir = tmp_path / "cache"
        chaos = tmp_path / "chaos"
        chaos.mkdir()
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(chaos))
        monkeypatch.setenv("REPRO_WORKERS", str(workers))
        if workers > 1:
            # Real worker processes even on a one-CPU machine.
            monkeypatch.setenv("REPRO_OVERSUBSCRIBE", "1")
        # One unit fails terminally (single attempt, one injected
        # error); siblings succeed and must land in the cache anyway.
        (chaos / "error").write_text("1")
        engine.configure(cache_dir)
        settings.update(retry=RetryPolicy(
            max_attempts=1, backoff_base=0.01, backoff_cap=0.05))
        with pytest.raises(SweepFailure) as excinfo:
            engine.execute(SPECS, phase="sweep.test")
        assert len(excinfo.value.failures) == 1
        assert engine.cache_stats()["stores"] == len(SPECS) - 1

        # A rerun re-simulates only the loser.
        engine.reset()
        engine.configure(cache_dir)
        settings.update(retry=FAST)
        metrics = engine.execute(SPECS, phase="sweep.test")
        assert all(m is not None and m.exec_cycles > 0 for m in metrics)
        stats = engine.cache_stats()
        assert stats["hits"] == len(SPECS) - 1
        assert stats["stores"] == 1

    def test_configure_resilience_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_ATTEMPTS", "9")
        assert settings.current().retry.max_attempts == 9
        settings.update(retry=RetryPolicy(max_attempts=2))
        assert settings.current().retry.max_attempts == 2


class TestCampaignJournal:
    def test_mark_and_resume(self, tmp_path):
        path = tmp_path / ".campaign.json"
        journal = CampaignJournal(path, fidelity="tiny")
        assert not journal.is_done("fig08")
        journal.mark("fig08", "done", seconds=1.5)
        journal.mark("fig09", "failed", error="boom")

        resumed = CampaignJournal(path, fidelity="tiny")
        assert resumed.is_done("fig08")
        assert not resumed.is_done("fig09")
        assert resumed.status("fig09") == {"status": "failed",
                                           "error": "boom"}
        assert set(resumed.figures()) == {"fig08", "fig09"}

    def test_fidelity_mismatch_discards(self, tmp_path):
        path = tmp_path / ".campaign.json"
        CampaignJournal(path, fidelity="tiny").mark("fig08", "done")
        other = CampaignJournal(path, fidelity="default")
        assert not other.is_done("fig08")

    def test_corrupt_journal_resets(self, tmp_path):
        path = tmp_path / ".campaign.json"
        path.write_text("{not json")
        journal = CampaignJournal(path, fidelity="tiny")
        assert journal.figures() == {}
        journal.mark("fig08", "done")
        assert json.loads(path.read_text())["version"] == JOURNAL_VERSION

    def test_clear(self, tmp_path):
        path = tmp_path / ".campaign.json"
        journal = CampaignJournal(path, fidelity="tiny")
        journal.mark("fig08", "done")
        journal.clear()
        assert not CampaignJournal(path, fidelity="tiny").is_done("fig08")

    def test_write_is_atomic(self, tmp_path):
        path = tmp_path / ".campaign.json"
        journal = CampaignJournal(path, fidelity="tiny")
        journal.mark("fig08", "done")
        # No temp debris left behind, and the file is valid JSON.
        assert [p.name for p in tmp_path.iterdir()] == [".campaign.json"]
        assert json.loads(path.read_text())["fidelity"] == "tiny"


class TestChaosProbe:
    def test_noop_without_env(self):
        chaos_probe()  # must not raise

    def test_error_budget_is_shared(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        (tmp_path / "error").write_text("2")
        for _ in range(2):
            with pytest.raises(ChaosError):
                chaos_probe()
        chaos_probe()  # budget spent; back to a no-op

    def test_unit_failure_roundtrip(self):
        f = UnitFailure(index=3, key="k", label="mcf", attempts=2,
                        error="boom", timed_out=True)
        assert f.to_dict() == {"key": "k", "unit": "mcf", "attempts": 2,
                               "error": "boom", "timed_out": True}

    def test_empty_report_is_ok(self):
        assert ExecutionReport().ok
