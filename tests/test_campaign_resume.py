"""Campaign-level chaos tests: crash, kill, resume, keep-going.

Everything here drives the real CLI (``python -m repro.experiments``) in
subprocesses, the way a user would, and checks the two promises of the
resilience layer: the campaign *completes* despite injected faults, and
a resumed/faulted campaign produces figure rows identical to an
undisturbed run.

The figure of choice is ``smoke`` — six independent sweep units, cheap
enough to run cold in a subprocess, parallel enough to exercise the
worker pool.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import repro_free_env

REPO = Path(__file__).parent.parent


def campaign_cmd(save: Path, cache: Path, *extra: str) -> list[str]:
    return [sys.executable, "-m", "repro.experiments", "smoke",
            "--fidelity", "tiny", "--save", str(save),
            "--cache-dir", str(cache), *extra]


def campaign_env(**overrides: str) -> dict:
    return repro_free_env(PYTHONPATH="src", **overrides)


@pytest.fixture(scope="module")
def reference_rows(tmp_path_factory) -> list:
    """Figure rows from one undisturbed campaign — the ground truth."""
    base = tmp_path_factory.mktemp("reference")
    proc = subprocess.run(
        campaign_cmd(base / "save", base / "cache"),
        capture_output=True, text=True, env=campaign_env(), cwd=REPO,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads((base / "save" / "smoke.json").read_text())["rows"]


class TestWorkerCrash:
    def test_crashed_worker_campaign_completes_identically(
            self, tmp_path, reference_rows):
        """SIGKILL-equivalent worker death (``os._exit`` mid-unit): the
        pool is rebuilt, the unit retried, and the figure's rows match
        the undisturbed run bit for bit."""
        chaos = tmp_path / "chaos"
        chaos.mkdir()
        (chaos / "crash").write_text("1")
        proc = subprocess.run(
            campaign_cmd(tmp_path / "save", tmp_path / "cache"),
            capture_output=True, text=True, cwd=REPO, timeout=300,
            env=campaign_env(REPRO_CHAOS_DIR=str(chaos),
                             REPRO_WORKERS="2", REPRO_OVERSUBSCRIBE="1"))
        assert proc.returncode == 0, proc.stderr

        manifest = json.loads(
            (tmp_path / "save" / "manifest.json").read_text())
        assert manifest["resilience"]["pool_breaks"] >= 1
        assert manifest["resilience"]["retries"] >= 1
        assert manifest["resilience"]["failed_units"] == []
        assert manifest["figure_status"]["smoke"]["status"] == "ok"

        rows = json.loads(
            (tmp_path / "save" / "smoke.json").read_text())["rows"]
        assert rows == reference_rows

    def test_hung_unit_campaign_completes_identically(
            self, tmp_path, reference_rows):
        """One unit sleeps far past the unit timeout; the harness kills
        the pool, charges the hang, and still delivers correct rows."""
        chaos = tmp_path / "chaos"
        chaos.mkdir()
        (chaos / "hang").write_text("1 120")
        proc = subprocess.run(
            campaign_cmd(tmp_path / "save", tmp_path / "cache",
                         "--unit-timeout", "3"),
            capture_output=True, text=True, cwd=REPO, timeout=300,
            env=campaign_env(REPRO_CHAOS_DIR=str(chaos),
                             REPRO_WORKERS="2", REPRO_OVERSUBSCRIBE="1"))
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads(
            (tmp_path / "save" / "manifest.json").read_text())
        assert manifest["resilience"]["timeouts"] >= 1
        rows = json.loads(
            (tmp_path / "save" / "smoke.json").read_text())["rows"]
        assert rows == reference_rows


class TestKilledCampaign:
    def test_sigkilled_campaign_resumes_identically(
            self, tmp_path, reference_rows):
        """SIGKILL the whole campaign mid-sweep; re-running the same
        command finishes from the result cache + checkpoint journal and
        produces the same figure rows as a never-interrupted run."""
        save, cache = tmp_path / "save", tmp_path / "cache"
        cmd = campaign_cmd(save, cache)
        env = campaign_env()
        proc = subprocess.Popen(cmd, cwd=REPO, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            # Wait for evidence of progress (first cached result), then
            # kill without warning.  If the campaign happens to win the
            # race and finish, the rerun is a pure-resume check instead —
            # still a valid outcome, just a less interesting one.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if cache.exists() and any(cache.glob("*/manifest.json")):
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.005)
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait(timeout=60)

        rerun = subprocess.run(cmd, capture_output=True, text=True,
                               cwd=REPO, env=env, timeout=300)
        assert rerun.returncode == 0, rerun.stderr
        rows = json.loads((save / "smoke.json").read_text())["rows"]
        assert rows == reference_rows
        manifest = json.loads((save / "manifest.json").read_text())
        assert manifest["figure_status"]["smoke"]["status"] in ("ok",
                                                               "resumed")

    def test_completed_figure_resumes_from_journal(self, tmp_path):
        save, cache = tmp_path / "save", tmp_path / "cache"
        env = campaign_env()
        first = subprocess.run(campaign_cmd(save, cache),
                               capture_output=True, text=True, cwd=REPO,
                               env=env, timeout=300)
        assert first.returncode == 0, first.stderr
        assert (save / ".campaign.json").exists()
        second = subprocess.run(campaign_cmd(save, cache),
                                capture_output=True, text=True, cwd=REPO,
                                env=env, timeout=300)
        assert second.returncode == 0, second.stderr
        assert "resumed from checkpoint" in second.stdout
        manifest = json.loads((save / "manifest.json").read_text())
        assert manifest["figure_status"]["smoke"]["status"] == "resumed"

    def test_no_resume_recomputes(self, tmp_path):
        save, cache = tmp_path / "save", tmp_path / "cache"
        env = campaign_env()
        subprocess.run(campaign_cmd(save, cache), capture_output=True,
                       cwd=REPO, env=env, timeout=300, check=True)
        again = subprocess.run(
            campaign_cmd(save, cache, "--no-resume"),
            capture_output=True, text=True, cwd=REPO, env=env,
            timeout=300)
        assert again.returncode == 0, again.stderr
        assert "resumed from checkpoint" not in again.stdout


class TestKeepGoing:
    def test_failed_figure_does_not_kill_siblings(self, tmp_path):
        """A figure whose sweep fails terminally is recorded as failed;
        the next figure still runs (default --keep-going), and the exit
        code says the campaign was not clean."""
        chaos = tmp_path / "chaos"
        chaos.mkdir()
        (chaos / "error").write_text("99")
        save = tmp_path / "save"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "smoke", "table2",
             "--fidelity", "tiny", "--save", str(save),
             "--cache-dir", str(tmp_path / "cache")],
            capture_output=True, text=True, cwd=REPO, timeout=300,
            env=campaign_env(REPRO_CHAOS_DIR=str(chaos),
                             REPRO_MAX_ATTEMPTS="1"))
        assert proc.returncode == 1
        manifest = json.loads((save / "manifest.json").read_text())
        assert manifest["figure_status"]["smoke"]["status"] == "failed"
        assert "SweepFailure" in manifest["figure_status"]["smoke"]["error"]
        assert manifest["figure_status"]["table2"]["status"] == "ok"
        assert (save / "table2.json").exists()
        assert not (save / "smoke.json").exists()
        assert len(manifest["resilience"]["failed_units"]) == 6

    def test_fail_fast_aborts_campaign(self, tmp_path):
        chaos = tmp_path / "chaos"
        chaos.mkdir()
        (chaos / "error").write_text("99")
        save = tmp_path / "save"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "smoke", "table2",
             "--fidelity", "tiny", "--save", str(save), "--fail-fast",
             "--cache-dir", str(tmp_path / "cache")],
            capture_output=True, text=True, cwd=REPO, timeout=300,
            env=campaign_env(REPRO_CHAOS_DIR=str(chaos),
                             REPRO_MAX_ATTEMPTS="1"))
        assert proc.returncode == 1
        manifest = json.loads((save / "manifest.json").read_text())
        assert manifest["figure_status"]["smoke"]["status"] == "failed"
        assert "table2" not in manifest["figure_status"]
        assert not (save / "table2.json").exists()
