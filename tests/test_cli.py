"""Tests for the top-level command-line interface."""

import pytest

from repro.__main__ import main
from repro.experiments import engine
from repro.obs.registry import OBS
from repro.util import settings


class TestCli:
    def test_apps_lists_suite(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for app in ("mcf", "lbm", "stitch"):
            assert app in out
        assert "2L1B1N" in out

    def test_systems_lists_configs(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        assert "Homogen-DDR3" in out
        assert "Heter-config1" in out
        assert "RLDRAM3" in out

    def test_profile(self, capsys):
        assert main(["profile", "gcc", "--accesses", "20000"]) == 0
        out = capsys.readouterr().out
        assert "LLC MPKI" in out
        assert "rtl_pool" in out
        assert "segments:" in out

    def test_run_single(self, capsys):
        assert main(["run", "sift", "--system", "Homogen-DDR3",
                     "--policy", "homogen", "--accesses", "15000"]) == 0
        out = capsys.readouterr().out
        assert "memory access time" in out
        assert "memory EDP" in out

    def test_run_moca_on_hetero(self, capsys):
        assert main(["run", "gcc", "--system", "Heter-config1",
                     "--policy", "moca", "--accesses", "15000"]) == 0
        assert "policy=moca" in capsys.readouterr().out

    def test_runmix(self, capsys):
        assert main(["runmix", "1B3N", "--system", "Homogen-DDR3",
                     "--policy", "homogen", "--accesses", "8000"]) == 0
        assert "workload=1B3N" in capsys.readouterr().out

    def test_run_json_output(self, capsys):
        import json
        assert main(["run", "stitch", "--system", "Homogen-DDR3",
                     "--policy", "homogen", "--accesses", "10000",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["workload"] == "stitch"
        assert doc["exec_cycles"] > 0
        assert len(doc["per_core"]) == 1
        assert "latency_p99" in doc

    def test_run_profile_leaves_telemetry_off(self, capsys, monkeypatch,
                                              isolated_settings):
        """``--profile`` profiles the run without turning on telemetry
        (and with it the registry, whose recording would be profiled)."""
        seen = []
        simulate = engine._run_unit

        def spy(spec):
            seen.append((settings.current().telemetry, OBS.enabled))
            return simulate(spec)

        monkeypatch.setattr(engine, "_run_unit", spy)
        assert main(["run", "stitch", "--system", "Homogen-DDR3",
                     "--policy", "homogen", "--accesses", "10000",
                     "--no-cache", "--profile"]) == 0
        assert seen == [(False, False)]
        err = capsys.readouterr().err
        assert "[profile: top 10 by cumulative time]" in err
        assert " calls  " in err

    def test_experiments_forwarding(self, capsys):
        assert main(["experiments", "table1"]) == 0
        assert "ROB entries" in capsys.readouterr().out

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nginx"])

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "mcf", "--system", "Optane"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
