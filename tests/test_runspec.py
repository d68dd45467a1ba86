"""Tests for RunSpec, the run() facade, and the retired aliases."""

import dataclasses

import pytest

from repro.sim.config import HETER_CONFIG1
from repro.sim.spec import RunSpec, run
from repro.util.rng import ROOT_SEED

N = 12_000


class TestValidation:
    def test_unknown_config(self):
        with pytest.raises(ValueError, match="unknown system config"):
            RunSpec("mcf", "Optane", "homogen", N)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            RunSpec("mcf", "Homogen-DDR3", "random", N)

    def test_nonpositive_accesses(self):
        with pytest.raises(ValueError, match="n_accesses"):
            RunSpec("mcf", "Homogen-DDR3", "homogen", 0)

    def test_unknown_input(self):
        with pytest.raises(ValueError, match="input"):
            RunSpec("mcf", "Homogen-DDR3", "homogen", N,
                    input_name="nonesuch")

    def test_bad_workload_name(self):
        with pytest.raises(ValueError):
            RunSpec("not-an-app-or-mix", "Homogen-DDR3", "homogen", N)


class TestIdentity:
    def test_frozen_and_hashable(self):
        spec = RunSpec("mcf", "Homogen-DDR3", "homogen", N)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.policy = "moca"
        assert spec in {spec}

    def test_is_multi(self):
        assert not RunSpec("mcf", "Homogen-DDR3", "homogen", N).is_multi
        assert RunSpec("2L1B1N", "Homogen-DDR3", "homogen", N).is_multi

    def test_key_deterministic(self):
        a = RunSpec("mcf", "Heter-config1", "moca", N)
        b = RunSpec("mcf", "Heter-config1", "moca", N)
        assert a.key() == b.key()
        assert len(a.key()) == 64  # sha256 hex

    @pytest.mark.parametrize("other", [
        RunSpec("lbm", "Heter-config1", "moca", N),
        RunSpec("mcf", "Heter-config2", "moca", N),
        RunSpec("mcf", "Heter-config1", "heter-app", N),
        RunSpec("mcf", "Heter-config1", "moca", N + 1),
        RunSpec("mcf", "Heter-config1", "moca", N, input_name="ref2"),
    ])
    def test_key_covers_every_field(self, other):
        base = RunSpec("mcf", "Heter-config1", "moca", N)
        assert base.key() != other.key()

    def test_thresholds_in_key(self):
        from repro.moca.classify import Thresholds
        base = RunSpec("mcf", "Heter-config1", "moca", N)
        custom = RunSpec("mcf", "Heter-config1", "moca", N,
                         thresholds=Thresholds(2.0, 40.0))
        assert base.key() != custom.key()

    def test_canonical_embeds_config_hash(self):
        doc = RunSpec("mcf", "Heter-config1", "moca", N).canonical()
        assert doc["config"]["name"] == "Heter-config1"
        assert doc["config"]["hash"]
        other = RunSpec("mcf", "Homogen-DDR3", "moca", N).canonical()
        assert doc["config"]["hash"] != other["config"]["hash"]

    def test_system_config_resolves(self):
        spec = RunSpec("mcf", "Heter-config1", "moca", N)
        assert spec.system_config is HETER_CONFIG1

    def test_describe(self):
        assert RunSpec("mcf", "Heter-config1", "moca", N).describe() \
            == "mcf/Heter-config1/moca"


class TestRunFacade:
    def test_single_dispatch(self):
        m = run(RunSpec("sift", "Homogen-DDR3", "homogen", N))
        assert m.n_cores == 1
        assert m.workload == "sift"

    def test_multi_dispatch(self):
        m = run(RunSpec("1B3N", "Homogen-DDR3", "homogen", N))
        assert m.n_cores == 4

    def test_foreign_seed_rejected(self):
        spec = RunSpec("sift", "Homogen-DDR3", "homogen", N,
                       seed=ROOT_SEED + 1)
        with pytest.raises(ValueError, match="root seed"):
            run(spec)


class TestRemovedAliases:
    """run_single/run_multi are gone; ``repro.sim.run`` replaces them."""

    def test_from_import_raises_import_error(self):
        with pytest.raises(ImportError):
            from repro.sim.single import run_single  # noqa: F401
        with pytest.raises(ImportError):
            from repro.sim import run_multi  # noqa: F401

    def test_removed_from_top_level_package(self):
        import repro
        with pytest.raises(AttributeError, match="run_single"):
            repro.run_single
        with pytest.raises(AttributeError, match="run_multi"):
            repro.run_multi
        assert "run_single" not in repro.__all__
        assert "run_multi" not in repro.__all__


class TestPublicSurface:
    def test_top_level_exports(self):
        import repro
        for name in ("RunSpec", "run", "Fidelity", "FigureResult",
                     "single_sweep", "multi_sweep", "config_sweep"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_sim_exports_spec(self):
        from repro.sim import RunSpec as sim_spec, run as sim_run
        assert sim_spec is RunSpec and sim_run is run
