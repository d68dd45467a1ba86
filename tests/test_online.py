"""End-to-end tests for the online guidance runner (``repro.sim.online``)."""

import math

import numpy as np
import pytest

from repro.cpu.core import InOrderWindowCore
from repro.faults.plan import FaultPlan
from repro.service import GuidanceService, OnlineSpec
from repro.sim.online import run_online
from repro.sim.spec import RunSpec, run

N = 20_000
CFG = "Heter-config1"


class TestSpecWiring:
    def test_offline_key_carries_no_online_or_migration_block(self):
        """Pre-existing cache keys must stay byte-identical: the online
        and migration blocks enter canonical() only when set."""
        doc = RunSpec("milc", CFG, "moca", N).canonical()
        assert "online" not in doc and "migration" not in doc

    def test_online_block_changes_the_key(self):
        plain = RunSpec("milc", CFG, "moca", N)
        online = RunSpec("milc", CFG, "moca", N, online=OnlineSpec())
        assert plain.key() != online.key()
        assert online.canonical()["online"] == OnlineSpec().canonical()

    def test_online_needs_classifying_policy(self):
        with pytest.raises(ValueError, match="classification"):
            RunSpec("milc", CFG, "homogen", N, online=OnlineSpec())

    def test_online_and_migration_are_exclusive(self):
        from repro.vm.migration import MigrationConfig
        with pytest.raises(ValueError, match="both"):
            RunSpec("milc", CFG, "moca", N, online=OnlineSpec(),
                    migration=MigrationConfig())

    def test_run_online_requires_online_spec(self):
        with pytest.raises(ValueError, match="online"):
            run_online(RunSpec("milc", CFG, "moca", N))

    def test_online_spec_roundtrip(self):
        ospec = OnlineSpec(epoch_misses=500, sensitivity=0.75, fault_epoch=2)
        assert OnlineSpec.from_dict(ospec.to_dict()) == ospec

    def test_describe_mentions_online(self):
        spec = RunSpec("milc", CFG, "moca", N, online=OnlineSpec())
        assert "online[" in spec.describe()


class TestRunOnline:
    def test_smoke_and_meta_blocks(self):
        m = run(RunSpec("milc", CFG, "moca", N, online=OnlineSpec()))
        assert m.policy.startswith("online-")
        assert m.exec_cycles > 0 and math.isfinite(m.mem_access_cycles)
        svc = m.meta["service"]
        assert svc["epochs"] == svc["epochs_accepted"] >= 2
        assert m.meta["online"] == OnlineSpec().canonical()
        assert m.meta["migration"]["bytes_copied"] >= 0
        assert "placement" in m.meta

    def test_undrifted_input_converges_to_offline(self):
        """The acceptance bar's quiet half: on the training-adjacent ref
        input the hysteresis holds the offline placement — zero moves."""
        m = run(RunSpec("milc", CFG, "moca", 30_000, online=OnlineSpec()))
        svc = m.meta["service"]
        assert svc["moves"] == 0 and svc["pages_moved"] == 0

    def test_online_beats_offline_on_drifted_input(self):
        """The acceptance bar's drift half, pinned at test fidelity."""
        offline = run(RunSpec("milc", CFG, "moca", 30_000,
                              input_name="drift2"))
        online = run(RunSpec("milc", CFG, "moca", 30_000,
                             input_name="drift2", online=OnlineSpec()))
        assert online.meta["service"]["moves"] > 0
        assert online.mem_access_cycles < offline.mem_access_cycles

    def test_survives_total_telemetry_loss(self):
        """Every epoch's sample dropped: the service must reject them
        all and hold the boot placement rather than abort or drift."""
        plan = FaultPlan(lut_drop_fraction=1.0)
        m = run(RunSpec("milc", CFG, "moca", N, faults=plan,
                        online=OnlineSpec()))
        svc = m.meta["service"]
        assert svc["epochs_accepted"] == 0
        assert svc["rejected_by_reason"].get("missing") == svc["epochs"]
        assert svc["moves"] == 0
        assert math.isfinite(m.mem_access_cycles)

    def test_scrambled_telemetry_is_rejected_not_acted_on(self):
        plan = FaultPlan(lut_scramble_fraction=1.0)
        m = run(RunSpec("milc", CFG, "moca", N, faults=plan,
                        online=OnlineSpec()))
        svc = m.meta["service"]
        assert svc["rejected_by_reason"].get("corrupt") == svc["epochs"]
        assert svc["moves"] == 0

    def test_midrun_capacity_fault_triggers_forced_replacement(self):
        plan = FaultPlan(offline_role="bw", trigger_page=0)
        m = run(RunSpec("milc", CFG, "moca", 30_000, faults=plan,
                        online=OnlineSpec(fault_epoch=3)))
        svc = m.meta["service"]
        assert svc["forced_moves"] > 0
        assert math.isfinite(m.mem_access_cycles)


class TestEpochTranslation:
    """Epochs reuse one translation until the page table changes; every
    epoch core must still see exactly the live table's translation."""

    @pytest.mark.parametrize("spec", [
        RunSpec("milc", CFG, "moca", 30_000, input_name="drift2",
                online=OnlineSpec()),
        RunSpec("milc", CFG, "moca", 30_000,
                faults=FaultPlan(offline_role="bw", trigger_page=0),
                online=OnlineSpec(fault_epoch=3)),
    ], ids=["drift2", "midrun-fault"])
    def test_epoch_cores_get_the_live_translation(self, spec, monkeypatch):
        live = {}
        checked = []
        register = GuidanceService.register
        init = InOrderWindowCore.__init__

        def spy_register(self, name, **kwargs):
            live["pt"] = kwargs["allocator"].page_table
            return register(self, name, **kwargs)

        def spy_init(self, stream, groups, gaddrs, *args, **kwargs):
            pt = live.get("pt")
            if pt is not None:  # an epoch core (profiling runs earlier)
                want = pt.translate_lines(stream.vline)
                for got, ref in zip((groups, gaddrs), want):
                    assert got.dtype == ref.dtype
                    assert np.array_equal(got, ref)
                checked.append(pt.version)
            init(self, stream, groups, gaddrs, *args, **kwargs)

        monkeypatch.setattr(GuidanceService, "register", spy_register)
        monkeypatch.setattr(InOrderWindowCore, "__init__", spy_init)
        m = run(spec)
        svc = m.meta["service"]
        assert len(checked) == svc["epochs"]
        # Pages moved mid-run, so later epochs replayed a newer table.
        assert svc["pages_moved"] > 0 and len(set(checked)) > 1
        if spec.faults is not None:
            assert svc["forced_moves"] > 0
