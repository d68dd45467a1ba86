"""Tests for profile/instrumentation persistence."""

import json

import pytest

from repro.moca.classify import Thresholds
from repro.moca.framework import InstrumentedApp, MocaFramework
from repro.moca.lut import ObjectProfile, ProfileLUT
from repro.moca.naming import name_from_site
from repro.moca.profiler import MemoryObjectProfiler
from repro.moca.serialize import (
    FORMAT_VERSION,
    instrumented_from_dict,
    instrumented_to_dict,
    load_instrumented,
    load_lut,
    lut_from_dict,
    lut_to_dict,
    save_instrumented,
    save_lut,
)
from repro.vm.heap import ObjectType


@pytest.fixture
def lut(tiny_trace):
    return MemoryObjectProfiler().profile_trace(tiny_trace, "tinyapp").lut


@pytest.fixture
def instrumented(tiny_trace):
    fw = MocaFramework()
    profiled = MemoryObjectProfiler().profile_trace(tiny_trace, "tinyapp")
    return fw.instrument("tinyapp", profiled)


class TestLutRoundtrip:
    def test_dict_roundtrip_preserves_everything(self, lut):
        restored = lut_from_dict(lut_to_dict(lut))
        assert len(restored) == len(lut)
        for p in lut:
            q = restored.get(p.name)
            assert q is not None
            assert q.llc_misses == p.llc_misses
            assert q.stall_cycles == p.stall_cycles
            assert q.llc_mpki == pytest.approx(p.llc_mpki)
            assert q.label == p.label

    def test_file_roundtrip(self, lut, tmp_path):
        path = tmp_path / "mcf.lut.json"
        save_lut(lut, path)
        restored = load_lut(path)
        assert restored.app_name == lut.app_name
        assert len(restored) == len(lut)

    def test_json_is_plain(self, lut, tmp_path):
        path = tmp_path / "x.json"
        save_lut(lut, path)
        data = json.loads(path.read_text())
        assert data["kind"] == "profile-lut"
        assert data["version"] == FORMAT_VERSION

    def test_wrong_kind_rejected(self, lut):
        d = lut_to_dict(lut)
        d["kind"] = "something-else"
        with pytest.raises(ValueError, match="profile-lut"):
            lut_from_dict(d)

    def test_wrong_version_rejected(self, lut):
        d = lut_to_dict(lut)
        d["version"] = 999
        with pytest.raises(ValueError, match="version"):
            lut_from_dict(d)


class TestInstrumentedRoundtrip:
    def test_dict_roundtrip(self, instrumented):
        restored = instrumented_from_dict(instrumented_to_dict(instrumented))
        assert restored.app_name == instrumented.app_name
        assert restored.types == instrumented.types
        assert restored.thresholds == instrumented.thresholds

    def test_heat_preserved(self, instrumented):
        restored = instrumented_from_dict(instrumented_to_dict(instrumented))
        for name, h in instrumented.heat.items():
            if h > 0:
                assert restored.heat[name] == pytest.approx(h)

    def test_file_roundtrip_usable_for_policy(self, instrumented, tiny_trace,
                                              tmp_path):
        path = tmp_path / "app.moca.json"
        save_instrumented(instrumented, path)
        restored = load_instrumented(path)
        fw = MocaFramework()
        types = fw.runtime_types(restored, tiny_trace.layout)
        assert types[0] == ObjectType.LAT

    def test_manual_document(self):
        doc = {
            "version": FORMAT_VERSION,
            "kind": "instrumented-app",
            "app": "handmade",
            "thresholds": {"thr_lat": 2.0, "thr_bw": 25.0},
            "objects": [
                {"frames": list(name_from_site(7).frames), "type": "lat",
                 "heat": 1.5},
            ],
        }
        app = instrumented_from_dict(doc)
        assert app.type_of_site(7) == ObjectType.LAT
        assert app.heat_of_site(7) == 1.5
        assert app.thresholds == Thresholds(2.0, 25.0)
