"""Campaign telemetry: fold laws, capture, dashboard, CLI.

Three layers of coverage:

* **Algebra** (hypothesis) — the ``CampaignTelemetry`` fold is
  order-independent and ``to_dict``/``from_dict`` round-trips are
  lossless (the manifest's ``telemetry`` block is exactly
  reconstructible).  The span histogram's own laws live in
  ``tests/test_latency_stats.py``.
* **Capture** — ``begin_unit``/``end_unit`` take a registry *delta*,
  restore a disabled registry (the PR 1 disabled-by-default contract),
  and ship warnings raised by quieted workers back for a single
  parent-side reprint.
* **Acceptance** — a real ``fig08 --fidelity tiny`` campaign through the
  CLI ``main()``: the manifest telemetry block is consistent with the
  run (unit count, access totals, summed wall time, worker map), the
  ``telemetry.jsonl`` / ``trace.json`` artefacts are well-formed, a
  cache-warm rerun accounts every unit as cached, and figure rows are
  byte-identical with telemetry disabled.
"""

from __future__ import annotations

import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import engine
from repro.experiments import runner as _runner
from repro.experiments.__main__ import main as exp_main
from repro.faults.plan import FaultPlan
from repro.obs import telemetry as obstel
from repro.obs.dashboard import HEARTBEAT_NAME, Dashboard, supports_repaint
from repro.obs.registry import OBS, Registry
from repro.obs.telemetry import CampaignTelemetry, UnitTelemetry
from repro.sim.spec import RunSpec
from repro.util import settings as repro_settings
from repro.util.histogram import LatencyHistogram
from repro.workloads.spec import APPS

from conftest import isolated_settings_ctx


# ---- hypothesis strategies --------------------------------------------------

values = st.integers(min_value=0, max_value=1 << 40)
value_lists = st.lists(values, max_size=30)

span_stats = st.builds(
    lambda vals: _stats_from(vals), st.lists(values, max_size=10))


def _stats_from(vals: list[int]) -> LatencyHistogram:
    s = LatencyHistogram()
    for v in vals:
        s.record(v)
    return s


unit_telemetries = st.builds(
    UnitTelemetry,
    pid=st.integers(1, 4),
    label=st.sampled_from(["a", "b", "c"]),
    wall_ns=st.integers(0, 10**9),
    utime_us=st.integers(0, 10**6),
    stime_us=st.integers(0, 10**6),
    peak_rss_kb=st.integers(0, 10**6),
    gc_collections=st.integers(0, 50),
    accesses=st.integers(0, 10**6),
    counters=st.dictionaries(st.sampled_from(["x", "y", "z"]),
                             st.integers(1, 100), max_size=3),
    spans=st.dictionaries(st.sampled_from(["core_replay", "cache_filter"]),
                          span_stats, max_size=2),
    warnings=st.dictionaries(st.sampled_from(["k1", "k2"]),
                             st.sampled_from(["msg a", "msg b"]), max_size=2),
)


def _fold(units: list[UnitTelemetry]) -> CampaignTelemetry:
    ct = CampaignTelemetry()
    for ut in units:
        ct.add_unit(ut)
    return ct


# ---- CampaignTelemetry algebra ---------------------------------------------


class TestCampaignMerge:
    @given(st.lists(unit_telemetries, max_size=10),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_fold_order_independent(self, units, rnd):
        shuffled = list(units)
        rnd.shuffle(shuffled)
        assert _fold(units) == _fold(shuffled)

    @given(st.lists(unit_telemetries, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_lossless(self, units):
        """The manifest telemetry block reconstructs the aggregate exactly."""
        ct = _fold(units)
        back = CampaignTelemetry.from_dict(json.loads(json.dumps(
            ct.to_dict())))
        assert back == ct
        assert back.to_dict() == ct.to_dict()

    @given(unit_telemetries)
    @settings(max_examples=40, deadline=None)
    def test_singleton_fold_equals_unit(self, ut):
        ct = _fold([ut])
        assert ct.units == 1
        assert ct.wall_ns == ut.wall_ns
        assert ct.accesses == ut.accesses
        assert ct.counters == ut.counters
        assert set(ct.workers) == {str(ut.pid)}

    def test_warning_dedup_counts_and_min_message(self):
        u1 = UnitTelemetry(pid=1, warnings={"k": "zebra"})
        u2 = UnitTelemetry(pid=2, warnings={"k": "aardvark"})
        ct = _fold([u1, u2])
        assert ct.warnings == {
            "k": {"count": 2, "message": "aardvark"}}

    def test_hot_spans_ranked_by_total(self):
        ct = _fold([UnitTelemetry(
            pid=1, spans={"slow": _stats_from([100, 100]),
                          "fast": _stats_from([10])})])
        assert [n for n, _ in ct.hot_spans(2)] == ["slow", "fast"]

    def test_acc_per_s_over_span_time(self):
        """The replay throughput divides accesses by its span's seconds."""
        ct = _fold([UnitTelemetry(
            pid=1, wall_ns=2 * 10**9, accesses=1000,
            spans={"core_replay": _stats_from([10**9])})])
        assert ct.replay_acc_per_s() == pytest.approx(1000.0)
        assert ct.to_dict()["replay_acc_per_s"] == pytest.approx(1000.0)
        assert CampaignTelemetry().replay_acc_per_s() == 0.0

    def test_fold_leaves_units_unchanged(self):
        ut = UnitTelemetry(pid=1, spans={"s": _stats_from([5])})
        ct = _fold([ut, ut])
        assert ct.spans["s"].count == 2
        assert ut.spans["s"] == _stats_from([5])


# ---- capture protocol -------------------------------------------------------


class TestCapture:
    def test_owned_capture_restores_disabled_registry(self):
        reg = Registry()
        assert not reg.enabled
        cap = obstel.begin_unit(reg)
        assert reg.enabled  # capture enabled it
        with reg.span("core_replay"):
            reg.add("filter.accesses", 42)
        ut = obstel.end_unit(cap, label="unit-x", meta={"accesses": 7})
        assert not reg.enabled  # ... and re-disabled it
        assert reg.events == []  # ... trimming the events it recorded
        assert ut.label == "unit-x"
        assert ut.pid == os.getpid()
        assert ut.accesses == 7
        assert ut.counters == {"filter.accesses": 42}
        assert "core_replay" in ut.spans
        assert ut.spans["core_replay"].count == 1
        assert ut.wall_ns > 0

    def test_enabled_registry_left_alone_and_delta_only(self):
        reg = Registry()
        reg.enable()
        reg.add("pre.existing", 5)
        with reg.span("before"):
            pass
        n_before = len(reg.events)
        cap = obstel.begin_unit(reg)
        reg.add("pre.existing", 3)
        ut = obstel.end_unit(cap)
        assert reg.enabled
        assert len(reg.events) >= n_before  # events kept (parent lane)
        assert ut.counters == {"pre.existing": 3}  # delta, not absolute
        assert "before" not in ut.spans

    def test_abort_unit_restores_owned_registry(self):
        reg = Registry()
        cap = obstel.begin_unit(reg)
        reg.add("junk", 1)
        obstel.abort_unit(cap)
        assert not reg.enabled
        assert reg.events == []

    def test_new_warnings_shipped_with_delta(self):
        reg = Registry()
        reg.warn("old news", key="old")
        cap = obstel.begin_unit(reg)
        reg.warn("fresh problem", key="fresh")
        ut = obstel.end_unit(cap)
        assert ut.warnings == {"fresh": "fresh problem"}


class TestOneRecordPerUnit:
    def test_two_units_in_one_process(self, tmp_path, isolated_settings):
        """A unit's time and counts live only in its own telemetry: the
        second of two in-process units reports its own filter pass, and
        neither its metrics nor its cache entry copies the registry."""
        # A length no other test uses, so the in-process stream memo
        # cannot serve either unit.
        specs = [RunSpec("mcf", "Heter-config1", "moca", 8_123),
                 RunSpec("lbm", "Heter-config1", "moca", 8_123)]
        cache = tmp_path / "cache"
        engine.reset()
        OBS.reset()
        try:
            engine.configure(cache)
            repro_settings.update(telemetry=True)
            results = engine.execute(specs, phase="two-units")
            units = engine.unit_telemetry_records()
        finally:
            engine.reset()
            OBS.reset().disable()
        assert [u.label for u in units] == [s.describe() for s in specs]
        assert units[1].counters["filter.computed"] == 1
        assert units[1].counters["filter.accesses"] == 8_123
        manifests = sorted(cache.glob("*/manifest.json"))
        assert len(manifests) == len(specs)
        metas = [m.meta for m in results] + [
            json.loads(p.read_text())["metrics"]["meta"] for p in manifests]
        for meta in metas:
            assert meta["config"]["name"] == "Heter-config1"
            assert "counters" not in meta
            assert "phase_seconds" not in meta


class TestWarnDedup:
    def test_quiet_suppresses_print_but_records(self, capfd):
        reg = Registry()
        reg.quiet = True
        reg.warn("muzzled", key="m")
        assert "muzzled" not in capfd.readouterr().err
        assert reg._warned == {"m": "muzzled"}

    def test_multi_worker_warning_printed_once(self, capfd,
                                               isolated_settings,
                                               monkeypatch):
        """A placement warning raised in 2 quieted workers lands on
        stderr exactly once, via the parent's fold-time reprint."""
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_OVERSUBSCRIBE", "1")
        # The only module offline from the first page: every unit's
        # placement overcommits and warns (once per worker process).
        offline = FaultPlan(offline_role="main")
        specs = [RunSpec(workload=a, config="Homogen-DDR3",
                         policy="homogen", n_accesses=2000, faults=offline)
                 for a in ("mcf", "milc", "lbm", "gcc")]
        engine.reset()
        OBS.reset()
        try:
            engine.configure(None)
            repro_settings.update(telemetry=True)
            engine.execute(specs, phase="dedup-test")
            ct = engine.campaign_telemetry()
            assert ct.units == 4
            assert len(ct.workers) == 2
            assert any("frame pools exhausted" in key
                       for key in ct.warnings)
            err = capfd.readouterr().err
            assert err.count("frame pools exhausted") == 1
        finally:
            engine.reset()
            OBS.reset().disable()


class TestMergedTrace:
    def test_out_of_process_unit_gets_worker_lane(self):
        reg = Registry()
        ut = UnitTelemetry(
            pid=os.getpid() + 1, label="mcf|sys", wall_start=100.0,
            events=[{"type": "span", "span_id": 1, "parent_id": 0,
                     "name": "core_replay", "depth": 0,
                     "start_ns": 10_000, "end_ns": 40_000, "args": {}}])
        doc = obstel.merged_trace_doc(reg, [ut])
        events = doc["traceEvents"]
        lanes = {e["args"]["name"]: e["pid"] for e in events
                 if e.get("name") == "process_name"}
        assert f"worker {ut.pid}" in lanes
        span = next(e for e in events if e.get("ph") == "X")
        assert span["pid"] == ut.pid
        assert span["dur"] == pytest.approx(30.0)  # 30_000 ns -> 30 us
        assert span["args"]["unit"] == "mcf|sys"

    def test_in_parent_units_skipped_when_registry_enabled(self):
        reg = Registry()
        reg.enable()
        with reg.span("core_replay"):
            pass
        ut = UnitTelemetry(
            pid=os.getpid(), label="dup", wall_start=100.0,
            events=[{"type": "span", "span_id": 1, "parent_id": 0,
                     "name": "core_replay", "depth": 0,
                     "start_ns": 10, "end_ns": 20, "args": {}}])
        doc = obstel.merged_trace_doc(reg, [ut])
        dup = [e for e in doc["traceEvents"]
               if e.get("args", {}).get("unit") == "dup"]
        assert dup == []  # already in the parent lane; not duplicated


# ---- dashboard --------------------------------------------------------------


class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestDashboard:
    def test_non_tty_stream_uses_plain_lines(self, tmp_path):
        import io
        out = io.StringIO()
        assert not supports_repaint(out)
        clock = _FakeClock()
        dash = Dashboard(stream=out, clock=clock,
                         heartbeat_path=tmp_path / HEARTBEAT_NAME,
                         stats_provider=lambda: {
                             "cache": {"hit_ratio": 0.5},
                             "hot_spans": [("core_replay", 1.5)]})
        dash.campaign_begin(["fig08"], "tiny")
        dash.figure_begin("fig08")
        dash.on_event({"kind": "phase_begin", "phase": "p", "total": 4,
                       "cached": 1})
        clock.t += 10.0
        for _ in range(3):
            dash.on_event({"kind": "unit_done", "phase": "p",
                           "label": "u", "ok": True})
            clock.t += 10.0
        dash.figure_end("fig08", "ok")
        dash.campaign_end()
        text = out.getvalue()
        assert "\r" not in text  # plain lines, no repaints
        assert "units 4/4" in text
        assert "(1 cached)" in text
        assert "cache 0.50" in text
        assert "hot core_replay:1.5s" in text
        assert "fig08: ok" in text
        assert text.strip().endswith("| done")

    def test_heartbeat_written_atomically(self, tmp_path):
        import io
        clock = _FakeClock()
        hb = tmp_path / HEARTBEAT_NAME
        dash = Dashboard(stream=io.StringIO(), clock=clock,
                         heartbeat_path=hb)
        dash.campaign_begin(["smoke"], "tiny")
        dash.on_event({"kind": "phase_begin", "phase": "p", "total": 2,
                       "cached": 0})
        dash.on_event({"kind": "unit_done", "phase": "p", "label": "u",
                       "ok": False})
        dash.figure_end("smoke", "ok")
        doc = json.loads(hb.read_text())
        assert doc["units_done"] == 1
        assert doc["units_total"] == 2
        assert doc["failed_units"] == 1
        assert doc["figures_done"] == 1
        assert not hb.with_suffix(hb.suffix + ".tmp").exists()

    def test_throughput_and_eta(self):
        import io
        clock = _FakeClock()
        dash = Dashboard(stream=io.StringIO(), clock=clock)
        dash.campaign_begin(["x"], "tiny")
        dash.on_event({"kind": "phase_begin", "phase": "p", "total": 10,
                       "cached": 0})
        for _ in range(5):
            clock.t += 1.0
            dash.on_event({"kind": "unit_done", "phase": "p", "label": "u",
                           "ok": True})
        assert dash.throughput() == pytest.approx(1.0)
        assert dash.eta_seconds() == pytest.approx(5.0)

    def test_stats_provider_errors_swallowed(self):
        import io

        def boom():
            raise RuntimeError("stats broke")

        dash = Dashboard(stream=io.StringIO(), clock=_FakeClock(),
                         stats_provider=boom)
        dash.campaign_begin(["x"], "tiny")  # must not raise


# ---- acceptance: real campaign through the CLI ------------------------------

FIG08_SYSTEMS = 6  #: columns beside the app name in fig08


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """One cold ``fig08 --fidelity tiny`` campaign, telemetry on."""
    base = tmp_path_factory.mktemp("telemetry_campaign")
    save, cache = base / "save", base / "cache"
    _runner.single_sweep.cache_clear()
    with isolated_settings_ctx():
        rc = exp_main(["fig08", "--fidelity", "tiny", "--save", str(save),
                       "--cache-dir", str(cache)])
    assert rc == 0
    return save, cache


class TestCampaignAcceptance:
    def test_manifest_telemetry_consistent_with_run(self, campaign):
        save, _ = campaign
        doc = json.loads((save / "manifest.json").read_text())
        telem = doc["telemetry"]
        n_units = len(APPS) * FIG08_SYSTEMS
        fidelity = _runner.FIDELITIES["tiny"]
        assert telem["version"] == obstel.TELEMETRY_VERSION
        assert telem["units"] == n_units
        assert telem["cached_units"] == 0
        assert telem["failed_units"] == 0
        assert telem["accesses"] == n_units * fidelity.n_single
        assert telem["wall_ns"] > 0
        # Worker map is consistent: per-worker unit counts and busy time
        # sum to the campaign totals.
        workers = telem["workers"]
        assert len(workers) >= 1
        assert sum(w["units"] for w in workers.values()) == n_units
        assert sum(w["busy_ns"] for w in workers.values()) == telem["wall_ns"]
        # Hot phases of the simulation appear as merged spans with
        # percentiles, one closed span per unit.
        for name in ("core_replay", "placement"):
            span = telem["spans"][name]
            assert span["count"] == n_units
            assert 0 < span["p50"] <= span["p95"] <= span["p99"]
            assert span["sum"] <= telem["wall_ns"]

    def test_manifest_block_round_trips(self, campaign):
        save, _ = campaign
        doc = json.loads((save / "manifest.json").read_text())
        ct = CampaignTelemetry.from_dict(doc["telemetry"])
        assert ct.to_dict() == doc["telemetry"]

    def test_telemetry_jsonl_structure(self, campaign):
        save, _ = campaign
        lines = [json.loads(line) for line in
                 (save / "telemetry.jsonl").read_text().splitlines()]
        assert lines[0]["type"] == "header"
        assert lines[-1]["type"] == "campaign"
        units = [ln for ln in lines if ln["type"] == "unit"]
        assert len(units) == lines[-1]["units"]
        # The campaign line is exactly the fold of the unit lines.
        folded = _fold([UnitTelemetry.from_dict(u) for u in units])
        assert folded.wall_ns == lines[-1]["wall_ns"]
        assert folded.counters == lines[-1]["counters"]
        assert folded.accesses == lines[-1]["accesses"]

    def test_trace_json_merges_all_unit_lanes(self, campaign):
        save, _ = campaign
        doc = json.loads((save / "trace.json").read_text())
        events = doc["traceEvents"]
        unit_spans = [e for e in events if e.get("ph") == "X"
                      and e.get("args", {}).get("unit")]
        assert unit_spans
        assert all("ts" in e and "dur" in e for e in unit_spans)
        labels = {e["args"]["unit"] for e in unit_spans}
        assert len(labels) == len(APPS) * FIG08_SYSTEMS

    def test_warm_rerun_accounts_cached_units(self, campaign,
                                              isolated_settings):
        save, cache = campaign
        _runner.single_sweep.cache_clear()
        rc = exp_main(["fig08", "--fidelity", "tiny", "--save", str(save),
                       "--cache-dir", str(cache), "--no-resume"])
        assert rc == 0
        telem = json.loads((save / "manifest.json").read_text())["telemetry"]
        assert telem["units"] == 0
        assert telem["cached_units"] == len(APPS) * FIG08_SYSTEMS

    def test_rows_identical_without_telemetry(self, campaign, tmp_path,
                                              isolated_settings):
        """--no-telemetry must not perturb a single figure number."""
        save, cache = campaign
        off = tmp_path / "off"
        _runner.single_sweep.cache_clear()
        # --no-cache forces a cold recompute, so the comparison covers
        # the simulation path, not just cached-artefact integrity.
        rc = exp_main(["fig08", "--fidelity", "tiny", "--save", str(off),
                       "--no-cache", "--no-telemetry"])
        assert rc == 0
        rows_on = json.loads((save / "fig08.json").read_text())["rows"]
        rows_off = json.loads((off / "fig08.json").read_text())["rows"]
        assert rows_on == rows_off
        manifest = json.loads((off / "manifest.json").read_text())
        assert "telemetry" not in manifest
        assert not (off / "telemetry.jsonl").exists()
        assert not (off / "trace.json").exists()

    def test_traced_worker_manifest_has_one_record(self, tmp_path,
                                                   isolated_settings,
                                                   monkeypatch):
        """Under ``--trace`` with workers, the manifest's counters and
        span times live only in its ``telemetry`` block, which folds
        every unit; no top-level block read from the parent's registry
        alone sits beside it."""
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_OVERSUBSCRIBE", "1")
        save = tmp_path / "save"
        _runner.single_sweep.cache_clear()
        try:
            rc = exp_main(["fig08", "--fidelity", "tiny", "--no-cache",
                           "--trace", str(tmp_path / "trace.json"),
                           "--save", str(save)])
        finally:
            OBS.reset().disable()
        assert rc == 0
        doc = json.loads((save / "manifest.json").read_text())
        assert "counters" not in doc and "phase_seconds" not in doc
        telem = doc["telemetry"]
        assert telem["units"] == len(APPS) * FIG08_SYSTEMS
        assert len(telem["workers"]) == 2
        assert telem["counters"]["memsys.requests"] > 0
        assert telem["spans"]["core_replay"]["count"] == telem["units"]
