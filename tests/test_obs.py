"""Tests for the observability layer: registry, sinks, provenance, CLI."""

import json

import pytest

from repro.obs import (
    OBS,
    ProgressReporter,
    Registry,
    chrome_trace_doc,
    config_hash,
    read_jsonl,
    run_meta,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.registry import NULL_SPAN
from repro.sim.config import HETER_CONFIG1, HOMOGEN_DDR3
from repro.sim.spec import RunSpec, run

N = 15_000


@pytest.fixture
def obs():
    """The global registry, enabled and clean; restored afterwards."""
    OBS.reset().enable()
    try:
        yield OBS
    finally:
        OBS.reset().disable()


class TestRegistry:
    def test_disabled_is_inert(self):
        reg = Registry()
        reg.add("x", 5)
        reg.gauge("g", 1.0)
        assert reg.span("s") is NULL_SPAN
        with reg.span("s"):
            pass
        assert reg.counters == {} and reg.gauges == {} and reg.events == []

    def test_null_span_is_shared_and_chainable(self):
        reg = Registry()
        s = reg.span("a", foo=1)
        assert s is reg.span("b") is NULL_SPAN
        assert s.set(bar=2) is s

    def test_counters_and_gauges(self):
        reg = Registry(enabled=True)
        reg.add("req")
        reg.add("req", 3)
        reg.gauge("occ", 7)
        reg.gauge("occ", 2)
        snap = reg.snapshot()
        assert snap["counters"]["req"] == 4
        assert snap["gauges"]["occ"] == 2

    def test_span_nesting_depths_and_parents(self):
        reg = Registry(enabled=True)
        with reg.span("outer"):
            with reg.span("mid", key="v"):
                with reg.span("inner"):
                    pass
            with reg.span("mid2"):
                pass
        outer, mid, inner, mid2 = reg.events
        assert [e.depth for e in reg.events] == [0, 1, 2, 1]
        assert mid.parent_id == outer.span_id
        assert inner.parent_id == mid.span_id
        assert mid2.parent_id == outer.span_id
        assert reg.max_depth == 2
        assert all(e.end_ns is not None and e.duration_ns >= 0
                   for e in reg.events)
        assert mid.args == {"key": "v"}

    def test_listener_fires_on_close(self):
        reg = Registry(enabled=True)
        closed = []
        reg.add_listener(lambda e: closed.append(e.name))
        with reg.span("a"):
            with reg.span("b"):
                pass
        assert closed == ["b", "a"]

    def test_warn_prints_once_and_records(self, capsys):
        reg = Registry(enabled=True)
        reg.warn("something odd")
        reg.warn("something odd")
        err = capsys.readouterr().err
        assert err.count("something odd") == 1
        instants = [e for e in reg.events if e.kind == "instant"]
        assert len(instants) == 2
        assert reg.counters["obs.warnings"] == 2

    def test_warn_reaches_stderr_even_when_disabled(self, capsys):
        reg = Registry()
        reg.warn("disabled but audible")
        assert "disabled but audible" in capsys.readouterr().err
        assert reg.events == []

    def test_reset_clears_everything(self):
        reg = Registry(enabled=True)
        with reg.span("s"):
            reg.add("c")
        reg.reset()
        assert reg.events == [] and reg.counters == {}


class TestSinks:
    def _populated(self):
        reg = Registry(enabled=True)
        with reg.span("outer", system="X"):
            with reg.span("inner"):
                reg.add("mem.ch0.requests", 10)
            reg.warn("note")
        reg.gauge("occ", 3)
        return reg

    def test_jsonl_round_trip(self, tmp_path):
        reg = self._populated()
        path = write_jsonl(reg, tmp_path / "events.jsonl")
        records = read_jsonl(path)
        assert records[0]["type"] == "header"
        spans = [r for r in records if r["type"] == "span"]
        assert [s["name"] for s in spans] == ["outer", "inner"]
        assert spans[1]["parent_id"] == spans[0]["span_id"]
        assert any(r["type"] == "instant" for r in records)
        snap = records[-1]
        assert snap["type"] == "snapshot"
        assert snap["counters"]["mem.ch0.requests"] == 10
        assert snap["gauges"]["occ"] == 3

    def test_chrome_trace_structure(self, tmp_path):
        reg = self._populated()
        path = write_chrome_trace(reg, tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"outer", "inner"}
        for e in xs:
            assert e["ts"] >= 0 and e["dur"] >= 0
        counters = {e["name"]: e["args"]["value"]
                    for e in events if e["ph"] == "C"}
        assert counters["mem.ch0.requests"] == 10
        assert any(e["ph"] == "M" for e in events)
        assert any(e["ph"] == "i" for e in events)

    def test_chrome_trace_empty_registry(self, tmp_path):
        doc = chrome_trace_doc(Registry(enabled=True))
        assert doc["traceEvents"][0]["ph"] == "M"


class TestInstrumentedRun:
    def test_run_single_records_spans_and_counters(self, obs):
        m = run(RunSpec("stitch", "Homogen-DDR3", "homogen", N))
        # >= 3 nesting levels (run -> placement/core_replay and, on a
        # cold cache, cache_filter below run; moca runs nest deeper).
        names = {e.name for e in obs.spans()}
        assert any(n.startswith("run.stitch") for n in names)
        assert "placement" in names and "core_replay" in names
        # per-module request counters reached the registry
        mem = {k: v for k, v in obs.counters.items()
               if k.startswith("mem.") and k.endswith(".requests")}
        assert mem and sum(mem.values()) == m.n_requests
        # core counters published once, post-run
        assert obs.counters["core0.load_misses"] == m.n_load_misses
        assert obs.counters["core0.stall_cycles"] == m.load_stall_cycles

    def test_moca_run_has_three_span_levels(self, obs):
        # Unique trace length so the memoized profiling pass runs cold
        # (a cached profile would skip the deepest spans).
        run(RunSpec("gcc", "Heter-config1", "moca", 15_500))
        assert obs.max_depth >= 2  # depth 2 == three levels (0, 1, 2)
        names = {e.name for e in obs.spans()}
        assert "moca.profile" in names
        placed = [k for k in obs.counters if k.startswith("alloc.placed.")]
        assert placed

    def test_run_meta_attached_to_metrics(self, obs):
        m = run(RunSpec("stitch", "Homogen-DDR3", "homogen", N))
        assert m.meta["config"]["name"] == "Homogen-DDR3"
        assert len(m.meta["config"]["hash"]) == 16
        assert m.meta["policy"] == "homogen"
        assert m.to_dict()["meta"]["workload"] == "stitch"

    def test_meta_present_without_obs(self):
        m = run(RunSpec("stitch", "Homogen-DDR3", "homogen", N))
        assert m.meta["config"]["hash"]
        assert "counters" not in m.meta

    def test_registry_calls_do_not_grow_with_trace_length(self):
        """Hooks fire per run, batch or epoch — never per trace record.

        Counts the ``add``/``gauge``/``span`` calls an enabled registry
        receives from one run at two trace lengths, 4x apart (about 50
        either way today).  A per-record hook adds thousands per 30k
        accesses; ``benchmarks/test_extras.py::test_obs_disabled_overhead``
        sees it only as a timing margin.
        """
        def registry_calls(n_accesses: int) -> int:
            calls = 0

            def counted(method):
                def call(*args, **kwargs):
                    nonlocal calls
                    calls += 1
                    return method(*args, **kwargs)
                return call

            names = ("add", "gauge", "span")
            OBS.reset().enable()
            for name in names:
                setattr(OBS, name, counted(getattr(OBS, name)))
            try:
                run(RunSpec("mcf", "Homogen-DDR3", "homogen", n_accesses))
            finally:
                for name in names:
                    delattr(OBS, name)  # back to the class's methods
                OBS.reset().disable()
            return calls

        # Lengths no other test uses, so neither run is memoized.
        short, long = registry_calls(30_013), registry_calls(120_013)
        assert short < 200, short
        assert long <= short + 8, (short, long)


class TestProvenance:
    def test_config_hash_stable_and_distinct(self):
        assert config_hash(HOMOGEN_DDR3) == config_hash(HOMOGEN_DDR3)
        assert config_hash(HOMOGEN_DDR3) != config_hash(HETER_CONFIG1)

    def test_run_meta_fields(self):
        meta = run_meta(config=HETER_CONFIG1, policy="moca",
                        fidelity="tiny", note="x")
        assert meta["schema"] == 1
        assert meta["fidelity"] == {"name": "tiny"}
        assert meta["note"] == "x"
        assert meta["seed"] == 0x4D0CA


class TestProgressReporter:
    def test_reports_shallow_spans_only(self):
        import io
        reg = Registry(enabled=True)
        buf = io.StringIO()
        reporter = ProgressReporter(stream=buf, max_depth=1).attach(reg)
        with reg.span("top"):
            with reg.span("mid"):
                with reg.span("deep"):
                    pass
        out = buf.getvalue()
        assert "top" in out and "mid" in out and "deep" not in out
        assert reporter.n_reported == 2
        reporter.detach(reg)
        with reg.span("after"):
            pass
        assert "after" not in buf.getvalue()


class TestSweepWorkersWarning:
    def test_garbage_env_warns_once(self, monkeypatch, capsys):
        from repro.experiments.engine import sweep_workers
        OBS.reset()  # clear warn-once memory from other tests
        monkeypatch.setenv("REPRO_WORKERS", "garbage")
        assert sweep_workers() == 1
        assert sweep_workers() == 1
        err = capsys.readouterr().err
        assert err.count("REPRO_WORKERS='garbage'") == 1

    def test_valid_env_is_silent(self, monkeypatch, capsys):
        from repro.experiments.engine import sweep_workers
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert sweep_workers() == 3
        assert capsys.readouterr().err == ""


class TestRenderBarsRegression:
    def test_all_nonpositive_cells_fall_back_to_unit_peak(self):
        from repro.experiments.runner import FigureResult
        fig = FigureResult("figX", "degenerate", ["k", "a", "b"])
        fig.add_row("r1", 0.0, -1.0)
        fig.add_row("r2", 0, 0)
        out = fig.render_bars()  # must not raise ValueError
        assert "figX" in out and "r1" in out

    def test_positive_cells_still_scale(self):
        from repro.experiments.runner import FigureResult
        fig = FigureResult("figY", "ok", ["k", "a"])
        fig.add_row("r1", 2.0)
        assert "#" in fig.render_bars(width=10)


class TestCliObsFlags:
    def test_run_with_trace_and_dump(self, tmp_path, capsys):
        from repro.__main__ import main
        OBS.reset().disable()
        trace = tmp_path / "t.json"
        dump = tmp_path / "d.jsonl"
        try:
            assert main(["run", "stitch", "--system", "Homogen-DDR3",
                         "--policy", "homogen", "--accesses", "10000",
                         "--trace", str(trace),
                         "--obs-dump", str(dump)]) == 0
        finally:
            OBS.reset().disable()
        doc = json.loads(trace.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        assert read_jsonl(dump)[-1]["type"] == "snapshot"
        assert "chrome trace written" in capsys.readouterr().err


class TestFigureMetaPersistence:
    def test_save_figure_merges_meta(self, tmp_path):
        from repro.experiments.runner import FigureResult
        from repro.experiments.store import load_figure, save_figure
        fig = FigureResult("figZ", "t", ["k", "v"])
        fig.add_row("a", 1.0)
        path = save_figure(fig, tmp_path, meta=run_meta(fidelity="tiny"))
        loaded = load_figure(path)
        assert loaded.meta["fidelity"] == {"name": "tiny"}
        assert loaded.rows == fig.rows
