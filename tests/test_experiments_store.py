"""Tests for figure artefact persistence, diffing, bars, and parallel sweeps."""

import json

import pytest

from repro.experiments.runner import Fidelity, FigureResult, TINY
from repro.experiments.store import (
    diff_figures,
    load_figure,
    save_figure,
    write_manifest,
)


def _fig(x=1.0):
    f = FigureResult("figT", "test figure", ["key", "a", "b"])
    f.add_row("r1", x, 2.0)
    f.add_row("r2", 3.0, 4.0)
    f.notes.append("a note")
    return f


class TestStore:
    def test_save_load_roundtrip(self, tmp_path):
        path = save_figure(_fig(), tmp_path)
        assert path.name == "figT.json"
        restored = load_figure(path)
        assert restored.columns == ["key", "a", "b"]
        assert restored.rows == _fig().rows
        assert restored.notes == ["a note"]

    def test_manifest(self, tmp_path):
        path = write_manifest(tmp_path, TINY, ["figT", "figU"])
        doc = json.loads(path.read_text())
        assert doc["fidelity"]["name"] == "tiny"
        assert doc["figures"] == ["figT", "figU"]
        assert "library_version" in doc

    def test_bad_version(self, tmp_path):
        path = save_figure(_fig(), tmp_path)
        doc = json.loads(path.read_text())
        doc["version"] = 42
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=str(path)):
            load_figure(path)

    def test_from_dict_rejects_row_length_mismatch(self):
        doc = _fig().to_dict()
        doc["rows"][1] = ["r2", 3.0]  # one cell short of `columns`
        with pytest.raises(ValueError, match="figT.*2 cells, expected 3"):
            FigureResult.from_dict(doc)

    def test_load_figure_names_file_on_row_mismatch(self, tmp_path):
        """A hand-edited artefact whose row no longer matches its columns
        must fail with the offending *file* in the message."""
        path = save_figure(_fig(), tmp_path)
        doc = json.loads(path.read_text())
        doc["rows"][0] = ["r1", 1.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError,
                           match=rf"{path}.*invalid figure artefact"):
            load_figure(path)


class TestDiff:
    def test_identical_is_empty(self):
        assert diff_figures(_fig(), _fig()) == []

    def test_within_tolerance_is_empty(self):
        assert diff_figures(_fig(1.0), _fig(1.01)) == []

    def test_beyond_tolerance_reports_cell(self):
        diffs = diff_figures(_fig(1.0), _fig(1.5))
        assert len(diffs) == 1
        assert diffs[0].startswith("r1/a")

    def test_column_mismatch(self):
        other = FigureResult("figT", "t", ["key", "z"])
        assert "column mismatch" in diff_figures(_fig(), other)[0]

    def test_row_mismatch(self):
        other = FigureResult("figT", "t", ["key", "a", "b"])
        other.add_row("zzz", 1.0, 2.0)
        assert "row mismatch" in diff_figures(_fig(), other)[0]


class TestBars:
    def test_bars_contain_all_rows_and_columns(self):
        text = _fig().render_bars(width=10)
        assert "r1:" in text and "r2:" in text
        assert "#" in text
        assert "a note" in text

    def test_bars_scale_to_peak(self):
        text = _fig().render_bars(width=10)
        # the peak value (4.0) gets the full-width bar
        assert "#" * 10 in text

    def test_bars_fall_back_without_numeric_columns(self):
        f = FigureResult("figS", "strings", ["key", "val"])
        f.add_row("r", "hello")
        assert "hello" in f.render_bars()


class TestParallelSweep:
    def test_worker_env_parsing(self, monkeypatch):
        from repro.experiments import engine
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert engine.sweep_workers() == 4
        monkeypatch.setenv("REPRO_WORKERS", "bogus")
        assert engine.sweep_workers() == 1
        monkeypatch.delenv("REPRO_WORKERS")
        assert engine.sweep_workers() == 1

    def test_parallel_matches_serial(self, monkeypatch):
        """Workers must not change any number (determinism across
        process boundaries)."""
        import os
        from repro.experiments import runner
        micro = Fidelity("micro-par", 6_000, 4_000)
        serial = runner.single_sweep(micro)
        runner.single_sweep.cache_clear()
        monkeypatch.setenv("REPRO_WORKERS", "2")
        # Exercise the real pool even on a single-CPU machine (the
        # engine otherwise caps fan-out at the CPU count).
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        parallel = runner.single_sweep(micro)
        runner.single_sweep.cache_clear()
        assert serial.keys() == parallel.keys()
        for k in serial:
            assert serial[k].exec_cycles == parallel[k].exec_cycles
            assert serial[k].mem_access_cycles == parallel[k].mem_access_cycles


class TestMarkdownAndReport:
    def test_markdown_table(self):
        md = _fig().render_markdown()
        assert md.startswith("### figT")
        assert "| key | a | b |" in md
        assert "| r1 | 1.000 | 2.000 |" in md
        assert "*a note*" in md

    def test_build_report(self, tmp_path):
        from repro.experiments.store import build_report
        save_figure(_fig(), tmp_path)
        write_manifest(tmp_path, TINY, ["figT"])
        report = build_report(tmp_path, title="My campaign")
        assert report.startswith("# My campaign")
        assert "### figT" in report
        assert "fidelity" in report or "tiny" in report

    def test_build_report_without_manifest(self, tmp_path):
        from repro.experiments.store import build_report
        save_figure(_fig(), tmp_path)
        assert "### figT" in build_report(tmp_path)


class TestCliSaveAndBars:
    def test_save_writes_artefacts(self, tmp_path, capsys):
        from repro.experiments.__main__ import main
        assert main(["table2", "--save", str(tmp_path)]) == 0
        assert (tmp_path / "table2.json").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_bars_flag(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["table1", "--bars"]) == 0
        # table1 has a text value column; bars fall back to the table.
        assert "ROB entries" in capsys.readouterr().out
