"""Smoke test of the layer ledger (one pass per workload, tiny traces).

Not part of the tier-1 suite (``testpaths`` is ``tests/``); run it with::

    python -m pytest ledger/test_ledger.py -p no:hypothesispytest

Each check drives ``ledger.py`` as a subprocess, the way it is run for
real, and reads its last output line and ``BENCH_ledger.json``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _ledger(*args: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "ledger.py"), "--smoke", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / "BENCH_ledger.json").read_text())
    return result, detail


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def untraced() -> tuple[dict, dict]:
    return _ledger("--trace", "0")


@pytest.fixture(scope="module")
def traced() -> tuple[dict, dict]:
    return _ledger("--trace", "1")


@pytest.mark.parametrize("mode", ["end_to_end", "per_layer"])
def test_every_declared_metric_is_emitted(declared, untraced, traced, mode):
    result, _ = untraced if mode == "end_to_end" else traced
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    expected = {}
    for w in declared["workloads"]:
        for m in declared[mode]:
            assert NAME_RE.fullmatch(m["name"]), m["name"]
            expected[f"{w['name']}.{m['name']}"] = m["unit"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for key, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), key


def test_traced_and_untraced_digests_agree(traced):
    _, detail = traced
    for name, w in detail["workloads"].items():
        passes = [p for p in w["passes"] if p["phase"] == "pass"]
        plain = [p["digests"] for p in passes if not p["traced"]]
        spanned = [p["digests"] for p in passes if p["traced"]]
        assert plain and plain == spanned, name


def test_layers_account_for_the_traced_wall(traced):
    result, _ = traced
    metrics = result["metrics"]
    for w in {k.split(".")[0] for k in metrics}:
        shares = [m["value"] for k, m in metrics.items()
                  if k.startswith(f"{w}.") and k.endswith(".share")]
        assert sum(shares) == pytest.approx(1.0)
        assert 0 <= metrics[f"{w}.residual.share"]["value"] <= 0.05


def test_tampered_digests_count_as_failures(tmp_path):
    doc = json.loads((HERE / "ledger_digests.json").read_text())
    smoke_scale = [k for k in doc["units"]
                   if k.startswith(("sift/", "gcc/")) and "/chunk" in k]
    assert smoke_scale
    for key in smoke_scale:
        doc["units"][key] = "0" * 64
    tampered = tmp_path / "digests.json"
    tampered.write_text(json.dumps(doc))
    result, detail = _ledger("--workload", "scale", "--digests",
                             str(tampered))
    assert result["correct"] is False
    assert result["failed"] > 0
    assert detail["workloads"]["scale"]["error_rate"] > 0
