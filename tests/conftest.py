"""Shared fixtures: traces, systems, streams, and settings isolation."""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
import pytest

from repro.cpu.hierarchy import CacheHierarchy
from repro.memctrl.system import ChannelGroup, MemorySystem
from repro.memdev.presets import DDR3, HBM, LPDDR2, RLDRAM3
from repro.trace.builder import ObjectBehavior, TraceBuilder
from repro.util import settings
from repro.util.rng import stream
from repro.util.units import KIB, MIB


def repro_free_env(**overrides: str) -> dict[str, str]:
    """``os.environ`` without any ``REPRO_*`` variable, plus ``overrides``.

    The ledger's ``pinned_env`` rule: drop every knob rather than a
    hand-kept list, so a developer's exported variable never leaks in.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(overrides)
    return env


def _drop_repro_env(mp: pytest.MonkeyPatch) -> None:
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        mp.delenv(name)
    settings.reset()


@contextmanager
def isolated_settings_ctx():
    """Drop every ``REPRO_*`` variable and uninstall the settings.

    Both come back on exit, and ``REPRO_*`` variables set through the
    yielded ``MonkeyPatch`` are undone with them.
    """
    with pytest.MonkeyPatch.context() as mp:
        _drop_repro_env(mp)
        try:
            yield mp
        finally:
            settings.reset()


@pytest.fixture
def isolated_settings(monkeypatch):
    """:func:`isolated_settings_ctx` for one test, on its ``monkeypatch``."""
    _drop_repro_env(monkeypatch)
    yield monkeypatch
    settings.reset()


@pytest.fixture
def rng() -> np.random.Generator:
    return stream("tests", "fixture")


@pytest.fixture
def tiny_behaviors() -> list[ObjectBehavior]:
    """Three-object app: one chase (L), one stream (B), one hot (N)."""
    return [
        ObjectBehavior("chasey", 4 * MIB, 0.3, pattern="chase",
                       gap_mean=15, burst_mean=16, site=1),
        ObjectBehavior("streamy", 4 * MIB, 0.3, pattern="strided",
                       stride=256, gap_mean=5, burst_mean=64, site=2),
        ObjectBehavior("hotty", 64 * KIB, 0.4, pattern="hotspot",
                       hot_fraction=0.5, hot_weight=0.99, gap_mean=6,
                       burst_mean=8, site=3),
    ]


@pytest.fixture
def tiny_trace(tiny_behaviors, rng):
    return TraceBuilder(tiny_behaviors).build(20_000, rng)


@pytest.fixture
def tiny_stream(tiny_trace):
    miss_stream, stats = CacheHierarchy().filter_trace(tiny_trace)
    return miss_stream


@pytest.fixture
def ddr3_system() -> MemorySystem:
    return MemorySystem(
        {"main": ChannelGroup(DDR3, 4, 16 * MIB, name="DDR3")},
        name="test-ddr3",
    )


@pytest.fixture
def hetero_system() -> MemorySystem:
    return MemorySystem(
        {
            "lat": ChannelGroup(RLDRAM3, 1, 8 * MIB, name="RL"),
            "bw": ChannelGroup(HBM, 1, 16 * MIB, name="HBM"),
            "pow": ChannelGroup(LPDDR2, 2, 16 * MIB, name="LP"),
        },
        name="test-hetero",
    )
