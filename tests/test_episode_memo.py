"""Episode tables are built once per stream, and no replay state outlives
its unit.

Episode segmentation depends only on the miss stream, the core
parameters and ``inst_prev``, so :mod:`repro.cpu.core` memoizes the
tables on the stream object: the six Fig. 8 systems replaying one
application segment it once.  Everything else a replay builds — the
routing/decode tables and the kernel's output columns — dies with the
replay.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from test_parity import _RECIPES, _memsys_doc, _random_trace, _step

import repro.cpu.core as core_mod
from repro.cpu.core import CoreParams, InOrderWindowCore, run_interleaved
from repro.cpu.hierarchy import MissStream
from repro.experiments.runner import SINGLE_SYSTEMS
from repro.sim.spec import RunSpec, run


@pytest.fixture
def builds(monkeypatch):
    """Count episode-table constructions (one per segmentation)."""
    made = []

    class Counting(core_mod._Episodes):
        __slots__ = ()

        def __init__(self, stream, params, inst_prev):
            made.append((id(stream), params, inst_prev))
            super().__init__(stream, params, inst_prev)

    monkeypatch.setattr(core_mod, "_Episodes", Counting)
    return made


def _copy(stream: MissStream) -> MissStream:
    """The same records in a fresh object, so nothing is memoized."""
    return MissStream(inst=stream.inst, vline=stream.vline,
                      obj_id=stream.obj_id, dep=stream.dep,
                      kind=stream.kind,
                      total_instructions=stream.total_instructions)


def _trace(seed=11, recipe_i=3):
    rng = np.random.default_rng(seed)
    recipe, caps = _RECIPES[recipe_i]
    stream, groups, gaddrs = _random_trace(rng, caps)
    while len(stream) < 8:
        stream, groups, gaddrs = _random_trace(rng, caps)
    return recipe, stream, groups, gaddrs


def _result(stream, groups, gaddrs, memsys, **kw):
    core = InOrderWindowCore(stream, groups, gaddrs, **kw)
    return core.run_to_completion(memsys).to_dict(), _memsys_doc(memsys)


class TestEpisodeMemo:
    def test_two_systems_segment_once(self, builds):
        _, stream, groups, gaddrs = _trace()
        params = CoreParams(ipc=0.3, mshr=4)
        seen = [_result(stream, groups, gaddrs, recipe(), params=params)
                for recipe, _ in (_RECIPES[3], _RECIPES[4])]
        assert len(builds) == 1
        fresh = [_result(_copy(stream), groups, gaddrs, recipe(),
                         params=params)
                 for recipe, _ in (_RECIPES[3], _RECIPES[4])]
        assert len(builds) == 3
        assert seen == fresh

    def test_params_inst_prev_and_slices_get_their_own_tables(self, builds):
        recipe, stream, groups, gaddrs = _trace(seed=12)
        variants = [
            (stream, {}),
            (stream, {"params": CoreParams(mshr=1)}),
            (stream, {"inst_prev": 3}),
            (stream.slice(2, len(stream)), {}),
        ]
        for s, kw in variants:
            lo = len(stream) - len(s)
            got = _result(s, groups[lo:], gaddrs[lo:], recipe(), **kw)
            assert got == _result(_copy(s), groups[lo:], gaddrs[lo:],
                                  recipe(), **kw)
        # Each variant built its own tables once, plus once per copy.
        assert len(builds) == 2 * len(variants)
        # A repeat of any of them is a lookup.
        for s, kw in variants[:3]:
            InOrderWindowCore(s, groups, gaddrs, **kw)
        assert len(builds) == 2 * len(variants)
        assert len(vars(stream)["_episode_memo"]) == 3

    def test_cores_sharing_a_stream_match_the_oracle(self, builds):
        recipe, stream, groups, gaddrs = _trace(seed=13)
        params = CoreParams(ipc=1.5, rob_size=16, mshr=4)
        traces = [(stream, groups, gaddrs)] * 3
        memsys = recipe()
        cores = [InOrderWindowCore(s, g, a, params, core_id=i)
                 for i, (s, g, a) in enumerate(traces)]
        fused = [r.to_dict() for r in run_interleaved(cores, memsys)]
        fused_doc = _memsys_doc(memsys)
        assert len(builds) == 1
        # The oracle driver over the kernel's stepping API, on cores
        # with unshared tables.
        memsys = recipe()
        ref, _ = _step([InOrderWindowCore(_copy(s), g, a, params,
                                          core_id=i)
                        for i, (s, g, a) in enumerate(traces)], memsys)
        assert fused == [r.to_dict() for r in ref]
        assert fused_doc == _memsys_doc(memsys)


def _traced_after(fn) -> int:
    fn()
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_no_replay_state_outlives_its_unit(isolated_settings):
    """The six Fig. 8 columns of one app leave no more resident memory
    than the first column did: no decode tables or output columns are
    kept between units.  MOCA runs first, so the profile memo it fills
    is already resident when the measured columns run."""
    columns = sorted(SINGLE_SYSTEMS, key=lambda c: c[2] != "moca")
    specs = [RunSpec(workload="mcf", config=config.name, policy=policy,
                     n_accesses=20_000)
             for _, config, policy in columns]
    tracemalloc.start()
    try:
        base = _traced_after(lambda: None)
        one = _traced_after(lambda: run(specs[0]))
        six = _traced_after(lambda: [run(s) for s in specs[1:]])
    finally:
        tracemalloc.stop()
    assert six - one < 64 * 1024, (base, one, six)
