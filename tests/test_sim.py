"""Tests for system configs, metrics, and the single/multicore runners."""

import pytest

from repro.moca.policy import PolicyContext, build_policy
from repro.sim.config import (
    ALL_SYSTEMS,
    CAPACITY_SCALE,
    HETER_CONFIG1,
    HETER_CONFIG2,
    HETER_CONFIG3,
    HOMOGEN_DDR3,
    HOMOGEN_HBM,
    HOMOGEN_LP,
    HOMOGEN_RL,
    GroupSpec,
    SystemConfig,
)
from repro.sim.metrics import CORE_POWER_W, RunMetrics
from repro.sim.spec import RunSpec, run
from repro.util.units import MIB

N = 20_000  # short traces for unit-level checks
NM = 12_000


class TestConfigs:
    def test_scale_factor(self):
        assert CAPACITY_SCALE == 8

    def test_homogeneous_geometry(self):
        sys = HOMOGEN_DDR3.build()
        assert len(sys.groups) == 1
        assert sys.groups[0].n_channels == 4
        assert sys.capacity_bytes == 4 * 512 * MIB // 8

    def test_config1_geometry(self):
        """Sec. V-C: 256 MB RLDRAM + 768 MB HBM + 2x512 MB LPDDR2."""
        sys = HETER_CONFIG1.build()
        assert sys.group("lat").capacity_bytes == 256 * MIB // 8
        assert sys.group("bw").capacity_bytes == 768 * MIB // 8
        assert sys.group("pow").capacity_bytes == 1024 * MIB // 8
        assert sys.group("pow").n_channels == 2

    def test_config_totals_match_paper(self):
        assert HETER_CONFIG1.total_paper_mb == 2048
        assert HETER_CONFIG2.total_paper_mb == 2048
        assert HETER_CONFIG3.total_paper_mb == 2048
        assert HOMOGEN_DDR3.total_paper_mb == 2048

    def test_four_controllers_in_configs_1_2(self):
        for cfg in (HETER_CONFIG1, HETER_CONFIG2):
            assert sum(g.n_channels for g in cfg.groups) == 4

    def test_roles(self):
        assert HETER_CONFIG1.roles() == {"lat": 0, "bw": 1, "pow": 2}
        assert HOMOGEN_LP.roles() == {"main": 0}

    def test_fresh_build_each_time(self):
        assert HOMOGEN_RL.build() is not HOMOGEN_RL.build()

    def test_allocator_pools_match_groups(self):
        sys = HETER_CONFIG1.build()
        alloc = HETER_CONFIG1.make_allocator(sys)
        assert set(alloc.pools) == {0, 1, 2}
        assert alloc.pools[0].n_frames == sys.group("lat").capacity_bytes // 4096

    def test_registry(self):
        from repro.sim.config import CAPACITY_POINTS
        # The paper's seven systems plus the capacity-sweep family.
        assert len(ALL_SYSTEMS) == 7 + len(CAPACITY_POINTS)
        assert "Homogen-DDR3" in ALL_SYSTEMS
        for mb in CAPACITY_POINTS:
            cfg = ALL_SYSTEMS[f"Heter-cap{mb}"]
            assert cfg.fast_tier_bytes() == mb * (1 << 20) // 8

    def test_custom_config(self):
        cfg = SystemConfig("x", (GroupSpec("main", "HBM", 2, 256),))
        sys = cfg.build()
        assert sys.groups[0].timing.name == "HBM"


class TestMetricsType:
    def _metrics(self, **kw):
        base = dict(system="s", policy="p", workload="w", n_cores=4,
                    exec_cycles=1_000_000, mem_access_cycles=500_000,
                    mem_power_w=0.5, mem_energy_j=0.001,
                    total_instructions=2_000_000, n_requests=100,
                    row_hit_rate=0.5, load_stall_cycles=1000,
                    n_load_misses=100)
        base.update(kw)
        return RunMetrics(**base)

    def test_memory_edp_is_power_times_access_time(self):
        m = self._metrics()
        assert m.memory_edp == pytest.approx(0.5 * 500_000 * 1e-9)

    def test_system_power_includes_cores(self):
        m = self._metrics()
        assert m.system_power_w == pytest.approx(4 * CORE_POWER_W + 0.5)

    def test_system_edp_energy_times_delay(self):
        m = self._metrics()
        t = m.exec_seconds
        assert m.system_edp == pytest.approx(m.system_power_w * t * t)

    def test_ipc(self):
        assert self._metrics().ipc == pytest.approx(2.0)

    def test_stall_per_load_miss(self):
        assert self._metrics().stall_per_load_miss == pytest.approx(10.0)

    def test_four_core_power_is_21w(self):
        """Paper Sec. V-A: calibrated 21 W total core power."""
        assert self._metrics().core_power_w == pytest.approx(21.0)


class TestRunSingle:
    def test_returns_metrics(self):
        m = run(RunSpec("sift", HOMOGEN_DDR3.name, "homogen", N))
        assert m.n_cores == 1
        assert m.exec_cycles > 0
        assert m.n_requests > 0
        assert m.mem_power_w > 0

    def test_policies_on_hetero(self):
        for policy in ("heter-app", "moca"):
            m = run(RunSpec("gcc", HETER_CONFIG1.name, policy, N))
            assert m.policy == policy

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            run(RunSpec("gcc", HOMOGEN_DDR3.name, "random", N))

    def test_rl_faster_than_lp(self):
        rl = run(RunSpec("mcf", HOMOGEN_RL.name, "homogen", N))
        lp = run(RunSpec("mcf", HOMOGEN_LP.name, "homogen", N))
        assert rl.mem_access_cycles < lp.mem_access_cycles

    def test_deterministic(self):
        a = run(RunSpec("stitch", HOMOGEN_HBM.name, "homogen", N))
        b = run(RunSpec("stitch", HOMOGEN_HBM.name, "homogen", N))
        assert a.exec_cycles == b.exec_cycles
        assert a.mem_access_cycles == b.mem_access_cycles

    def test_moca_policy_has_heat(self):
        p = build_policy("moca", PolicyContext(
            app_names=("mcf",), input_name="ref", n_accesses=N,
            profile_accesses=N))
        assert p.object_types[0]
        assert any(h > 0 for h in p.object_heat[0].values())


class TestRunMulti:
    def test_four_cores(self):
        m = run(RunSpec("1B3N", HOMOGEN_DDR3.name, "homogen", NM))
        assert m.n_cores == 4
        assert len(m.per_core) == 4
        assert all(r.cycles > 0 for r in m.per_core)

    def test_contention_slows_shared_system(self):
        solo = run(RunSpec("lbm", HOMOGEN_DDR3.name, "homogen", NM))
        multi = run(RunSpec("4B", HOMOGEN_DDR3.name, "homogen", NM))
        lbm_core = next(r for r in multi.per_core
                        if r.core_id == 1)  # 4B = mser, lbm, tracking, mser
        assert lbm_core.mem_access_cycles > solo.mem_access_cycles

    def test_exec_is_max_core(self):
        m = run(RunSpec("2B2N", HOMOGEN_HBM.name, "homogen", NM))
        assert m.exec_cycles == max(r.cycles for r in m.per_core)

    def test_moca_beats_heter_app_on_3l1b(self):
        het = run(RunSpec("3L1B", HETER_CONFIG1.name, "heter-app", NM))
        moca = run(RunSpec("3L1B", HETER_CONFIG1.name, "moca", NM))
        assert moca.mem_access_cycles < het.mem_access_cycles


class TestFilteredStreamMemoization:
    """The memoized cache-filter pass hands out shared objects.

    Callers across single-, multi-core, and profiling paths receive the
    *same* ``(MissStream, CacheStats)`` instances and must never mutate
    them — see the :func:`repro.sim.single.filtered_stream` docstring.
    """

    def test_same_key_returns_identical_objects(self):
        from repro.sim.single import filtered_stream
        a_stream, a_stats = filtered_stream("stitch", "ref", N)
        b_stream, b_stats = filtered_stream("stitch", "ref", N)
        assert a_stream is b_stream
        assert a_stats is b_stats

    def test_distinct_keys_are_independent(self):
        from repro.sim.single import filtered_stream
        a, _ = filtered_stream("stitch", "ref", N)
        b, _ = filtered_stream("stitch", "ref", N + 1)
        assert a is not b
