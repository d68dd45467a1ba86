"""Benchmarks for the beyond-the-paper experiments (devices, taillat)."""

from repro.experiments import devices, taillat


def test_devices_characterization(benchmark):
    fig = benchmark(devices.compute)
    print("\n" + fig.render())
    by_dev = {r[0]: r for r in fig.rows}
    cols = fig.columns
    conflict = cols.index("conflict_ns")
    stream = cols.index("stream_gbps")
    # Sec. II character: RLDRAM latency leader, HBM bandwidth leader,
    # LPDDR2 laggard on both.
    assert by_dev["RLDRAM3"][conflict] == min(r[conflict] for r in fig.rows)
    assert by_dev["HBM"][stream] == max(r[stream] for r in fig.rows)
    assert by_dev["LPDDR2"][stream] == min(r[stream] for r in fig.rows)


def test_taillat_percentiles(benchmark, fidelity):
    fig = benchmark(taillat.compute, fidelity)
    print("\n" + fig.render())
    cols = fig.columns
    for row in fig.rows:
        app = row[0]
        # RL's p99 is the shortest tail everywhere.
        rl_p99 = row[cols.index("RL_p99")]
        for label in ("DDR3", "Heter-App", "MOCA"):
            assert rl_p99 <= row[cols.index(f"{label}_p99")], (app, label)
    # MOCA matches RL's p50 bucket for the chase-dominated apps.
    for app in ("mcf", "disparity"):
        row = fig.row(app)
        assert row[cols.index("MOCA_p50")] <= row[cols.index("DDR3_p50")]


def test_obs_disabled_overhead():
    """Disabled observability must cost < 5% of a TINY run's wall-time.

    The registry's hot-path hooks are single ``if OBS.enabled`` guards
    or registry calls that return at once while disabled.  Estimate
    their disabled-mode cost as (number of registry calls a TINY run
    makes with OBS enabled — each stands for one guard or no-op call
    when disabled) x (measured cost of one disabled registry call), and
    require that to be under 5% of the run's wall-time.  Both timings
    take the fastest of five, the sample least inflated by noise.
    """
    import time
    from timeit import repeat

    from repro.experiments.runner import TINY
    from repro.obs.registry import OBS
    from repro.sim.config import HOMOGEN_DDR3
    from repro.sim.spec import RunSpec, run

    assert not OBS.enabled
    spec = RunSpec("mcf", HOMOGEN_DDR3.name, "homogen", TINY.n_single)
    run(spec)  # warm caches
    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        run(spec)
        walls.append(time.perf_counter() - t0)
    run_wall = min(walls)

    calls = {"add": 0, "gauge": 0, "span": 0}

    def counted(name):
        method = getattr(OBS, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return call

    OBS.reset().enable()
    for name in calls:
        setattr(OBS, name, counted(name))
    try:
        run(spec)
    finally:
        for name in calls:
            delattr(OBS, name)  # back to the class's methods
        OBS.reset().disable()
    n_sites = sum(calls.values())

    per_op = min(repeat(lambda: OBS.add("x", 1), number=100_000,
                        repeat=5)) / 100_000
    estimated = n_sites * per_op / run_wall
    print(f"\nobs disabled overhead: {n_sites} registry calls {calls} x "
          f"{per_op * 1e9:.0f}ns / {run_wall:.3f}s = {estimated:.4%}")
    assert estimated < 0.05, (calls, per_op, run_wall, estimated)
