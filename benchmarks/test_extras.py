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
    (plus a no-op span handout).  Estimate their disabled-mode cost as
    (number of guard sites a TINY run actually hits) x (measured cost of
    one disabled registry call), and require that to be under 5% of the
    run's wall-time.
    """
    import time
    from timeit import timeit

    from repro.experiments.runner import TINY
    from repro.obs.registry import OBS
    from repro.sim.config import HOMOGEN_DDR3
    from repro.sim.spec import RunSpec, run

    assert not OBS.enabled
    spec = RunSpec("mcf", HOMOGEN_DDR3.name, "homogen", TINY.n_single)
    run(spec)  # warm caches
    t0 = time.perf_counter()
    run(spec)
    run_wall = time.perf_counter() - t0

    OBS.reset().enable()
    try:
        run(spec)
        # Each enabled-mode registry touch corresponds to one disabled
        # guard evaluation: two per memory batch (controller + system),
        # one per page placement, one per span/instant event, plus a
        # small constant for the per-run publish/meta hooks.
        batches = OBS.counters.get("memsys.batches", 0)
        placements = sum(v for k, v in OBS.counters.items()
                         if k.startswith("alloc.placed."))
        n_sites = 2 * batches + placements + len(OBS.events) + 16
    finally:
        OBS.reset().disable()

    per_op = timeit(lambda: OBS.add("x", 1), number=100_000) / 100_000
    estimated = n_sites * per_op / run_wall
    print(f"\nobs disabled overhead: {n_sites} sites x {per_op * 1e9:.0f}ns"
          f" / {run_wall:.3f}s = {estimated:.4%}")
    assert estimated < 0.05, (n_sites, per_op, run_wall, estimated)
