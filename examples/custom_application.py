#!/usr/bin/env python
"""Bring your own application: profile, classify, and place a new app.

The downstream-user workflow the MOCA framework is built for: describe
your application's memory objects (or capture them with a tracing tool),
profile it once offline, and let MOCA type every allocation site.  Here
we model a toy in-memory key-value store:

* a big hash index — random, dependent probes (latency-bound);
* a value log — sequential scans for range queries (bandwidth-bound);
* a small LRU metadata cache — cache-resident (neither).

Run:  python examples/custom_application.py
"""

from repro import (
    HETER_CONFIG1,
    MocaFramework,
    ObjectBehavior,
    TraceBuilder,
)
from repro.cpu.core import InOrderWindowCore
from repro.cpu.hierarchy import CacheHierarchy
from repro.moca.allocation import MocaPolicy, plan_placement
from repro.moca.profiler import MemoryObjectProfiler
from repro.sim.metrics import collect_metrics
from repro.util.rng import stream
from repro.util.units import KIB, MIB

KV_STORE = [
    ObjectBehavior("hash_index", 24 * MIB, weight=0.35, pattern="chase",
                   gap_mean=15, burst_mean=16, write_frac=0.1, site=9001),
    ObjectBehavior("value_log", 20 * MIB, weight=0.25, pattern="strided",
                   stride=256, gap_mean=6, burst_mean=96, write_frac=0.3,
                   site=9002),
    ObjectBehavior("lru_meta", 192 * KIB, weight=0.25, pattern="hotspot",
                   hot_fraction=0.3, hot_weight=0.99, gap_mean=6,
                   burst_mean=8, write_frac=0.4, site=9003),
]


def main() -> None:
    # 1. Build a training trace and profile it.
    builder = TraceBuilder(KV_STORE)
    train = builder.build(120_000, stream("kvstore", "train"))
    profiled = MemoryObjectProfiler().profile_trace(train, "kvstore")
    print("== kvstore profile ==")
    for p in sorted(profiled.lut, key=lambda p: -p.llc_mpki):
        print(f"  {p.label:20s} MPKI={p.llc_mpki:6.2f} "
              f"stall/miss={p.stall_per_load_miss:5.1f}")

    # 2. Classify and inspect the instrumented types.
    moca = MocaFramework()
    instrumented = moca.instrument("kvstore", profiled)
    print("\n== classification ==")
    for b in KV_STORE:
        typ = instrumented.type_of_site(b.site)
        print(f"  {b.name:20s} -> {typ.value if typ else 'unprofiled'}")

    # 3. Run the *test* input on the heterogeneous system under MOCA.
    test = TraceBuilder(KV_STORE).build(120_000, stream("kvstore", "test"))
    mstream, _ = CacheHierarchy().filter_trace(test)
    memsys = HETER_CONFIG1.build()
    allocator = HETER_CONFIG1.make_allocator(memsys)
    policy = MocaPolicy([moca.runtime_types(instrumented, test.layout)],
                        [moca.runtime_heat(instrumented, test.layout)])
    plan = plan_placement([mstream], policy, allocator,
                          layouts=[test.layout])
    core = InOrderWindowCore(mstream, plan.groups[0], plan.gaddrs[0])
    result = core.run_to_completion(memsys)
    metrics = collect_metrics(HETER_CONFIG1.name, "moca", "kvstore",
                              [result], memsys)

    print("\n== placement outcome ==")
    for group, pool in allocator.pools.items():
        gname = memsys.groups[group].name
        print(f"  {gname:10s} {pool.n_allocated:6d} pages "
              f"({pool.n_allocated * 4 // 1024} MiB)")
    print(f"\nIPC={metrics.ipc:.3f}  mem power={metrics.mem_power_w:.3f} W  "
          f"mean request latency="
          f"{metrics.mem_access_cycles / max(1, metrics.n_requests):.1f} cyc")


if __name__ == "__main__":
    main()
