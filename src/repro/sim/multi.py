"""Multicore experiment runner (paper Sec. VI-B, Figs. 10–15).

Four cores run one application each against a shared memory system.  The
driver interleaves the cores' MLP episodes in global time order (the core
with the earliest next issue goes first), so requests from different
cores contend for the same banks, buses and queues — the contention that
separates the memory systems in the paper's multicore figures.
"""

from __future__ import annotations

from repro.cpu.core import CoreParams, InOrderWindowCore, run_interleaved
from repro.faults.inject import apply_system_faults, arm_allocator
from repro.faults.plan import FaultPlan
from repro.moca.classify import Thresholds
from repro.moca.allocation import plan_placement
from repro.moca.policy import PolicySpec, build_policy
from repro.obs.provenance import run_meta
from repro.obs.registry import OBS
from repro.sim.config import SystemConfig
from repro.sim.metrics import RunMetrics, collect_metrics
from repro.sim.single import filter_provenance, filtered_stream, \
    policy_context
from repro.workloads.inputs import REF, build_app_trace
from repro.workloads.mixes import WorkloadMix, mix as make_mix


def _run_multi(workload: WorkloadMix | str, config: SystemConfig,
               policy: str | PolicySpec, *, input_name: str = REF,
               n_accesses: int = 60_000,
               thresholds: Thresholds | None = None,
               profile_accesses: int | None = None,
               core_params: CoreParams | None = None,
               faults: FaultPlan | None = None,
               fast_path: bool | None = None) -> RunMetrics:
    """Run a 4-app workload set on a fresh instance of ``config``.

    Internal driver behind :func:`repro.sim.run`.

    Args:
        workload: A :class:`WorkloadMix` or its name (e.g. ``"2L1B1N"``).
        n_accesses: Trace length *per core*.
    """
    if isinstance(workload, str):
        workload = make_mix(workload)
    pspec, context = policy_context(
        policy, list(workload.apps), input_name, n_accesses, config=config,
        thresholds=thresholds, profile_accesses=profile_accesses,
        faults=faults)
    label = pspec.label()
    with OBS.span(f"run.{workload.name}.{label}", system=config.name,
                  n_cores=len(workload.apps)):
        streams = [filtered_stream(a, input_name, n_accesses, fast_path)[0]
                   for a in workload.apps]
        layouts = [build_app_trace(a, input_name, n_accesses).layout
                   for a in workload.apps]
        with OBS.span("placement", policy=label):
            memsys = config.build()
            if faults is not None:
                apply_system_faults(memsys, faults)
            allocator = config.make_allocator(memsys)
            if faults is not None:
                arm_allocator(allocator, faults)
            policy_obj = build_policy(pspec, context)
            plan = plan_placement(streams, policy_obj, allocator,
                                  layouts=layouts)
        cores = [
            InOrderWindowCore(s, plan.groups[i], plan.gaddrs[i],
                              core_params, core_id=i, fast_path=fast_path)
            for i, s in enumerate(streams)
        ]

        # Global-time interleave: always advance the core whose next episode
        # issues earliest.  Ties break on core id for determinism.
        with OBS.span("core_replay", mix=workload.name):
            results = run_interleaved(cores, memsys)
        meta = run_meta(config=config, policy=label,
                        workload=workload.name, thresholds=thresholds,
                        faults=faults)
        meta["placement"] = plan.stats.to_dict()
        meta["fast_path"] = cores[0].fast_path if cores else True
        meta["filter"] = {
            a: filter_provenance(a, input_name, n_accesses)
            for a in workload.apps}
        meta["accesses"] = n_accesses * len(workload.apps)
        return collect_metrics(config.name, label, workload.name,
                               results, memsys, meta=meta)


_REMOVED = {
    "run_multi": "run_multi() was removed (deprecated since the RunSpec "
                 "API landed); build a spec and call repro.sim.run — "
                 "run(RunSpec('2L1B1N', 'Heter-config1', 'moca', 60_000)). "
                 "Ad-hoc SystemConfig objects can be registered in "
                 "repro.sim.config.ALL_SYSTEMS to become addressable by "
                 "name (see docs/extending.md)",
}


def __getattr__(name: str):
    if name in _REMOVED:
        raise AttributeError(_REMOVED[name])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
