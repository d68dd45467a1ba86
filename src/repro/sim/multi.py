"""Static-placement driver on 1..N cores (paper Secs. VI-A/B, Figs. 8–15).

An application spec runs one core; a mix spec (e.g. ``"2L1B1N"``) runs
one core per application against a shared memory system.  Placement is
decided once, at allocation time, by the spec's policy.  One core
drains through :meth:`~repro.cpu.core.InOrderWindowCore.run_to_completion`;
several interleave their MLP episodes in global time order (the core
with the earliest next issue goes first, ties on core id), so requests
from different cores contend for the same banks, buses and queues — the
contention that separates the memory systems in the multicore figures.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.cpu.core import InOrderWindowCore, run_interleaved
from repro.moca.policy import build_policy
from repro.obs.registry import OBS
from repro.sim.metrics import RunMetrics
from repro.sim.single import boot, filter_provenance, finish, \
    policy_context

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.spec import RunSpec


def _run_static(spec: "RunSpec") -> RunMetrics:
    """Static-placement driver behind :func:`repro.sim.run`."""
    apps = spec.apps
    pspec, context = policy_context(
        spec.policy, apps, spec.input_name, spec.n_accesses,
        config=spec.system_config, thresholds=spec.thresholds,
        faults=spec.faults)
    label = pspec.label()
    with OBS.span(f"run.{spec.workload}.{label}", system=spec.config,
                  n_cores=len(apps)):
        booted = boot(spec, label, partial(build_policy, pspec, context),
                      faults=spec.faults)
        plan, memsys = booted.plan, booted.memsys
        cores = [InOrderWindowCore(s, plan.groups[i], plan.gaddrs[i],
                                   core_id=i)
                 for i, s in enumerate(booted.streams)]
        with OBS.span("core_replay", workload=spec.workload):
            if len(cores) == 1:
                results = [cores[0].run_to_completion(memsys)]
            else:
                results = run_interleaved(cores, memsys)
        provenance = {a: filter_provenance(a, spec.input_name,
                                           spec.n_accesses) for a in apps}
        meta = {"placement": plan.stats.to_dict(),
                "filter": provenance if spec.is_multi
                else provenance[apps[0]],
                "accesses": spec.n_accesses * len(apps)}
        if spec.trace_chunk_accesses is not None:
            meta["trace_chunk_accesses"] = spec.trace_chunk_accesses
        return finish(spec, label, results, memsys, **meta)
