"""Single-core runner under the online guidance service.

``RunSpec(..., policy="moca", online=OnlineSpec(...))`` dispatches here
through :func:`repro.sim.run`.  The run starts exactly like the offline
pipeline — profile on the training input, classify, place at malloc
time — then replays the miss stream in epochs: after each epoch the
tenant reports an :class:`~repro.service.samples.EpochSample` to the
:class:`~repro.service.GuidanceService`, which may reclassify drifted
objects and migrate their pages (cost charged to the core before the
next epoch, like the hot-page migrator).

Fault semantics (``spec.faults``):

* **capacity/timing faults** fire at epoch ``online.fault_epoch``
  (0 = at boot, byte-identical to the offline driver's arming); a
  mid-run firing additionally triggers the service's forced
  re-placement of stranded pages under the normal migration budget;
* **guidance faults** (``lut_drop_fraction`` / ``lut_scramble_fraction``)
  corrupt the *telemetry channel* instead of the offline LUT: each
  epoch's sample may go missing or arrive garbled, and the service must
  reject it and hold the last good placement.  The offline profile is
  built clean — drift hardening is about what happens after launch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cpu.core import CoreParams, CoreResult, InOrderWindowCore
from repro.faults.inject import _apply_pool_faults, apply_system_faults, \
    arm_allocator
from repro.moca.allocation import MocaPolicy, plan_placement
from repro.moca.classify import Thresholds
from repro.moca.framework import MocaFramework
from repro.moca.policy import build_classifier
from repro.obs.provenance import run_meta
from repro.obs.registry import OBS
from repro.service import GuidanceService, build_epoch_sample, degrade_sample
from repro.sim.metrics import RunMetrics, collect_metrics
from repro.sim.migration import _merge_results
from repro.sim.single import filtered_stream, policy_context
from repro.workloads.inputs import app_layout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.spec import RunSpec

__all__ = ["run_online"]


def run_online(spec: "RunSpec") -> RunMetrics:
    """Public alias of the online driver (quickstart entry point).

    Equivalent to ``repro.sim.run(spec)`` for a spec whose ``online``
    field is set; raises if it is not.
    """
    if spec.online is None:
        raise ValueError("run_online needs a spec with online=OnlineSpec(...)")
    return _run_online(spec)


def _run_online(spec: "RunSpec",
                core_params: CoreParams | None = None) -> RunMetrics:
    ospec = spec.online
    config = spec.system_config
    app_name = spec.workload
    pspec, context = policy_context(
        spec.policy, [app_name], spec.input_name, spec.n_accesses,
        config=config, thresholds=spec.thresholds, faults=None)
    label = f"online-{pspec.label()}"
    with OBS.span(f"run.{app_name}.{label}", system=config.name):
        stream, _ = filtered_stream(app_name, spec.input_name,
                                    spec.n_accesses)
        layout = app_layout(app_name, spec.input_name)

        # ---- offline stage: profile, classify, place at malloc time ----
        classifier = build_classifier(pspec, context)
        fw = MocaFramework(
            thresholds=context.thresholds or Thresholds(),
            profile_accesses=context.profile_accesses or context.n_accesses,
            faults=None)
        instrumented = fw.instrument_many([app_name], classifier,
                                          context.budget)[0]
        types = fw.runtime_types(instrumented, layout)
        heat = fw.runtime_heat(instrumented, layout)

        memsys = config.build()
        boot_fault = spec.faults is not None and ospec.fault_epoch == 0
        if boot_fault:
            apply_system_faults(memsys, spec.faults)
        allocator = config.make_allocator(memsys)
        if boot_fault:
            arm_allocator(allocator, spec.faults)
        with OBS.span("placement", policy=label):
            plan = plan_placement([stream], MocaPolicy([types], [heat]),
                                  allocator, layouts=[layout])
        pt = allocator.page_table
        version = pt.version  # the state plan.groups/gaddrs translate

        # ---- register with the guidance service ------------------------
        service = GuidanceService(ospec)
        tenant = service.register(
            app_name, allocator=allocator, memsys=memsys, layout=layout,
            lut=fw.profiled(app_name).lut, classifier=classifier,
            types=types, heat=heat, budget=context.budget)
        if boot_fault and spec.faults.has_capacity_fault:
            # Pages placed before the trigger fired may be stranded in a
            # now-offline pool; evacuate them under the epoch budget.
            service.on_capacity_fault(tenant)

        # ---- epoch replay ----------------------------------------------
        # Epochs slice one translation (of records from ``tr_start`` on);
        # the rest is re-translated only after the page table changed.
        groups, gaddrs, tr_start = plan.groups[0], plan.gaddrs[0], 0
        n = len(stream)
        epoch_len = max(1, ospec.epoch_misses)
        cycle = 0
        inst_prev = 0
        results: list[CoreResult] = []
        start = 0
        epoch = 0
        mid_fault_pending = (spec.faults is not None
                             and ospec.fault_epoch > 0)
        with OBS.span("online_replay", app=app_name):
            while start < n:
                if mid_fault_pending and epoch >= ospec.fault_epoch:
                    mid_fault_pending = False
                    apply_system_faults(memsys, spec.faults)
                    _apply_pool_faults(allocator, spec.faults)
                    if spec.faults.has_capacity_fault:
                        service.on_capacity_fault(tenant)
                stop = min(n, start + epoch_len)
                sl = stream.slice(start, stop)
                if pt.version != version:
                    pages, inverse = stream.page_split()
                    groups, gaddrs = pt.translate_lines(
                        stream.vline[start:], (pages, inverse[start:]))
                    version, tr_start = pt.version, start
                core = InOrderWindowCore(
                    sl, groups[start - tr_start:stop - tr_start],
                    gaddrs[start - tr_start:stop - tr_start], core_params,
                    start_cycle=cycle, inst_prev=inst_prev)
                res = core.run_to_completion(memsys)
                results.append(res)
                cycle = res.cycles
                inst_now = int(sl.inst[-1])
                sample = build_epoch_sample(epoch, sl, res,
                                            instructions=inst_now - inst_prev)
                inst_prev = inst_now
                if spec.faults is not None:
                    sample = degrade_sample(sample, spec.faults, app_name)
                decision = service.end_epoch(tenant, sample)
                cycle += decision.overhead_cycles
                start = stop
                epoch += 1

        params = core_params or CoreParams()
        cycle += params.cycles_for(stream.total_instructions - inst_prev)
        total = _merge_results(results, cycle, stream.total_instructions)
        meta = run_meta(config=config, policy=label, workload=app_name,
                        thresholds=spec.thresholds, faults=spec.faults)
        meta["placement"] = plan.stats.to_dict()
        meta["accesses"] = spec.n_accesses
        meta["online"] = ospec.canonical()
        meta["service"] = tenant.stats.to_dict()
        meta["migration"] = tenant.migration.to_dict()
        return collect_metrics(config.name, label, app_name,
                               [total], memsys, meta=meta)
