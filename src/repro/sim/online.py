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

from functools import partial
from typing import TYPE_CHECKING

from repro.cpu.core import CoreResult
from repro.cpu.hierarchy import MissStream
from repro.faults.inject import _apply_pool_faults, apply_system_faults
from repro.moca.policy import build_classifier, classified_policy
from repro.moca.profiler import profile_app
from repro.obs.registry import OBS
from repro.service import GuidanceService, build_epoch_sample, degrade_sample
from repro.sim.metrics import RunMetrics
from repro.sim.migration import run_epochs
from repro.sim.single import boot, finish, policy_context
from repro.workloads.inputs import TRAIN, app_layout

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


def _run_online(spec: "RunSpec") -> RunMetrics:
    ospec = spec.online
    faults = spec.faults
    app_name = spec.workload
    # The offline profile is built clean: guidance faults corrupt the
    # telemetry channel below, not the LUT.
    pspec, context = policy_context(
        spec.policy, [app_name], spec.input_name, spec.n_accesses,
        config=spec.system_config, thresholds=spec.thresholds)
    label = f"online-{pspec.label()}"
    with OBS.span(f"run.{app_name}.{label}", system=spec.config):
        # ---- offline stage: profile, classify, place at malloc time ----
        classifier = build_classifier(pspec, context)
        boot_faults = faults if ospec.fault_epoch == 0 else None
        booted = boot(spec, label,
                      partial(classified_policy, context, classifier),
                      faults=boot_faults)
        memsys, allocator = booted.memsys, booted.allocator

        # ---- register with the guidance service ------------------------
        service = GuidanceService(ospec)
        tenant = service.register(
            app_name, allocator=allocator, memsys=memsys,
            layout=app_layout(app_name, spec.input_name),
            lut=profile_app(app_name, TRAIN, spec.n_accesses).lut,
            classifier=classifier, types=booted.policy.object_types[0],
            heat=booted.policy.object_heat[0], budget=context.budget)
        if boot_faults is not None and boot_faults.has_capacity_fault:
            # Pages placed before the trigger fired may be stranded in a
            # now-offline pool; evacuate them under the epoch budget.
            service.on_capacity_fault(tenant)

        # ---- epoch replay ----------------------------------------------
        def before(epoch: int) -> None:
            if faults is not None and epoch == ospec.fault_epoch > 0:
                apply_system_faults(memsys, faults)
                _apply_pool_faults(allocator, faults)
                if faults.has_capacity_fault:
                    service.on_capacity_fault(tenant)

        def after(epoch: int, sl: MissStream, res: CoreResult,
                  instructions: int) -> int:
            sample = build_epoch_sample(epoch, sl, res,
                                        instructions=instructions)
            if faults is not None:
                sample = degrade_sample(sample, faults, app_name)
            return service.end_epoch(tenant, sample).overhead_cycles

        with OBS.span("online_replay", app=app_name):
            total = run_epochs(booted, ospec.epoch_misses, after,
                               before=before)
        return finish(spec, label, [total], memsys,
                      placement=booted.plan.stats.to_dict(),
                      accesses=spec.n_accesses,
                      online=ospec.canonical(),
                      service=tenant.stats.to_dict(),
                      migration=tenant.migration.to_dict())
