"""End-to-end MOCA pipeline (paper Fig. 7).

:class:`MocaFramework` ties the offline half together: profile an
application on its training input, classify every named object, and emit
an :class:`InstrumentedApp` — the reproduction's analogue of the paper's
instrumented binary, carrying (object name → type) metadata.  At runtime
the framework resolves those names against the reference input's objects
to give :class:`~repro.moca.allocation.MocaPolicy` its object-type maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.moca.classify import DEFAULT_THRESHOLDS, Thresholds, classify_object
from repro.moca.naming import ObjectName, name_from_site
from repro.moca.profiler import ProfiledApp, profile_app
from repro.obs.registry import OBS
from repro.trace.events import VirtualLayout
from repro.vm.heap import ObjectType
from repro.workloads.inputs import TRAIN

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan


@dataclass(frozen=True)
class InstrumentedApp:
    """Classification metadata instrumented into an application binary.

    Attributes:
        app_name: The application.
        types: Object name → profiled type (the extra ``malloc`` argument
            of paper Sec. III-C).
        thresholds: Thresholds the classification used.
    """

    app_name: str
    types: dict[ObjectName, ObjectType] = field(default_factory=dict)
    thresholds: Thresholds = DEFAULT_THRESHOLDS
    #: Profiled miss density (LLC misses per KiB of object) per name —
    #: MOCA's runtime uses it to give hot objects first claim on their
    #: preferred module (Sec. VI-B).
    heat: dict[ObjectName, float] = field(default_factory=dict)

    def type_of_site(self, site: int) -> ObjectType | None:
        """Type for an allocation site, or None if never profiled."""
        return self.types.get(name_from_site(site))

    def heat_of_site(self, site: int) -> float:
        """Profiled miss density for a site (0 if never profiled)."""
        return self.heat.get(name_from_site(site), 0.0)

    def partition_histogram(self) -> dict[ObjectType, int]:
        counts = {t: 0 for t in ObjectType}
        for t in self.types.values():
            counts[t] += 1
        return counts


class MocaFramework:
    """Profile → classify → instrument → (runtime) object-type maps.

    Args:
        faults: Optional :class:`~repro.faults.FaultPlan`.  When the plan
            carries a guidance fault, the profiling LUT is degraded
            (entries dropped or scrambled) *before* classification —
            modelling stale or mismatched training-input profiles — so
            the instrumented metadata, not the simulator, is what lies.
    """

    def __init__(self, thresholds: Thresholds = DEFAULT_THRESHOLDS,
                 profile_input: str = TRAIN,
                 profile_accesses: int = 200_000,
                 faults: "FaultPlan | None" = None):
        self.thresholds = thresholds
        self.profile_input = profile_input
        self.profile_accesses = profile_accesses
        self.faults = faults

    def _apply_faults(self, profiled: ProfiledApp) -> ProfiledApp:
        if self.faults is not None and self.faults.has_lut_fault:
            # Deferred import: repro.faults is a leaf layer, but keep the
            # dependency out of the hot path for clean runs.
            from repro.faults.inject import apply_lut_faults

            profiled = apply_lut_faults(profiled, self.faults)
        return profiled

    def profiled(self, app_name: str) -> ProfiledApp:
        """Profile one application (training input, guidance faults
        applied) — the classifier-agnostic half of the offline stage."""
        return self._apply_faults(profile_app(
            app_name, self.profile_input, self.profile_accesses))

    def _instrument_one(self, app_name: str, profiled: ProfiledApp,
                        types: "dict[ObjectName, ObjectType]",
                        ) -> InstrumentedApp:
        heat = {
            p.name: p.llc_mpki / max(1.0, p.size_bytes / 1024.0)
            for p in profiled.lut
        }
        OBS.add("moca.objects_classified", len(types))
        return InstrumentedApp(app_name=app_name, types=types,
                               thresholds=self.thresholds, heat=heat)

    def instrument(self, app_name: str,
                   profiled: ProfiledApp | None = None) -> InstrumentedApp:
        """Run the offline stage for one application (Fig. 5 thresholds).

        Classifier-pluggable variants go through :meth:`instrument_many`
        with a :class:`~repro.moca.policy.ClassificationPolicy`; this
        method is the threshold special case and produces bit-identical
        metadata to ``instrument_many`` with a ``ThresholdClassifier``.
        """
        if profiled is None:
            profiled = profile_app(
                app_name, self.profile_input, self.profile_accesses)
        profiled = self._apply_faults(profiled)
        types = {
            p.name: classify_object(p, self.thresholds)
            for p in profiled.lut
        }
        return self._instrument_one(app_name, profiled, types)

    def instrument_many(self, app_names, classifier,
                        budget=None) -> list[InstrumentedApp]:
        """Offline stage for a set of co-running applications.

        ``classifier`` follows the
        :class:`~repro.moca.policy.ClassificationPolicy` protocol and
        sees every core's LUT at once together with the shared fast-tier
        ``budget`` (:class:`~repro.moca.policy.CapacityBudget`, or
        ``None`` for unlimited) — capacity-aware policies need the
        global view to arbitrate the tier between cores.
        """
        if budget is None:
            from repro.moca.policy import UNLIMITED
            budget = UNLIMITED
        profs = [self.profiled(a) for a in app_names]
        per_app_types = classifier.classify([p.lut for p in profs], budget)
        return [self._instrument_one(a, prof, types)
                for a, prof, types in zip(app_names, profs, per_app_types)]

    def runtime_types(self, instrumented: InstrumentedApp,
                      layout: VirtualLayout) -> dict[int, ObjectType]:
        """Resolve instrumented names against a runtime layout's objects.

        Objects whose allocation site was never profiled stay out of the
        map — the allocator defaults them to the power module, exactly
        like the paper's unclassified pages.
        """
        out: dict[int, ObjectType] = {}
        for obj in layout.objects:
            typ = instrumented.type_of_site(obj.site)
            if typ is not None:
                out[obj.obj_id] = typ
        return out

    def runtime_heat(self, instrumented: InstrumentedApp,
                     layout: VirtualLayout) -> dict[int, float]:
        """Resolve profiled miss densities against a runtime layout."""
        return {
            obj.obj_id: instrumented.heat_of_site(obj.site)
            for obj in layout.objects
            if instrumented.heat_of_site(obj.site) > 0.0
        }
