"""The placement-policy API: protocol, registry, and canonical specs.

The paper's classifier is a fixed two-threshold rule (Fig. 5).  This
module makes the classification stage a first-class, pluggable policy
surface:

* :class:`ClassificationPolicy` — the protocol: profiled
  :class:`~repro.moca.lut.ProfileLUT` features (MPKI, stall/miss, size,
  read/write mix) plus a fast-tier :class:`CapacityBudget` in, per-object
  :class:`~repro.vm.heap.ObjectType` assignments out;
* the **registry** — :func:`register_policy` maps a policy name to a
  factory; :data:`~repro.sim.spec.RunSpec` validates against it and the
  runners build through it (entry-point-style registration, no central
  dispatch table to edit);
* :class:`PolicySpec` — the structured policy field of a ``RunSpec``:
  a name plus optional parameters.  Its canonical form is the *bare
  name string* when there are no parameters, so every stock-policy cache
  key is byte-identical to the pre-API era (the ``FaultPlan`` precedent:
  only non-defaults extend the canonical dict).

Stock policies (registered below): ``homogen``, ``heter-app`` and
``moca`` exactly as before, plus two capacity-aware additions —
``knapsack`` (greedy benefit-per-byte fill of the fast tier, see
:class:`KnapsackClassifier`) and ``ranker`` (a learned logistic scorer,
:mod:`repro.moca.ranker`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Protocol, \
    runtime_checkable

from repro.moca.allocation import (
    HeterAppPolicy,
    HomogeneousPolicy,
    MocaPolicy,
    PlacementPolicy,
)
from repro.moca.classify import Thresholds, class_letter_to_type, \
    classify_object
from repro.moca.framework import MocaFramework
from repro.moca.lut import ProfileLUT
from repro.moca.naming import ObjectName
from repro.trace.events import PAGE_BYTES
from repro.vm.heap import ObjectType
from repro.workloads.inputs import app_layout
from repro.workloads.spec import APP_CLASSES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan

__all__ = [
    "CapacityBudget",
    "ClassificationPolicy",
    "KnapsackClassifier",
    "PolicyContext",
    "PolicyInfo",
    "PolicySpec",
    "ThresholdClassifier",
    "UNLIMITED",
    "build_classifier",
    "build_policy",
    "classified_policy",
    "policy_canonical",
    "policy_info",
    "policy_names",
    "register_policy",
    "select_fast_tier",
    "stock_policy_names",
    "thresholds_from_dict",
    "thresholds_to_dict",
    "unregister_policy",
]


# ---- shared Thresholds serialization ----------------------------------------
#
# One canonical dict form, used by RunSpec.canonical() and the
# InstrumentedApp sidecar alike, so the two can never drift.

def thresholds_to_dict(thresholds: Thresholds) -> dict:
    """Canonical JSON-compatible form of a :class:`Thresholds`."""
    return {"thr_lat": thresholds.thr_lat, "thr_bw": thresholds.thr_bw}


def thresholds_from_dict(data: Mapping) -> Thresholds:
    """Inverse of :func:`thresholds_to_dict` (validates on construction)."""
    return Thresholds(thr_lat=data["thr_lat"], thr_bw=data["thr_bw"])


# ---- policy specs -----------------------------------------------------------

_NAME_RE = re.compile(r"^[a-z][a-z0-9_-]*$")
_PARAM_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def _coerce(text: str) -> bool | int | float | str:
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _check_param(policy: str, key: str, value: object) -> None:
    if not _PARAM_RE.match(key):
        raise ValueError(f"bad policy parameter name {key!r}")
    if not isinstance(value, (bool, int, float, str)):
        raise ValueError(
            f"policy parameter {key}={value!r} must be a bool/int/float/str "
            f"scalar (specs are hashable cache keys)")
    # The fast-tier budget every policy may carry (see
    # repro.sim.single.policy_context): a size in MB.
    if key == "fast_mb" and (isinstance(value, (bool, str))
                             or not math.isfinite(value) or value < 0):
        raise ValueError(
            f"policy {policy!r}: fast_mb={value!r} must be a finite "
            f"number of MB >= 0")


@dataclass(frozen=True)
class PolicySpec:
    """A policy name plus optional scalar parameters.

    Frozen and hashable, so it can sit directly in a
    :class:`~repro.sim.spec.RunSpec`.  Parameters are normalized to a
    key-sorted tuple; :meth:`canonical` collapses a parameterless spec to
    the bare name string, which keeps pre-API cache keys byte-stable.

    Text form (CLI and ``RunSpec(policy=...)`` strings):
    ``"knapsack"`` or ``"knapsack:fast_mb=128"`` or
    ``"ranker:fast_mb=64,foo=bar"``.
    """

    name: str
    params: tuple[tuple[str, bool | int | float | str], ...] = ()

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(f"bad policy name {self.name!r}")
        keys = [k for k, _ in self.params]
        if len(keys) != len(set(keys)):
            raise ValueError(f"duplicate policy parameter in {self.params!r}")
        for key, value in self.params:
            _check_param(self.name, key, value)
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def of(cls, name: str, **params) -> "PolicySpec":
        return cls(name, tuple(params.items()))

    @classmethod
    def parse(cls, policy: "str | PolicySpec") -> "PolicySpec":
        """``"name"`` / ``"name:k=v,..."`` / PolicySpec → PolicySpec."""
        if isinstance(policy, PolicySpec):
            return policy
        name, sep, rest = policy.partition(":")
        if not sep:
            return cls(name)
        params = []
        for part in rest.split(","):
            key, eq, value = part.partition("=")
            if not eq:
                raise ValueError(
                    f"bad policy parameter {part!r} in {policy!r} "
                    f"(expected name:key=value,...)")
            params.append((key.strip(), _coerce(value.strip())))
        return cls(name, tuple(params))

    @classmethod
    def from_canonical(cls, data: "str | Mapping") -> "PolicySpec":
        """Inverse of :meth:`canonical`."""
        if isinstance(data, str):
            return cls(data)
        return cls.of(data["name"], **dict(data.get("params", {})))

    # -- views ----------------------------------------------------------------

    def params_dict(self) -> dict:
        return dict(self.params)

    def canonical(self) -> "str | dict":
        """Cache-key form: the bare name unless parameters are present."""
        if not self.params:
            return self.name
        return {"name": self.name, "params": self.params_dict()}

    def label(self) -> str:
        """Human-readable form (``meta["policy"]``, progress spans)."""
        if not self.params:
            return self.name

        def fmt(v: object) -> str:
            # Match the parse syntax: booleans as true/false.
            return str(v).lower() if isinstance(v, bool) else str(v)

        inner = ",".join(f"{k}={fmt(v)}" for k, v in self.params)
        return f"{self.name}[{inner}]"


def policy_canonical(policy: "str | PolicySpec") -> "str | dict":
    """Canonical form of a RunSpec policy field (string or spec)."""
    return policy if isinstance(policy, str) else policy.canonical()


# ---- capacity budget & build context ---------------------------------------


@dataclass(frozen=True)
class CapacityBudget:
    """How much fast-tier (latency-optimized) capacity a classifier may
    plan for, in bytes.  ``None`` means unlimited — the pre-API
    behaviour, and what capacity-oblivious policies assume."""

    fast_bytes: int | None = None

    @property
    def unlimited(self) -> bool:
        return self.fast_bytes is None


UNLIMITED = CapacityBudget()


@dataclass(frozen=True)
class PolicyContext:
    """Everything a policy factory may need to build a runtime policy.

    The sim layer (:mod:`repro.sim.single`) fills this in from the
    :class:`~repro.sim.spec.RunSpec` and the resolved system config —
    notably the fast-tier budget, which defaults to the physical
    capacity of the config's ``lat`` role.
    """

    app_names: tuple[str, ...]
    input_name: str
    n_accesses: int
    thresholds: Thresholds | None = None
    profile_accesses: int | None = None
    faults: "FaultPlan | None" = None
    budget: CapacityBudget = UNLIMITED


# ---- the classification protocol -------------------------------------------


@runtime_checkable
class ClassificationPolicy(Protocol):
    """Per-object classification under a fast-tier capacity budget.

    ``luts`` holds one profiled LUT per core; the result holds one
    ``{object name: ObjectType}`` map per core, aligned by index.
    Implementations read LUT features only — MPKI, stall cycles per
    load miss, size, read/write mix — and must be deterministic.
    """

    def classify(self, luts: list[ProfileLUT], budget: CapacityBudget,
                 ) -> list[dict[ObjectName, ObjectType]]:
        ...  # pragma: no cover - protocol


class ThresholdClassifier:
    """The paper's Fig. 5 two-threshold rule (capacity-oblivious)."""

    def __init__(self, thresholds: Thresholds | None = None):
        self.thresholds = thresholds or Thresholds()

    def classify(self, luts: list[ProfileLUT],
                 budget: CapacityBudget = UNLIMITED,
                 ) -> list[dict[ObjectName, ObjectType]]:
        return [{p.name: classify_object(p, self.thresholds) for p in lut}
                for lut in luts]


def select_fast_tier(candidates: Iterable[tuple[object, float, int]],
                     fast_bytes: int) -> set:
    """Greedy benefit-per-byte fill of the fast tier.

    ``candidates`` are ``(key, benefit, size_bytes)`` triples; returns
    the set of chosen keys.  Fractional-knapsack flavour: whole
    candidates are taken in density order and the final pick may
    straddle the budget — page-granular allocation spills its tail
    exactly like the threshold rule's own overflow does, so packing is
    never worse than ignoring the budget.  Ties break on the key for
    determinism.
    """
    chosen: set = set()
    used = 0
    ranked = sorted(candidates,
                    key=lambda c: (-c[1] / max(1, c[2]), c[0]))
    for key, _benefit, size in ranked:
        if used >= fast_bytes:
            break
        chosen.add(key)
        used += max(1, size)
    return chosen


def _page_footprint(size_bytes: int) -> int:
    """Bytes of frame capacity an object actually consumes.

    Heap layouts are page-aligned (:class:`repro.trace.events.PlacedObject`
    packs objects at page boundaries), so an object's frame demand is its
    size rounded up to whole pages.
    """
    return -(-size_bytes // PAGE_BYTES) * PAGE_BYTES


class KnapsackClassifier:
    """Capacity-aware greedy/knapsack refinement of the Fig. 5 rule.

    Starts from the threshold classification and fills whatever fast-tier
    capacity the LAT class leaves *spare* with the densest remaining
    objects (profiled LLC misses per byte, whole objects only, greedy by
    benefit-per-byte) — capacity the threshold rule leaves idle.  BW and
    POW objects compete on equal benefit-per-byte terms: the paper avoids
    parking cold objects on the premium tier because *provisioning* fast
    memory for them wastes power, but here the module exists and its
    static power is paid whether the frames idle or not, so filling
    spare frames with whatever still misses is a strict latency win.
    Objects that never miss the LLC stay put — promoting them buys
    nothing.

    Two deliberate non-moves keep the refinement weakly dominant over the
    plain threshold rule at *every* budget:

    * no **demotion** — when the LAT class overflows the budget, the
      allocator already performs the fractional-knapsack fill for us:
      :func:`~repro.moca.allocation.plan_placement` demand-pages objects
      in heat order (miss density) and spills overflow page-granularly
      down the LAT fallback chain, whose next hop is the same BW module
      a demotion would target.  Re-typing the losers forfeits the
      straddler's partial fast-tier fill and can only tie or lose (this
      is measurable: whole-object demotion regresses mcf at small
      budgets).  So under a binding budget the assignment — and the
      simulated result — is exactly the threshold rule's.
    * no **overcommit** — promotion is accounted in page-rounded bytes
      against the page-rounded budget, so promoted objects consume only
      genuinely spare frames and can never push a LAT page out of the
      fast tier.
    """

    def __init__(self, thresholds: Thresholds | None = None):
        self.thresholds = thresholds or Thresholds()

    def classify(self, luts: list[ProfileLUT],
                 budget: CapacityBudget = UNLIMITED,
                 ) -> list[dict[ObjectName, ObjectType]]:
        assignments = ThresholdClassifier(self.thresholds).classify(
            luts, budget)
        if budget.unlimited:
            return assignments
        pool = (budget.fast_bytes // PAGE_BYTES) * PAGE_BYTES
        lat_demand = sum(
            _page_footprint(p.size_bytes)
            for core, lut in enumerate(luts) for p in lut
            if assignments[core][p.name] is ObjectType.LAT)
        spare = pool - lat_demand
        if spare <= 0:
            return assignments
        # Promotion pass: whole non-LAT objects into the spare space,
        # densest first (ties broken by core then allocation site for
        # determinism).
        promotable = sorted(
            ((core, p) for core, lut in enumerate(luts) for p in lut
             if assignments[core][p.name] is not ObjectType.LAT
             and p.llc_misses > 0),
            key=lambda cp: (-cp[1].llc_misses / max(1, cp[1].size_bytes),
                            cp[0], cp[1].name.frames))
        for core, p in promotable:
            need = _page_footprint(p.size_bytes)
            if need <= spare:
                assignments[core][p.name] = ObjectType.LAT
                spare -= need
        return assignments


# ---- the registry -----------------------------------------------------------


@dataclass(frozen=True)
class PolicyInfo:
    """One registered policy: its factory plus registry metadata."""

    name: str
    factory: Callable[[PolicySpec, PolicyContext], PlacementPolicy]
    description: str = ""
    #: Stock policies are the pre-API trio whose cache keys are pinned.
    stock: bool = False
    #: Classification-based policies also expose their bare classifier
    #: (:class:`ClassificationPolicy`), which the online guidance
    #: service re-runs against live LUT slices at every epoch boundary.
    #: ``None`` for policies without one (homogen, heter-app).
    classifier_factory: "Callable[[PolicySpec, PolicyContext], ClassificationPolicy] | None" = None


_REGISTRY: dict[str, PolicyInfo] = {}


def register_policy(name: str, *, description: str = "",
                    stock: bool = False, classifier=None):
    """Register a policy factory under ``name`` (decorator).

    The factory takes ``(spec, context)`` — the parsed
    :class:`PolicySpec` (for parameters) and the :class:`PolicyContext`
    (apps, trace length, thresholds, budget) — and returns a
    :class:`~repro.moca.allocation.PlacementPolicy`.  Registration makes
    the name valid in a :class:`~repro.sim.spec.RunSpec` and therefore
    usable from both CLIs, the sweep engine, and the result cache.

    ``classifier`` optionally registers a second factory with the same
    signature returning the policy's bare :class:`ClassificationPolicy`,
    which makes the name valid for online (``RunSpec.online``) runs —
    the guidance service re-invokes it against live-updated LUTs.
    """
    if not _NAME_RE.match(name):
        raise ValueError(f"bad policy name {name!r}")

    def deco(factory):
        if name in _REGISTRY:
            raise ValueError(f"policy {name!r} is already registered")
        _REGISTRY[name] = PolicyInfo(name, factory, description, stock,
                                     classifier)
        return factory

    return deco


def unregister_policy(name: str) -> None:
    """Remove a registered policy (tests, plugin teardown)."""
    if name in _REGISTRY and _REGISTRY[name].stock:
        raise ValueError(f"cannot unregister stock policy {name!r}")
    _REGISTRY.pop(name, None)


def policy_names() -> tuple[str, ...]:
    """All registered policy names, in registration order."""
    return tuple(_REGISTRY)


def stock_policy_names() -> tuple[str, ...]:
    """The pre-API trio: ``homogen``, ``heter-app`` and ``moca``."""
    return tuple(n for n, info in _REGISTRY.items() if info.stock)


def policy_info(name: str) -> PolicyInfo:
    """Look up one registered policy; helpful error on unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r} (choose from {policy_names()}, or "
            f"register it with repro.moca.policy.register_policy)") from None


def build_policy(policy: "str | PolicySpec",
                 context: PolicyContext) -> PlacementPolicy:
    """Build the runtime placement policy a spec names."""
    spec = PolicySpec.parse(policy)
    return policy_info(spec.name).factory(spec, context)


def build_classifier(policy: "str | PolicySpec",
                     context: PolicyContext) -> ClassificationPolicy:
    """Build the bare classifier a classification-based policy uses.

    The online guidance service calls this once at registration and then
    re-runs the returned classifier against live-updated LUT slices at
    every epoch boundary.  Raises for policies that register no
    classifier (homogen, heter-app) — there is nothing to re-evaluate.
    """
    spec = PolicySpec.parse(policy)
    info = policy_info(spec.name)
    if info.classifier_factory is None:
        raise ValueError(
            f"policy {spec.name!r} registers no classifier; online "
            f"reclassification needs a classification-based policy")
    return info.classifier_factory(spec, context)


# ---- classifier → runtime policy bridge ------------------------------------


def classified_policy(context: PolicyContext,
                      classifier: ClassificationPolicy) -> MocaPolicy:
    """Run the offline pipeline with ``classifier`` and resolve the
    resulting per-name types against each core's runtime layout.

    This is the shared back half of every classification-based policy:
    profile (training input, guidance faults applied), classify under
    the context's budget, then map object names to runtime ids.  The
    heat maps (profiled miss density, the allocation priority) come from
    the profile alone, so two classifiers that agree on types produce
    bit-identical placements.
    """
    fw = MocaFramework(
        thresholds=context.thresholds or Thresholds(),
        profile_accesses=context.profile_accesses or context.n_accesses,
        faults=context.faults,
    )
    instrumented = fw.instrument_many(context.app_names, classifier,
                                      context.budget)
    per_core_types = []
    per_core_heat = []
    for app, inst in zip(context.app_names, instrumented):
        layout = app_layout(app, context.input_name)
        per_core_types.append(fw.runtime_types(inst, layout))
        per_core_heat.append(fw.runtime_heat(inst, layout))
    return MocaPolicy(per_core_types, per_core_heat)


# ---- stock registrations ----------------------------------------------------


@register_policy("homogen", stock=True,
                 description="everything to the single channel group")
def _homogen(spec: PolicySpec, context: PolicyContext) -> PlacementPolicy:
    return HomogeneousPolicy()


@register_policy("heter-app", stock=True,
                 description="per-application class (paper Table III)")
def _heter_app(spec: PolicySpec, context: PolicyContext) -> PlacementPolicy:
    return HeterAppPolicy(
        [class_letter_to_type(APP_CLASSES[a]) for a in context.app_names])


def _moca_classifier(spec: PolicySpec,
                     context: PolicyContext) -> ClassificationPolicy:
    return ThresholdClassifier(context.thresholds)


@register_policy("moca", stock=True,
                 description="per-object Fig. 5 threshold classification",
                 classifier=_moca_classifier)
def _moca(spec: PolicySpec, context: PolicyContext) -> PlacementPolicy:
    return classified_policy(context,
                             ThresholdClassifier(context.thresholds))


def _knapsack_classifier(spec: PolicySpec,
                         context: PolicyContext) -> ClassificationPolicy:
    return KnapsackClassifier(context.thresholds)


@register_policy("knapsack",
                 description="capacity-aware greedy benefit-per-byte "
                             "allocation over the threshold candidates",
                 classifier=_knapsack_classifier)
def _knapsack(spec: PolicySpec, context: PolicyContext) -> PlacementPolicy:
    return classified_policy(context,
                             KnapsackClassifier(context.thresholds))


def _ranker_classifier(spec: PolicySpec,
                       context: PolicyContext) -> ClassificationPolicy:
    # Deferred import: training pulls in numpy-heavy fitting that most
    # sessions never touch.
    from repro.moca.ranker import RankerClassifier

    return RankerClassifier.trained(
        thresholds=context.thresholds,
        profile_accesses=context.profile_accesses or context.n_accesses)


@register_policy("ranker",
                 description="learned logistic ranker over LUT features "
                             "(trained on the synthetic corpus)",
                 classifier=_ranker_classifier)
def _ranker(spec: PolicySpec, context: PolicyContext) -> PlacementPolicy:
    return classified_policy(context, _ranker_classifier(spec, context))
