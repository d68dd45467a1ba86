"""FaultPlan: the seeded, deterministic identity of injected faults.

A :class:`FaultPlan` describes *what goes wrong* in a simulated run the
same way a :class:`~repro.sim.spec.RunSpec` describes what runs: it is
frozen, hashable, and serializes into the spec's canonical form, so a
fault run gets its own content-addressed cache key and can never collide
with a clean run (specs without faults keep their pre-existing keys —
``canonical()`` only adds a ``"faults"`` entry when a plan is present).

Three fault families, mirroring how heterogeneous memory systems degrade
in practice (Sec. III-C's fallback narrative; online-guidance systems
tolerate exactly these at runtime):

* **capacity faults** — a module is taken offline or its frame pool
  shrinks, either at boot (``trigger_page=0``) or after ``trigger_page``
  pages have been handed out (mid-run pressure).  The OS allocator
  degrades through the type's fallback chain instead of raising.
* **timing faults** — a module's device timings are uniformly derated
  (thermal throttling, a failing rank running at reduced clocks).
* **guidance faults** — profiling-LUT entries are dropped or their
  statistics scrambled, emulating stale or mismatched training-input
  guidance; unprofiled objects fall back to the paper's N-type (power)
  partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["FaultPlan", "SCENARIOS"]

#: Role names a plan may target (see ``repro.sim.config.GroupSpec.role``).
KNOWN_ROLES = ("lat", "bw", "pow", "main")


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic combination of injected faults.

    Attributes:
        seed: Extra seed mixed into every stochastic choice the plan
            makes (LUT entry selection), so two plans that differ only by
            seed are distinct cache keys with distinct corruptions.
        offline_role: Take this module role's frame pool offline — it
            accepts no further allocations; roles absent from the target
            system are skipped (a homogeneous machine has no ``"lat"``).
        shrink_role: Shrink this role's frame pool instead of removing it.
        shrink_fraction: Share of the pool's frames to remove, in
            ``[0, 1]``.  Already-granted frames are never revoked.
        trigger_page: Apply the capacity faults after this many pages
            have been offered to the allocator, overcommitted ones
            included (0 = before the first allocation).
        degrade_role: Uniformly derate this role's device timings.
        degrade_factor: Timing multiplier (>= 1); 4.0 means every analog
            timing parameter (tCK, tRCD, tRC, ...) is 4x slower.
        lut_drop_fraction: Share of profiled LUT entries to forget; the
            affected objects become unknown at runtime and default to the
            power partition.
        lut_scramble_fraction: Share of LUT entries whose statistics are
            swapped among themselves (guidance attached to the wrong
            objects), so classification runs on mismatched numbers.
    """

    seed: int = 0
    offline_role: str | None = None
    shrink_role: str | None = None
    shrink_fraction: float = 0.0
    trigger_page: int = 0
    degrade_role: str | None = None
    degrade_factor: float = 1.0
    lut_drop_fraction: float = 0.0
    lut_scramble_fraction: float = 0.0

    def __post_init__(self) -> None:
        for role, what in ((self.offline_role, "offline_role"),
                           (self.shrink_role, "shrink_role"),
                           (self.degrade_role, "degrade_role")):
            if role is not None and role not in KNOWN_ROLES:
                raise ValueError(f"{what}={role!r} is not one of "
                                 f"{KNOWN_ROLES}")
        for frac, what in ((self.shrink_fraction, "shrink_fraction"),
                           (self.lut_drop_fraction, "lut_drop_fraction"),
                           (self.lut_scramble_fraction,
                            "lut_scramble_fraction")):
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"{what}={frac} outside [0, 1]")
        if not (math.isfinite(self.degrade_factor)
                and self.degrade_factor >= 1.0):
            raise ValueError(
                f"degrade_factor={self.degrade_factor} must be finite "
                f"and >= 1 (a faster-than-spec device is not a fault)")
        if (not isinstance(self.trigger_page, int)
                or isinstance(self.trigger_page, bool)):
            raise ValueError(
                f"trigger_page={self.trigger_page!r} is not an int")
        if self.trigger_page < 0:
            raise ValueError(f"trigger_page={self.trigger_page} negative")
        if self.shrink_role is not None and self.shrink_fraction == 0.0:
            raise ValueError("shrink_role set but shrink_fraction is 0")

    # ---- classification ------------------------------------------------------

    @property
    def is_clean(self) -> bool:
        """True when the plan injects nothing at all."""
        return (self.offline_role is None and self.shrink_role is None
                and self.degrade_role is None
                and self.lut_drop_fraction == 0.0
                and self.lut_scramble_fraction == 0.0)

    @property
    def has_capacity_fault(self) -> bool:
        return self.offline_role is not None or self.shrink_role is not None

    @property
    def has_timing_fault(self) -> bool:
        return self.degrade_role is not None and self.degrade_factor > 1.0

    @property
    def has_lut_fault(self) -> bool:
        return (self.lut_drop_fraction > 0.0
                or self.lut_scramble_fraction > 0.0)

    # ---- identity ------------------------------------------------------------

    def canonical(self) -> dict:
        """Stable JSON form folded into ``RunSpec.canonical()``."""
        return {
            "seed": self.seed,
            "offline_role": self.offline_role,
            "shrink_role": self.shrink_role,
            "shrink_fraction": self.shrink_fraction,
            "trigger_page": self.trigger_page,
            "degrade_role": self.degrade_role,
            "degrade_factor": self.degrade_factor,
            "lut_drop_fraction": self.lut_drop_fraction,
            "lut_scramble_fraction": self.lut_scramble_fraction,
        }

    to_dict = canonical

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown FaultPlan field(s) {unknown}")
        return cls(**data)

    def describe(self) -> str:
        """Short label for log lines and figure rows."""
        parts = []
        if self.offline_role:
            parts.append(f"offline-{self.offline_role}")
        if self.shrink_role:
            parts.append(f"shrink-{self.shrink_role}"
                         f"-{self.shrink_fraction:g}")
        if self.trigger_page:
            parts.append(f"@page{self.trigger_page}")
        if self.has_timing_fault:
            parts.append(f"derate-{self.degrade_role}"
                         f"-x{self.degrade_factor:g}")
        if self.lut_drop_fraction:
            parts.append(f"lut-drop-{self.lut_drop_fraction:g}")
        if self.lut_scramble_fraction:
            parts.append(f"lut-scramble-{self.lut_scramble_fraction:g}")
        return "+".join(parts) or "clean"


#: Named fault classes the resilience sweep quantifies
#: (``python -m repro.experiments resilience``).
SCENARIOS: dict[str, FaultPlan] = {
    "offline-lat": FaultPlan(offline_role="lat"),
    "offline-bw": FaultPlan(offline_role="bw"),
    "shrink-pow": FaultPlan(shrink_role="pow", shrink_fraction=0.75),
    "degrade-bw": FaultPlan(degrade_role="bw", degrade_factor=4.0),
    "lut-drop": FaultPlan(lut_drop_fraction=0.5),
    "lut-scramble": FaultPlan(lut_scramble_fraction=0.5),
}
