"""Simulated-system fault injection (see ``docs/architecture.md``).

:class:`FaultPlan` describes a deterministic set of injected faults —
offlined/shrunken memory modules, derated device timings, dropped or
scrambled profiling-LUT entries.  Plans serialize into
:class:`~repro.sim.spec.RunSpec`, so fault runs are first-class citizens
of the sweep engine and the persistent result cache.  The injection
helpers in :mod:`repro.faults.inject` apply a plan to live simulation
state; the shared run boot (:func:`repro.sim.single.boot`) and the
online driver's mid-run firing call them when a spec carries a plan.
"""

from repro.faults.inject import (
    apply_lut_faults,
    apply_system_faults,
    arm_allocator,
)
from repro.faults.plan import SCENARIOS, FaultPlan

__all__ = [
    "FaultPlan",
    "SCENARIOS",
    "apply_lut_faults",
    "apply_system_faults",
    "arm_allocator",
]
