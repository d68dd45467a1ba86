"""Experiment drivers: system configurations, runners, and metrics.

* :mod:`repro.sim.config` — the paper's memory-system configurations
  (Homogen-DDR3/-LP/-RL/-HBM, heterogeneous config1/2/3) at the
  reproduction's 1:8 capacity scale;
* :mod:`repro.sim.metrics` — memory access time, memory/system power,
  EDP definitions (paper Sec. VI-A);
* :mod:`repro.sim.spec` — :class:`RunSpec` (the canonical identity of a
  run: API surface, scheduling unit, cache key) and the :func:`run`
  facade;
* :mod:`repro.sim.single` — single-core runs (Figs. 8–9);
* :mod:`repro.sim.multi` — 4-core multi-programmed runs (Figs. 10–15).

Every run goes through ``run(RunSpec(...))``; the policy registry
(:mod:`repro.moca.policy`) names the placement policies.
"""

from repro.sim.config import (
    CAPACITY_SCALE,
    GroupSpec,
    SystemConfig,
    HOMOGEN_DDR3,
    HOMOGEN_LP,
    HOMOGEN_RL,
    HOMOGEN_HBM,
    HETER_CONFIG1,
    HETER_CONFIG2,
    HETER_CONFIG3,
    ALL_SYSTEMS,
    HETERO_POLICIES,
)
from repro.sim.metrics import RunMetrics
from repro.sim.spec import RunSpec, run
from repro.sim.single import filtered_stream, filter_provenance
from repro.sim.migration import run_single_migration


__all__ = [
    "RunSpec",
    "run",
    "CAPACITY_SCALE",
    "GroupSpec",
    "SystemConfig",
    "HOMOGEN_DDR3",
    "HOMOGEN_LP",
    "HOMOGEN_RL",
    "HOMOGEN_HBM",
    "HETER_CONFIG1",
    "HETER_CONFIG2",
    "HETER_CONFIG3",
    "ALL_SYSTEMS",
    "HETERO_POLICIES",
    "RunMetrics",
    "filtered_stream",
    "filter_provenance",
    "run_single_migration",
]
