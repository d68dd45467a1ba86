"""Experiment drivers: system configurations, runners, and metrics.

* :mod:`repro.sim.config` — the paper's memory-system configurations
  (Homogen-DDR3/-LP/-RL/-HBM, heterogeneous config1/2/3) at the
  reproduction's 1:8 capacity scale;
* :mod:`repro.sim.metrics` — memory access time, memory/system power,
  EDP definitions (paper Sec. VI-A);
* :mod:`repro.sim.spec` — :class:`RunSpec` (the canonical identity of a
  run: API surface, scheduling unit, cache key) and the :func:`run`
  facade;
* :mod:`repro.sim.single` — what every run shares: cache filtering,
  policy resolution, the boot (machine, faults, placement) and the
  metrics/provenance finish;
* :mod:`repro.sim.multi` — static placement on 1..N cores: single-core
  runs (Figs. 8–9) and 4-core multi-programmed mixes (Figs. 10–15);
* :mod:`repro.sim.migration` — the one epoch-replay loop, and the
  hot-page migration driver (the paper's Sec. IV-E alternative);
* :mod:`repro.sim.online` — epoch replay under the online guidance
  service.

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
]
