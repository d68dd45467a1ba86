"""MOCA reproduction: Memory Object Classification and Allocation.

A trace-driven reproduction of Narayan et al., *MOCA: Memory Object
Classification and Allocation in Heterogeneous Memory Systems* (IPDPS
2018), built as a layered Python library:

* ``repro.memdev`` / ``repro.memctrl`` — DRAM device + controller models
  (DDR3, LPDDR2, RLDRAM3, HBM; FR-FCFS; channel groups);
* ``repro.cpu`` — cache hierarchy + interval OoO core (LLC MPKI,
  ROB-head stall accounting);
* ``repro.trace`` / ``repro.workloads`` — synthetic SPEC/SDVBS stand-ins
  with per-object access behaviour;
* ``repro.vm`` — page tables, frame pools, typed heap partitions;
* ``repro.moca`` — the paper's contribution: object naming, profiling,
  threshold classification, object-level page allocation;
* ``repro.sim`` — single-/multi-core experiment runners and metrics;
* ``repro.experiments`` — one module per paper table/figure.

Quickstart::

    from repro import (profile_app, MocaFramework, RunSpec, run,
                       HETER_CONFIG1, HOMOGEN_DDR3)

    profiled = profile_app("mcf")                 # offline profiling
    moca = MocaFramework().instrument("mcf")      # classify objects
    base = run(RunSpec("mcf", "Homogen-DDR3", "homogen", 120_000))
    best = run(RunSpec("mcf", "Heter-config1", "moca", 120_000))
    print(base.memory_edp / best.memory_edp)      # MOCA's EDP win

A :class:`~repro.sim.spec.RunSpec` fully identifies a run; the sweep
engine (:mod:`repro.experiments.engine`) schedules specs across worker
processes and caches their results on disk keyed by the spec's content
hash.  The spec's ``policy`` field names a policy from the pluggable
registry (:mod:`repro.moca.policy`) — the stock trio plus the
capacity-aware ``knapsack`` and learned ``ranker`` policies, or anything
registered via :func:`~repro.moca.policy.register_policy`.
"""

from repro.memdev import DDR3, HBM, LPDDR2, RLDRAM3, DeviceTiming, MemoryModule
from repro.memctrl import ChannelGroup, MemorySystem, MemRequest
from repro.cpu import CacheHierarchy, CoreParams, InOrderWindowCore, SetAssocCache
from repro.trace import AccessTrace, ObjectBehavior, TraceBuilder
from repro.vm import FramePool, ObjectType, OSPageAllocator, PageTable, TLB
from repro.moca import (
    CapacityBudget,
    ClassificationPolicy,
    HeterAppPolicy,
    HomogeneousPolicy,
    InstrumentedApp,
    MocaFramework,
    MocaPolicy,
    ObjectName,
    PolicySpec,
    ProfileLUT,
    Thresholds,
    classify_object,
    name_from_python_stack,
    name_from_site,
    plan_placement,
    policy_names,
    register_policy,
)
from repro.faults import FaultPlan
from repro.moca.profiler import profile_app
from repro.sim import (
    ALL_SYSTEMS,
    HETER_CONFIG1,
    HETER_CONFIG2,
    HETER_CONFIG3,
    HOMOGEN_DDR3,
    HOMOGEN_HBM,
    HOMOGEN_LP,
    HOMOGEN_RL,
    RunMetrics,
    RunSpec,
    SystemConfig,
    run,
)
from repro.workloads import APPS, APP_CLASSES, MIXES, build_app_trace, mix
from repro.experiments.runner import (
    Fidelity,
    FigureResult,
    config_sweep,
    multi_sweep,
    single_sweep,
)

__version__ = "1.1.0"


__all__ = [
    # devices & controllers
    "DDR3", "HBM", "LPDDR2", "RLDRAM3", "DeviceTiming", "MemoryModule",
    "ChannelGroup", "MemorySystem", "MemRequest",
    # cpu
    "CacheHierarchy", "CoreParams", "InOrderWindowCore", "SetAssocCache",
    # traces & workloads
    "AccessTrace", "ObjectBehavior", "TraceBuilder",
    "APPS", "APP_CLASSES", "MIXES", "build_app_trace", "mix",
    # vm
    "FramePool", "ObjectType", "OSPageAllocator", "PageTable", "TLB",
    # faults
    "FaultPlan",
    # moca
    "CapacityBudget", "ClassificationPolicy", "HeterAppPolicy",
    "HomogeneousPolicy", "InstrumentedApp", "MocaFramework", "MocaPolicy",
    "ObjectName", "PolicySpec", "ProfileLUT", "Thresholds",
    "classify_object", "name_from_python_stack", "name_from_site",
    "plan_placement", "policy_names", "profile_app", "register_policy",
    # sim
    "ALL_SYSTEMS", "HETER_CONFIG1", "HETER_CONFIG2", "HETER_CONFIG3",
    "HOMOGEN_DDR3", "HOMOGEN_HBM", "HOMOGEN_LP", "HOMOGEN_RL",
    "RunMetrics", "RunSpec", "SystemConfig", "run",
    # experiments
    "Fidelity", "FigureResult",
    "single_sweep", "multi_sweep", "config_sweep",
    "__version__",
]
