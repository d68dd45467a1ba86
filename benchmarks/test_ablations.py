"""Ablation benchmarks beyond the paper's figures (DESIGN.md §7).

Each ablation isolates one design choice the paper bakes in:

* FR-FCFS scheduling vs plain FCFS;
* MOCA's hot-object allocation priority (Sec. VI-B) vs naive
  instantiation order;
* the Fig. 5 thresholds vs turning classification off entirely;
* training-input profiling vs an oracle profiled on the test input.
"""

import pytest

from repro.cpu.core import InOrderWindowCore
from repro.memctrl.scheduler import fcfs_order, frfcfs_order
from repro.moca.allocation import MocaPolicy, plan_placement
from repro.moca.classify import Thresholds
from repro.moca.framework import MocaFramework
from repro.moca.profiler import profile_app
from repro.sim.config import HETER_CONFIG1, HOMOGEN_DDR3
from repro.sim.metrics import collect_metrics
from repro.sim.single import filtered_stream
from repro.sim.spec import RunSpec, run as run_spec
from repro.workloads.inputs import build_app_trace


def test_ablation_frfcfs_vs_fcfs(benchmark, fidelity):
    """FR-FCFS must not lose to FCFS; it should win on row-locality-rich
    streaming traffic (that is its entire purpose)."""

    def run(scheduler):
        stream, _ = filtered_stream("lbm", "ref", fidelity.n_single)
        layout = build_app_trace("lbm", "ref", fidelity.n_single).layout
        memsys = HOMOGEN_DDR3.build()
        for group in memsys.groups:
            for ctl in group.controllers:
                ctl.scheduler = scheduler
        allocator = HOMOGEN_DDR3.make_allocator(memsys)
        from repro.moca.allocation import HomogeneousPolicy
        plan = plan_placement([stream], HomogeneousPolicy(), allocator,
                              layouts=[layout])
        core = InOrderWindowCore(stream, plan.groups[0], plan.gaddrs[0])
        res = core.run_to_completion(memsys)
        return collect_metrics("ddr3", "homogen", "lbm", [res], memsys)

    frfcfs = benchmark(run, frfcfs_order)
    fcfs = run(fcfs_order)
    print(f"\nFR-FCFS mem time: {frfcfs.mem_access_cycles}, "
          f"FCFS: {fcfs.mem_access_cycles}")
    assert frfcfs.mem_access_cycles <= fcfs.mem_access_cycles * 1.01


def test_ablation_heat_priority(benchmark, fidelity):
    """MOCA with the Sec. VI-B hot-object priority vs the same types in
    instantiation order.  Priority must not hurt, and it should help on
    mcf, whose cold setup objects are instantiated first."""

    def run(with_heat: bool):
        app = "mcf"
        stream, _ = filtered_stream(app, "ref", fidelity.n_single)
        trace = build_app_trace(app, "ref", fidelity.n_single)
        fw = MocaFramework(profile_accesses=fidelity.n_single)
        inst = fw.instrument(app)
        types = fw.runtime_types(inst, trace.layout)
        heat = fw.runtime_heat(inst, trace.layout) if with_heat else None
        memsys = HETER_CONFIG1.build()
        allocator = HETER_CONFIG1.make_allocator(memsys)
        policy = MocaPolicy([types], [heat] if heat else None)
        plan = plan_placement([stream], policy, allocator,
                              layouts=[trace.layout])
        core = InOrderWindowCore(stream, plan.groups[0], plan.gaddrs[0])
        res = core.run_to_completion(memsys)
        return collect_metrics("c1", "moca", app, [res], memsys)

    with_heat = benchmark(run, True)
    without = run(False)
    print(f"\nwith heat priority: {with_heat.mem_access_cycles}, "
          f"without: {without.mem_access_cycles}")
    assert with_heat.mem_access_cycles <= without.mem_access_cycles * 1.02


def test_ablation_classification_off(benchmark, fidelity):
    """Thr_Lat = inf sends everything to LPDDR: classification earns its
    keep when MOCA-with-paper-thresholds is much faster."""
    paper = benchmark(
        run_spec, RunSpec("mcf", HETER_CONFIG1.name, "moca",
                          fidelity.n_single))
    off = run_spec(RunSpec("mcf", HETER_CONFIG1.name, "moca",
                           fidelity.n_single,
                           thresholds=Thresholds(thr_lat=1e9, thr_bw=20.0)))
    print(f"\npaper thresholds: {paper.mem_access_cycles}, "
          f"classification off: {off.mem_access_cycles}")
    assert paper.mem_access_cycles < off.mem_access_cycles * 0.8


def test_ablation_training_vs_oracle(benchmark, fidelity):
    """Profiling on the training input must be nearly as good as an
    oracle profiled on the reference input itself — the premise that
    behaviour is input-stable (paper Sec. III)."""

    def run(profile_input: str):
        app = "disparity"
        stream, _ = filtered_stream(app, "ref", fidelity.n_single)
        trace = build_app_trace(app, "ref", fidelity.n_single)
        fw = MocaFramework(profile_input=profile_input,
                           profile_accesses=fidelity.n_single)
        inst = fw.instrument(app)
        policy = MocaPolicy([fw.runtime_types(inst, trace.layout)],
                            [fw.runtime_heat(inst, trace.layout)])
        memsys = HETER_CONFIG1.build()
        allocator = HETER_CONFIG1.make_allocator(memsys)
        plan = plan_placement([stream], policy, allocator,
                              layouts=[trace.layout])
        core = InOrderWindowCore(stream, plan.groups[0], plan.gaddrs[0])
        res = core.run_to_completion(memsys)
        return collect_metrics("c1", "moca", app, [res], memsys)

    trained = benchmark(run, "train")
    oracle = run("ref")
    print(f"\ntrain-profiled: {trained.mem_access_cycles}, "
          f"oracle: {oracle.mem_access_cycles}")
    assert trained.mem_access_cycles <= oracle.mem_access_cycles * 1.10
