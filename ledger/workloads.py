"""The ledger's workloads: which units each pass runs.

Each workload is a list of :class:`~repro.sim.spec.RunSpec` units that a
pass sends, one at a time, through ``repro.experiments.engine.execute``.
The table below is importable without ``repro`` (the ledger's parent
process never loads the simulator); the spec builders import ``repro``
lazily and only run inside pass subprocesses.

``--seed N`` selects the *runtime* input (``ref`` for N=1, ``refN``
otherwise) — a different synthetic trace with the same program
behaviour.  The training input the MOCA profile reads and the drifted
inputs of the online workload stay fixed, so the seed moves the data a
run sees, never which code paths it takes.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Run length the per-workload pass counts below are sized for; a run of
#: ``--seconds S`` scales them by ``S / NOMINAL_SECONDS``.
NOMINAL_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (why each exists: ``BENCHMARK.json``, README).

    Attributes:
        name: Workload name (``--workload``).
        passes: Passes in a :data:`NOMINAL_SECONDS` run.  Fixed per
            workload rather than timed, so every run computes its
            percentiles over the same sample count.
        warm_store: Fill the miss-stream store once during set-up; every
            pass then reads it and writes a fresh result cache.
        trace_store: Wipe the chunked trace store before every pass.
    """

    name: str
    passes: int
    warm_store: bool = False
    trace_store: bool = False


WORKLOADS = (
    Workload("fig08", passes=3),
    Workload("fig08-warm", passes=3, warm_store=True),
    Workload("mix", passes=2),
    Workload("online", passes=4),
    Workload("scale", passes=7, trace_store=True),
)
BY_NAME = {w.name: w for w in WORKLOADS}

#: The Fig. 8 applications the fig08 workloads replay.
FIG08_APPS = ("mcf", "libquantum", "lbm", "sift")
MIXES = ("4L", "2L2B", "1B3N")
ONLINE_APPS = ("milc", "tracking", "gcc")
#: Drifted inputs of the online workload — fixed, unlike the ref input.
DRIFT_INPUTS = ("drift1", "drift2")
SCALE_APPS = ("sift", "gcc")
SCALE_CONFIG = ("Homogen-DDR3", "homogen")

#: Accesses per trace (per core for mixes): (full, --smoke).
SIZES = {
    "fig08": (120_000, 4_000),
    "mix": (60_000, 3_000),
    "online": (120_000, 12_000),
    "scale": (1_000_000, 40_000),
}
#: Shard size of the scale workload's chunked traces: (full, --smoke).
SCALE_CHUNK = (250_000, 10_000)


def runtime_input(seed: int) -> str:
    """The runtime input a seed selects: ``ref``, ``ref2``, ``ref3``, ..."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return "ref" if seed == 1 else f"ref{seed}"


def units(name: str, seed: int, smoke: bool = False) -> list:
    """The RunSpecs one pass of workload ``name`` executes, in order."""
    from repro.experiments.runner import SINGLE_SYSTEMS
    from repro.service.spec import OnlineSpec
    from repro.sim.spec import RunSpec

    ref = runtime_input(seed)
    columns = [(config.name, policy) for _, config, policy in SINGLE_SYSTEMS]
    if name in ("fig08", "fig08-warm"):
        n = SIZES["fig08"][smoke]
        return [RunSpec(app, cfg, pol, n, input_name=ref)
                for app in FIG08_APPS for cfg, pol in columns]
    if name == "mix":
        n = SIZES["mix"][smoke]
        return [RunSpec(mix, cfg, pol, n, input_name=ref)
                for mix in MIXES for cfg, pol in columns]
    if name == "online":
        n = SIZES["online"][smoke]
        return [RunSpec(app, "Heter-config1", "moca", n, input_name=inp,
                        online=OnlineSpec())
                for app in ONLINE_APPS for inp in (ref, *DRIFT_INPUTS)]
    if name == "scale":
        n = SIZES["scale"][smoke]
        cfg, pol = SCALE_CONFIG
        return [RunSpec(app, cfg, pol, n, input_name=ref,
                        trace_chunk_accesses=SCALE_CHUNK[smoke])
                for app in SCALE_APPS]
    raise ValueError(f"unknown workload {name!r} "
                     f"(choose from {sorted(BY_NAME)})")


def fill_units(name: str, seed: int, smoke: bool = False) -> list:
    """Units whose runs fill the miss-stream store for a warm workload.

    One homogeneous run per application filters (and stores) every
    runtime-input stream the workload's passes will read back.
    """
    first = units(name, seed, smoke)[0].config
    return [s for s in units(name, seed, smoke) if s.config == first]


def unit_id(spec) -> str:
    """Stable, human-readable identity of one unit (digest-file key)."""
    parts = [spec.workload, spec.config, spec.policy_label,
             spec.input_name, str(spec.n_accesses)]
    if spec.online is not None:
        parts.append("online")
    if spec.trace_chunk_accesses is not None:
        parts.append(f"chunk{spec.trace_chunk_accesses}")
    return "/".join(parts)
