"""RunSpec: the canonical identity of one simulation run, and ``run()``.

A :class:`RunSpec` names everything that determines a run's numbers —
workload, system configuration, placement policy, trace length, input,
classification thresholds, and the root seed.  It is frozen and hashable,
so it serves three roles at once:

* the **public API**: ``repro.sim.run(spec)`` is the single entry point
  for both single-core and multicore runs (the ``run_single``/
  ``run_multi`` aliases were removed after their deprecation cycle);
* the **scheduling unit** of the sweep engine
  (:mod:`repro.experiments.engine`), which fans individual specs out
  across worker processes instead of whole per-workload rows;
* the **cache key** of the persistent result cache
  (:mod:`repro.experiments.cache`): :meth:`RunSpec.key` is the SHA-256 of
  the canonical JSON form, so two processes that build the same spec
  address the same on-disk entry.

Whether a spec is single- or multicore is derived from the workload name:
application names (``"mcf"``) run one core, mix names (``"2L1B1N"``) run
one core per application in the mix.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.faults.plan import FaultPlan
from repro.moca.classify import Thresholds
from repro.moca.policy import (
    PolicySpec,
    policy_canonical,
    policy_info,
    thresholds_to_dict,
)
from repro.service.spec import OnlineSpec
from repro.sim.config import ALL_SYSTEMS, SystemConfig
from repro.sim.metrics import RunMetrics
from repro.util.rng import ROOT_SEED
from repro.vm.migration import MigrationConfig
from repro.workloads.inputs import REF, is_valid_input
from repro.workloads.mixes import mix, parse_mix_name
from repro.workloads.spec import APPS

__all__ = ["RunSpec", "run"]

#: Bumped whenever the canonical form (and therefore every cache key)
#: changes shape.
SPEC_SCHEMA = 1


@dataclass(frozen=True)
class RunSpec:
    """One (workload, system, policy) run, fully specified.

    Attributes:
        workload: Application name (single-core) or mix name such as
            ``"2L1B1N"`` (one core per application).
        config: System configuration name (key of
            :data:`repro.sim.config.ALL_SYSTEMS`).
        policy: A registered policy name (``"homogen"``, ``"heter-app"``,
            ``"moca"``, ``"knapsack"``, ``"ranker"``, or anything added
            via :func:`repro.moca.policy.register_policy`), a
            parameterized string (``"knapsack:fast_mb=128"``), or a
            :class:`~repro.moca.policy.PolicySpec`.  Normalized on
            construction: parameterless specs collapse to the bare name
            string, so stock-policy cache keys are byte-identical to the
            pre-API era; parameterized specs extend the canonical form
            (the ``FaultPlan`` precedent).
        n_accesses: Trace length — per core for mixes.
        input_name: Runtime input (``"ref"``, a variant like ``"ref2"``,
            or ``"train"``); profiling always uses the training input.
        thresholds: MOCA classification thresholds; ``None`` means the
            paper's defaults.
        seed: Root seed the synthetic workloads derive from.  Recorded
            for provenance; only :data:`repro.util.rng.ROOT_SEED` is
            runnable in-process.
        faults: Injected-fault description (:class:`repro.faults.FaultPlan`),
            or ``None`` for a clean run.  Part of the canonical form, so
            fault runs never share cache entries with clean runs — while
            clean specs keep their pre-fault-era keys.
        migration: Hotness-driven page-migration knobs
            (:class:`~repro.vm.migration.MigrationConfig`).  When set,
            the run replays in epochs under the hot-page migrator
            (``policy`` must be ``"homogen"`` — migration systems carry
            no profile — and ``faults`` unset: the migration driver
            injects no faults).  Canonical only when set, so every
            non-migration cache key is untouched.
        online: Online guidance-service knobs
            (:class:`~repro.service.spec.OnlineSpec`).  When set, the
            run replays in epochs against a
            :class:`~repro.service.GuidanceService` that reclassifies
            objects from live telemetry (``policy`` must name a
            classification-based policy, e.g. ``"moca"``).  Canonical
            only when set.
        trace_chunk_accesses: Shard size for chunked trace synthesis
            and filtering (:mod:`repro.trace.chunked`).  When set, the
            trace is generated shard-by-shard into the content-
            addressed trace store and cache-filtered window-by-window,
            bounding peak RSS at large ``n_accesses``.  Results are
            byte-identical to the monolithic pipeline (pinned by
            ``tests/test_trace_chunked.py``), so — like ``faults`` —
            the knob enters the canonical form only when set and every
            default spec keeps its pre-chunking cache key.
            Single-core plain runs only.
    """

    workload: str
    config: str
    policy: str | PolicySpec
    n_accesses: int
    input_name: str = REF
    thresholds: Thresholds | None = None
    seed: int = ROOT_SEED
    faults: FaultPlan | None = None
    migration: MigrationConfig | None = None
    online: OnlineSpec | None = None
    trace_chunk_accesses: int | None = None

    def __post_init__(self) -> None:
        if self.config not in ALL_SYSTEMS:
            raise ValueError(
                f"unknown system config {self.config!r} "
                f"(choose from {sorted(ALL_SYSTEMS)})")
        # Normalize the policy field: parse parameterized strings,
        # collapse parameterless specs back to the bare name (one
        # canonical in-memory form per cache key), validate the name
        # against the registry.
        policy = self.policy
        if isinstance(policy, str) and ":" in policy:
            policy = PolicySpec.parse(policy)
        if isinstance(policy, PolicySpec) and not policy.params:
            policy = policy.name
        policy_info(policy.name if isinstance(policy, PolicySpec)
                    else policy)  # raises ValueError on unknown names
        object.__setattr__(self, "policy", policy)
        if self.n_accesses <= 0:
            raise ValueError(f"n_accesses must be positive, "
                             f"got {self.n_accesses}")
        if not is_valid_input(self.input_name):
            raise ValueError(f"unknown input {self.input_name!r}")
        if self.workload not in APPS:
            # Raises ValueError with a helpful message on malformed names.
            parse_mix_name(self.workload)
        if self.faults is not None and self.faults.is_clean:
            # A no-op plan must not mint a second cache key for the same
            # numbers; normalize it away.
            object.__setattr__(self, "faults", None)
        if self.migration is not None and self.online is not None:
            raise ValueError(
                "a spec cannot be both a migration run and an online run")
        if self.migration is not None or self.online is not None:
            if self.is_multi:
                raise ValueError(
                    "migration/online runs are single-core "
                    f"(got mix {self.workload!r})")
        if self.migration is not None:
            if self.faults is not None:
                raise ValueError(
                    "migration runs inject no faults (got faults="
                    f"{self.faults.describe()!r}); use a static or "
                    "online spec for fault studies")
            if self.policy_name != "homogen":
                raise ValueError(
                    "migration runs carry no profile; use policy='homogen' "
                    f"(got {self.policy_name!r})")
            if self.migration.target_role not in self.system_config.roles():
                raise ValueError(
                    f"system {self.config!r} has no "
                    f"{self.migration.target_role!r} module to migrate into")
        if self.online is not None:
            info = policy_info(self.policy_name)
            if info.classifier_factory is None:
                raise ValueError(
                    f"online runs need a classification-based policy "
                    f"({self.policy_name!r} registers no classifier); "
                    f"use 'moca', 'knapsack', or 'ranker'")
        if self.trace_chunk_accesses is not None:
            if self.trace_chunk_accesses <= 0:
                raise ValueError(
                    f"trace_chunk_accesses must be positive, "
                    f"got {self.trace_chunk_accesses}")
            if self.is_multi:
                raise ValueError(
                    "chunked traces are single-core "
                    f"(got mix {self.workload!r})")
            if self.migration is not None or self.online is not None:
                raise ValueError(
                    "trace_chunk_accesses is not supported on "
                    "migration/online epoch-replay runs")

    # ---- derived ------------------------------------------------------------

    @property
    def is_multi(self) -> bool:
        """True when the workload is a mix name (one core per app)."""
        return self.workload not in APPS

    @property
    def apps(self) -> tuple[str, ...]:
        """The application on each core, in core order."""
        return mix(self.workload).apps if self.is_multi \
            else (self.workload,)

    @property
    def policy_spec(self) -> PolicySpec:
        """The policy as a structured spec (bare names get no params)."""
        return PolicySpec.parse(self.policy)

    @property
    def policy_name(self) -> str:
        """The registered policy name, without parameters."""
        return self.policy if isinstance(self.policy, str) \
            else self.policy.name

    @property
    def policy_label(self) -> str:
        """Human-readable policy label (params included when present)."""
        return self.policy if isinstance(self.policy, str) \
            else self.policy.label()

    @property
    def system_config(self) -> SystemConfig:
        return ALL_SYSTEMS[self.config]

    # ---- identity -----------------------------------------------------------

    def canonical(self) -> dict:
        """Stable JSON-compatible form — the input to :meth:`key`.

        Includes the *hash* of the resolved system configuration, so
        editing a config's capacities or technologies invalidates cached
        results even though the name stays the same.
        """
        from repro.obs.provenance import config_hash

        doc = {
            "schema": SPEC_SCHEMA,
            "kind": "multi" if self.is_multi else "single",
            "workload": self.workload,
            "config": {"name": self.config,
                       "hash": config_hash(self.system_config)},
            # Bare string for stock/parameterless policies (byte-stable
            # pre-API keys); {"name", "params"} only when parameterized.
            "policy": policy_canonical(self.policy),
            "n_accesses": self.n_accesses,
            "input": self.input_name,
            "thresholds": (None if self.thresholds is None
                           else thresholds_to_dict(self.thresholds)),
            "seed": self.seed,
        }
        # Added only when present, so every clean spec keeps the exact
        # key it had before fault injection existed (warm caches stay
        # warm across the upgrade).
        if self.faults is not None:
            doc["faults"] = self.faults.canonical()
        # Epoch-replay variants extend the form only when requested, so
        # every pre-existing key stays byte-identical.
        if self.migration is not None:
            doc["migration"] = self.migration.canonical()
        if self.online is not None:
            doc["online"] = self.online.canonical()
        # Chunked synthesis/filtering produces the same bits, but a
        # chunked run is a distinct request, and only the non-default
        # value is serialized.
        if self.trace_chunk_accesses is not None:
            doc["trace_chunk_accesses"] = self.trace_chunk_accesses
        return doc

    def key(self) -> str:
        """Content address: SHA-256 hex of the canonical JSON form."""
        doc = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short human-readable label (progress spans, log lines)."""
        label = f"{self.workload}/{self.config}/{self.policy_label}"
        if self.migration is not None:
            label = f"{self.workload}/{self.config}/migration"
        if self.online is not None:
            label += f"[{self.online.describe()}]"
        if self.faults is not None:
            label += f"[{self.faults.describe()}]"
        return label


def run(spec: RunSpec) -> RunMetrics:
    """Execute one run; the single public entry point of the sim layer.

    Dispatches on the spec's replay shape: static placement on 1..N
    cores, or epoch replay under the online guidance service or the
    hot-page migrator.  Pure simulation — persistent caching lives one
    layer up in :mod:`repro.experiments.engine`.
    """
    if spec.seed != ROOT_SEED:
        raise ValueError(
            f"spec.seed={spec.seed:#x} differs from the process root seed "
            f"{ROOT_SEED:#x}; re-seeding requires changing "
            f"repro.util.rng.ROOT_SEED before building any traces")
    # Imported here: the drivers are heavier than this module and must
    # stay importable without it (no cycle either way).
    if spec.online is not None:
        from repro.sim.online import _run_online

        return _run_online(spec)
    if spec.migration is not None:
        from repro.sim.migration import _run_migration

        return _run_migration(spec)
    from repro.sim.multi import _run_static

    return _run_static(spec)
