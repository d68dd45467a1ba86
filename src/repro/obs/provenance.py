"""Run provenance: the ``meta`` block stamped on metrics and artefacts.

Every :class:`~repro.sim.metrics.RunMetrics` and every saved figure
artefact carries a ``meta`` dict recording *how* its numbers were
produced — config hash, policy, workload, thresholds, faults, fidelity,
root seed and versions — so a drifting figure can be diffed against a
known-good artefact without re-simulating (was it the config? the
thresholds?).  Where a sweep unit spent its time and work is recorded
once, in its campaign telemetry (:mod:`repro.obs.telemetry`), not here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
from datetime import datetime, timezone

from repro.util.rng import ROOT_SEED

__all__ = ["META_SCHEMA", "config_hash", "run_meta"]

META_SCHEMA = 1


def _jsonable(obj: object) -> object:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    return obj


def config_hash(config: object) -> str:
    """Stable short hash of any (dataclass) configuration object.

    SHA-256 over the sorted-key JSON form, truncated to 16 hex chars —
    enough to tell two configs apart in a manifest, short enough to eyeball.
    """
    doc = json.dumps(_jsonable(config), sort_keys=True, default=repr)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]


def run_meta(*, config: object | None = None, policy: str | None = None,
             workload: str | None = None, thresholds: object | None = None,
             fidelity: object | None = None, seed: int = ROOT_SEED,
             faults: object | None = None, **extra) -> dict:
    """Assemble a provenance ``meta`` block for one run or artefact."""
    from repro import __version__  # deferred: repro imports the sim layers

    meta: dict = {
        "schema": META_SCHEMA,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "repro_version": __version__,
        "python": platform.python_version(),
        "seed": seed,
    }
    if config is not None:
        meta["config"] = {"name": getattr(config, "name", str(config)),
                          "hash": config_hash(config)}
    if policy is not None:
        meta["policy"] = policy
    if workload is not None:
        meta["workload"] = workload
    if thresholds is not None:
        meta["thresholds"] = _jsonable(thresholds)
    if faults is not None:
        # FaultPlan has a canonical() form; fall back to asdict for
        # anything else dataclass-shaped.
        canon = getattr(faults, "canonical", None)
        meta["faults"] = canon() if callable(canon) else _jsonable(faults)
        if hasattr(faults, "describe"):
            meta["faults"]["label"] = faults.describe()
    if fidelity is not None:
        if isinstance(fidelity, str):
            meta["fidelity"] = {"name": fidelity}
        else:
            meta["fidelity"] = {
                "name": getattr(fidelity, "name", repr(fidelity)),
                "n_single": getattr(fidelity, "n_single", None),
                "n_multi": getattr(fidelity, "n_multi", None),
            }
    meta.update(extra)
    return meta
