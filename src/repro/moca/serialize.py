"""Persistence for profiling results and instrumented classifications.

The paper's offline stage writes each object's type into the application
binary (Sec. III-C: "the classification is stored as part of the
application binary").  The reproduction's equivalent is a JSON sidecar:
``ProfileLUT`` (raw profiling counters) and ``InstrumentedApp`` (the
name → type map plus thresholds) both round-trip through plain dicts so
profiles can be collected once and reused across experiment campaigns —
exactly how the paper amortizes profiling over repeated runs.
:func:`repro.moca.profiler.profile_app` does so: it stores each
profile's :func:`lut_to_dict` document beside the miss streams, and
every later process reads it back instead of profiling.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.moca.framework import InstrumentedApp
from repro.moca.lut import ObjectProfile, ProfileLUT
from repro.moca.naming import ObjectName
from repro.vm.heap import ObjectType

FORMAT_VERSION = 1


# ---- ProfileLUT ------------------------------------------------------------------


def lut_to_dict(lut: ProfileLUT) -> dict[str, Any]:
    """Serialize a LUT to a JSON-compatible dict."""
    return {
        "version": FORMAT_VERSION,
        "kind": "profile-lut",
        "app": lut.app_name,
        "objects": [
            {
                "frames": list(p.name.frames),
                "label": p.label,
                "size_bytes": p.size_bytes,
                "start_vaddr": p.start_vaddr,
                "accesses": p.accesses,
                "writes": p.writes,
                "llc_misses": p.llc_misses,
                "load_misses": p.load_misses,
                "stall_cycles": p.stall_cycles,
                "kilo_instructions": p.kilo_instructions,
            }
            for p in lut
        ],
    }


def lut_from_dict(data: dict[str, Any]) -> ProfileLUT:
    """Rebuild a LUT from :func:`lut_to_dict` output."""
    _check(data, "profile-lut")
    lut = ProfileLUT(data.get("app", ""))
    for obj in data["objects"]:
        lut.register(ObjectProfile(
            name=ObjectName(tuple(obj["frames"])),
            label=obj["label"],
            size_bytes=obj["size_bytes"],
            start_vaddr=obj["start_vaddr"],
            accesses=obj["accesses"],
            # Absent in pre-read/write-mix documents.
            writes=obj.get("writes", 0),
            llc_misses=obj["llc_misses"],
            load_misses=obj["load_misses"],
            stall_cycles=obj["stall_cycles"],
            kilo_instructions=obj["kilo_instructions"],
        ))
    return lut


def save_lut(lut: ProfileLUT, path: str | Path) -> None:
    Path(path).write_text(json.dumps(lut_to_dict(lut), indent=1))


def load_lut(path: str | Path) -> ProfileLUT:
    return lut_from_dict(json.loads(Path(path).read_text()))


# ---- InstrumentedApp --------------------------------------------------------------


def instrumented_to_dict(app: InstrumentedApp) -> dict[str, Any]:
    """Serialize the classification metadata of one application."""
    from repro.moca.policy import thresholds_to_dict

    return {
        "version": FORMAT_VERSION,
        "kind": "instrumented-app",
        "app": app.app_name,
        # Shared canonical form — the same helper RunSpec.canonical()
        # uses, so the sidecar and the cache key can't drift.
        "thresholds": thresholds_to_dict(app.thresholds),
        "objects": [
            {
                "frames": list(name.frames),
                "type": typ.value,
                "heat": app.heat.get(name, 0.0),
            }
            for name, typ in app.types.items()
        ],
    }


def instrumented_from_dict(data: dict[str, Any]) -> InstrumentedApp:
    """Rebuild an :class:`InstrumentedApp` from its dict form."""
    _check(data, "instrumented-app")
    types: dict[ObjectName, ObjectType] = {}
    heat: dict[ObjectName, float] = {}
    for obj in data["objects"]:
        name = ObjectName(tuple(obj["frames"]))
        types[name] = ObjectType(obj["type"])
        if obj.get("heat", 0.0) > 0.0:
            heat[name] = float(obj["heat"])
    from repro.moca.policy import thresholds_from_dict

    return InstrumentedApp(
        app_name=data["app"],
        types=types,
        thresholds=thresholds_from_dict(data["thresholds"]),
        heat=heat,
    )


def save_instrumented(app: InstrumentedApp, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instrumented_to_dict(app), indent=1))


def load_instrumented(path: str | Path) -> InstrumentedApp:
    return instrumented_from_dict(json.loads(Path(path).read_text()))


def _check(data: dict[str, Any], kind: str) -> None:
    if data.get("kind") != kind:
        raise ValueError(
            f"expected a {kind!r} document, got {data.get('kind')!r}")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version {data.get('version')!r} "
            f"(this library reads version {FORMAT_VERSION})")
