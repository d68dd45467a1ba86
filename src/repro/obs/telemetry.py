"""Campaign telemetry: cross-process aggregation of the per-run registry.

The PR 1 :mod:`repro.obs.registry` is deliberately process-local, which
means everything a sweep worker records — counters, spans, resource
usage — used to die with the worker.  This module closes that gap with
two value types, the only per-unit record of where a sweep unit spent
its time and work:

* :class:`UnitTelemetry` — one sweep unit's snapshot: the registry
  *delta* accrued while the unit ran (counters, one
  :class:`~repro.util.histogram.LatencyHistogram` of nanosecond
  durations per span name, raw span events for trace merging,
  newly-raised warning keys) plus resource facts from
  :func:`resource.getrusage` (peak RSS, user/sys CPU time) and GC
  collections.  Captured in the worker by
  :func:`begin_unit`/:func:`end_unit`, shipped back to the parent
  inside ``RunMetrics.meta["unit_telemetry"]``, and popped off by the
  engine before the result reaches the persistent cache.
* :class:`CampaignTelemetry` — the campaign-wide fold
  (:meth:`CampaignTelemetry.add_unit`): summed counters, merged span
  histograms, per-worker (pid) busy time and peak RSS, deduplicated
  warnings.  Every sum is over integers and histograms merge
  element-wise, so the fold is order-independent (pinned by hypothesis
  tests), and ``to_dict``/``from_dict`` round-trip losslessly through
  the campaign manifest's ``telemetry`` block.

Capture is off unless the ``telemetry`` setting is on (see
:mod:`repro.util.settings`; the experiments CLI turns it on and the
sweep engine hands it to its workers), so library users keep the
registry's near-zero disabled overhead.
:func:`merged_trace_doc` re-bases every unit's span events onto the
campaign wall clock and emits one Chrome-trace pid lane per worker
process next to the parent's own lane.
"""

from __future__ import annotations

import gc
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.registry import OBS, Registry
from repro.obs.sinks import chrome_trace_doc
from repro.util import settings
from repro.util.histogram import LatencyHistogram

__all__ = [
    "TELEMETRY_VERSION",
    "CampaignTelemetry",
    "UnitTelemetry",
    "abort_unit",
    "begin_unit",
    "capture_enabled",
    "end_unit",
    "mark_campaign_start",
    "merged_trace_doc",
    "write_telemetry_jsonl",
]

#: Schema version of ``telemetry.jsonl`` and the manifest block.
TELEMETRY_VERSION = 2


def capture_enabled() -> bool:
    """Whether :func:`begin_unit` captures are requested in this process."""
    return settings.current().telemetry


# ---- per-unit snapshot ------------------------------------------------------


@dataclass
class UnitTelemetry:
    """One sweep unit's registry delta + resource facts (picklable/JSON)."""

    pid: int = 0
    label: str = ""
    wall_start: float = 0.0  #: Epoch seconds (comparable across processes).
    wall_ns: int = 0
    utime_us: int = 0
    stime_us: int = 0
    peak_rss_kb: int = 0
    gc_collections: int = 0
    accesses: int = 0  #: Trace accesses replayed (n_accesses x cores).
    counters: dict[str, float] = field(default_factory=dict)
    spans: dict[str, LatencyHistogram] = field(default_factory=dict)  #: ns
    warnings: dict[str, str] = field(default_factory=dict)  #: key -> message
    events: list[dict] = field(default_factory=list)  #: raw span dicts

    def to_dict(self) -> dict:
        return {
            "pid": self.pid,
            "label": self.label,
            "wall_start": self.wall_start,
            "wall_ns": self.wall_ns,
            "utime_us": self.utime_us,
            "stime_us": self.stime_us,
            "peak_rss_kb": self.peak_rss_kb,
            "gc_collections": self.gc_collections,
            "accesses": self.accesses,
            "counters": dict(self.counters),
            "spans": {k: v.to_dict() for k, v in self.spans.items()},
            "warnings": dict(self.warnings),
            "events": [dict(e) for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "UnitTelemetry":
        return cls(
            pid=int(data.get("pid", 0)),
            label=data.get("label", ""),
            wall_start=float(data.get("wall_start", 0.0)),
            wall_ns=int(data.get("wall_ns", 0)),
            utime_us=int(data.get("utime_us", 0)),
            stime_us=int(data.get("stime_us", 0)),
            peak_rss_kb=int(data.get("peak_rss_kb", 0)),
            gc_collections=int(data.get("gc_collections", 0)),
            accesses=int(data.get("accesses", 0)),
            counters=dict(data.get("counters", {})),
            spans={k: LatencyHistogram.from_dict(v)
                   for k, v in data.get("spans", {}).items()},
            warnings=dict(data.get("warnings", {})),
            events=[dict(e) for e in data.get("events", [])],
        )


# ---- capture ----------------------------------------------------------------


def _gc_collections() -> int:
    return sum(int(s.get("collections", 0)) for s in gc.get_stats())


def _peak_rss_kb(ru: resource.struct_rusage) -> int:
    # ru_maxrss is KiB on Linux, bytes on macOS.
    rss = int(ru.ru_maxrss)
    return rss // 1024 if sys.platform == "darwin" else rss


def peak_rss_kb() -> int:
    """This process's lifetime peak resident set size, in KiB.

    A high-water mark, not a gauge: it never decreases, so bounding a
    workload's footprint with it requires a process that does nothing
    big *before* the workload (see ``benchmarks/trace_scale.py``).
    """
    return _peak_rss_kb(resource.getrusage(resource.RUSAGE_SELF))


class _UnitCapture:
    """Open capture handle; see :func:`begin_unit`/:func:`end_unit`."""

    __slots__ = ("registry", "owned", "wall_start", "t0_ns", "ru0", "gc0",
                 "counters0", "events0", "warned0")

    def __init__(self, registry: Registry):
        self.registry = registry
        #: True when *we* enabled the registry for this capture — the
        #: events we add are trimmed and the registry re-disabled on
        #: end, so pure-telemetry workers stay bounded and the PR 1
        #: disabled-by-default contract holds outside the unit.
        self.owned = not registry.enabled
        if self.owned:
            registry.enable()
        self.wall_start = time.time()
        self.ru0 = resource.getrusage(resource.RUSAGE_SELF)
        self.gc0 = _gc_collections()
        self.counters0 = dict(registry.counters)
        self.events0 = len(registry.events)
        self.warned0 = set(registry._warned)
        self.t0_ns = time.perf_counter_ns()


def begin_unit(registry: Registry | None = None) -> _UnitCapture:
    """Start capturing one unit's registry delta (enables if needed)."""
    return _UnitCapture(OBS if registry is None else registry)


def abort_unit(cap: _UnitCapture) -> None:
    """Restore registry state after a failed unit; no telemetry emitted."""
    reg = cap.registry
    if cap.owned:
        del reg.events[cap.events0:]
        reg._stack.clear()
        reg.disable()


def end_unit(cap: _UnitCapture, *, label: str = "",
             meta: dict | None = None) -> UnitTelemetry:
    """Close a capture; returns the unit's telemetry snapshot.

    ``meta`` is the finished run's ``RunMetrics.meta``; the replayed
    access count is lifted from it.
    """
    reg = cap.registry
    wall_ns = time.perf_counter_ns() - cap.t0_ns
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    events = reg.events[cap.events0:]

    spans: dict[str, LatencyHistogram] = {}
    event_docs: list[dict] = []
    for e in events:
        if e.kind == "span" and e.end_ns is not None:
            spans.setdefault(e.name, LatencyHistogram()).record(e.duration_ns)
        event_docs.append(e.to_dict())

    counters = {
        k: v - cap.counters0.get(k, 0)
        for k, v in reg.counters.items()
        if v != cap.counters0.get(k, 0)
    }
    warnings = {k: m for k, m in reg._warned.items()
                if k not in cap.warned0}

    ut = UnitTelemetry(
        pid=os.getpid(),
        label=label,
        wall_start=cap.wall_start,
        wall_ns=wall_ns,
        utime_us=round((ru1.ru_utime - cap.ru0.ru_utime) * 1e6),
        stime_us=round((ru1.ru_stime - cap.ru0.ru_stime) * 1e6),
        peak_rss_kb=_peak_rss_kb(ru1),
        gc_collections=_gc_collections() - cap.gc0,
        accesses=int((meta or {}).get("accesses", 0)),
        counters=counters,
        spans=spans,
        warnings=warnings,
        events=event_docs,
    )
    if cap.owned:
        del reg.events[cap.events0:]
        reg._stack.clear()
        reg.disable()
    return ut


# ---- campaign aggregation ---------------------------------------------------


@dataclass
class CampaignTelemetry:
    """Order-independent fold of :class:`UnitTelemetry` snapshots.

    All sums are over integers (nanoseconds / microseconds / counts) and
    span histograms merge element-wise, so any fold order yields the
    same aggregate; ``workers`` maxes peak RSS per pid; ``warnings``
    keeps the lexicographically-smallest message per key for
    determinism.
    """

    units: int = 0
    cached_units: int = 0  #: Units served by the result cache (engine-side).
    failed_units: int = 0
    wall_ns: int = 0  #: Summed unit wall time.
    utime_us: int = 0
    stime_us: int = 0
    gc_collections: int = 0
    accesses: int = 0
    counters: dict[str, float] = field(default_factory=dict)
    spans: dict[str, LatencyHistogram] = field(default_factory=dict)  #: ns
    workers: dict[str, dict] = field(default_factory=dict)  #: pid -> facts
    warnings: dict[str, dict] = field(default_factory=dict)  #: key -> info

    def add_unit(self, ut: UnitTelemetry) -> None:
        """Fold one unit's snapshot in (``ut`` is left unchanged)."""
        self.units += 1
        self.wall_ns += ut.wall_ns
        self.utime_us += ut.utime_us
        self.stime_us += ut.stime_us
        self.gc_collections += ut.gc_collections
        self.accesses += ut.accesses
        for key, value in ut.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        for name, hist in ut.spans.items():
            self.spans.setdefault(name, LatencyHistogram()).merge(hist)
        w = self.workers.setdefault(str(ut.pid), {
            "units": 0, "busy_ns": 0, "peak_rss_kb": 0,
            "utime_us": 0, "stime_us": 0, "gc_collections": 0,
        })
        w["units"] += 1
        w["busy_ns"] += ut.wall_ns
        w["peak_rss_kb"] = max(w["peak_rss_kb"], ut.peak_rss_kb)
        w["utime_us"] += ut.utime_us
        w["stime_us"] += ut.stime_us
        w["gc_collections"] += ut.gc_collections
        for key, message in ut.warnings.items():
            entry = self.warnings.setdefault(key,
                                             {"count": 0, "message": message})
            entry["count"] += 1
            entry["message"] = min(entry["message"], message)

    # ---- queries -----------------------------------------------------------

    def hot_spans(self, n: int = 3) -> list[tuple[str, float]]:
        """Top-n span names by summed wall time, as (name, seconds)."""
        ranked = sorted(self.spans.items(), key=lambda kv: (-kv[1].sum, kv[0]))
        return [(name, hist.sum / 1e9) for name, hist in ranked[:n]]

    @property
    def wall_s(self) -> float:
        return self.wall_ns / 1e9

    def replay_acc_per_s(self) -> float:
        """Replayed accesses per second of ``core_replay`` span time."""
        replay = self.spans.get("core_replay")
        if replay is None or replay.sum == 0:
            return 0.0
        return self.accesses / (replay.sum / 1e9)

    # ---- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": TELEMETRY_VERSION,
            "units": self.units,
            "cached_units": self.cached_units,
            "failed_units": self.failed_units,
            "wall_ns": self.wall_ns,
            "utime_us": self.utime_us,
            "stime_us": self.stime_us,
            "gc_collections": self.gc_collections,
            "accesses": self.accesses,
            "counters": dict(self.counters),
            "spans": {k: v.to_dict() for k, v in sorted(self.spans.items())},
            "workers": {pid: dict(w)
                        for pid, w in sorted(self.workers.items())},
            "warnings": {k: dict(v)
                         for k, v in sorted(self.warnings.items())},
            # Derived, for human readers; from_dict recomputes them.
            "wall_s": round(self.wall_s, 6),
            "replay_acc_per_s": round(self.replay_acc_per_s(), 3),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignTelemetry":
        return cls(
            units=int(data.get("units", 0)),
            cached_units=int(data.get("cached_units", 0)),
            failed_units=int(data.get("failed_units", 0)),
            wall_ns=int(data.get("wall_ns", 0)),
            utime_us=int(data.get("utime_us", 0)),
            stime_us=int(data.get("stime_us", 0)),
            gc_collections=int(data.get("gc_collections", 0)),
            accesses=int(data.get("accesses", 0)),
            counters=dict(data.get("counters", {})),
            spans={k: LatencyHistogram.from_dict(v)
                   for k, v in data.get("spans", {}).items()},
            workers={pid: dict(w)
                     for pid, w in data.get("workers", {}).items()},
            warnings={k: dict(v) for k, v in data.get("warnings", {}).items()},
        )

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CampaignTelemetry)
                and self.to_dict() == other.to_dict())


# ---- artefacts --------------------------------------------------------------


def write_telemetry_jsonl(path: str | Path, units: list[UnitTelemetry],
                          campaign: CampaignTelemetry) -> Path:
    """One JSON line per unit plus the final campaign aggregate."""
    import json

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.write(json.dumps({"type": "header", "version": TELEMETRY_VERSION,
                            "kind": "telemetry", "pid": os.getpid()}) + "\n")
        for ut in units:
            f.write(json.dumps({"type": "unit", **ut.to_dict()}) + "\n")
        f.write(json.dumps({"type": "campaign",
                            **campaign.to_dict()}) + "\n")
    return path


#: (epoch seconds, perf_counter_ns) at campaign start — the common time
#: base :func:`merged_trace_doc` re-bases every lane onto.
_anchor: tuple[float, int] | None = None


def mark_campaign_start() -> None:
    """Pin the campaign's epoch/monotonic origin (CLI calls this once)."""
    global _anchor
    _anchor = (time.time(), time.perf_counter_ns())


def merged_trace_doc(registry: Registry, units: list[UnitTelemetry],
                     process_name: str = "repro-campaign") -> dict:
    """One Chrome-trace document: parent lane + one pid lane per worker.

    Worker clocks (``perf_counter_ns``) are not comparable across
    processes, so each unit's events are re-based onto the campaign
    wall clock: the unit's first event lands at ``wall_start`` relative
    to the campaign origin (:func:`mark_campaign_start`, else the
    earliest unit).  Units that ran *in the parent process* while its
    registry was enabled are skipped — their spans are already in the
    parent lane.
    """
    parent_pid = os.getpid()
    if _anchor is not None:
        epoch0, mono0 = _anchor
    else:
        epoch0 = min((u.wall_start for u in units), default=time.time())
        mono0 = min((e.start_ns for e in registry.events), default=0)

    doc = chrome_trace_doc(registry, process_name)
    events = doc["traceEvents"]
    starts = [e.start_ns for e in registry.events]
    if starts:
        # chrome_trace_doc re-based the parent lane to its own earliest
        # event; shift it onto the campaign origin instead.
        shift_us = max(0.0, (min(starts) - mono0) / 1000.0)
        for ev in events:
            if "ts" in ev:
                ev["ts"] += shift_us

    seen_pids = {parent_pid}
    for ut in units:
        if ut.pid == parent_pid and registry.enabled:
            continue
        if ut.pid not in seen_pids:
            seen_pids.add(ut.pid)
            events.append({
                "ph": "M", "pid": ut.pid, "tid": 0, "name": "process_name",
                "args": {"name": f"worker {ut.pid}"},
            })
        if not ut.events:
            continue
        base_us = max(0.0, (ut.wall_start - epoch0) * 1e6)
        first = min(e["start_ns"] for e in ut.events)
        for e in ut.events:
            ts = base_us + (e["start_ns"] - first) / 1000.0
            if e["type"] == "span" and e.get("end_ns") is not None:
                events.append({
                    "ph": "X", "pid": ut.pid, "tid": 0, "cat": "sim",
                    "name": e["name"], "ts": ts,
                    "dur": (e["end_ns"] - e["start_ns"]) / 1000.0,
                    "args": {**e["args"], "depth": e["depth"],
                             "unit": ut.label},
                })
            elif e["type"] == "instant":
                events.append({
                    "ph": "i", "pid": ut.pid, "tid": 0, "cat": "sim",
                    "s": "p", "name": e["name"], "ts": ts,
                    "args": dict(e["args"]),
                })
    return doc
