"""Observability: structured tracing, counters, and run provenance.

Public surface:

* :data:`OBS` — the process-wide :class:`Registry` the stack's
  instrumentation hooks publish to (disabled by default; enabling it is
  what ``--trace``/``--progress``/``--obs-dump`` do);
* :mod:`repro.obs.sinks` — JSONL and Chrome ``trace_event`` exporters;
* :class:`ProgressReporter` — stderr narration of long sweeps
  (tty-aware: repaints in place on a terminal, plain lines on a pipe);
* :mod:`repro.obs.telemetry` — campaign-wide telemetry, the one
  per-unit record of time and counts: :class:`UnitTelemetry` snapshots
  captured in sweep workers, folded into a :class:`CampaignTelemetry`
  (counters, log2 span histograms, per-worker utilization,
  cross-process warning dedup) and a merged multi-lane Chrome trace;
* :class:`Dashboard` — the ``--dashboard`` live campaign reporter and
  its machine-readable heartbeat file;
* :func:`run_meta` / :func:`config_hash` — provenance ``meta`` blocks
  (what produced a result, not where its time went).
"""

from repro.obs.dashboard import Dashboard, ProgressReporter, supports_repaint
from repro.obs.provenance import config_hash, run_meta
from repro.obs.registry import OBS, Registry, SpanEvent
from repro.obs.sinks import (
    chrome_trace_doc,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.telemetry import (
    CampaignTelemetry,
    UnitTelemetry,
    merged_trace_doc,
    write_telemetry_jsonl,
)

__all__ = [
    "OBS", "Registry", "SpanEvent", "ProgressReporter", "supports_repaint",
    "config_hash", "run_meta",
    "chrome_trace_doc", "read_jsonl", "write_chrome_trace", "write_jsonl",
    "CampaignTelemetry", "UnitTelemetry",
    "merged_trace_doc", "write_telemetry_jsonl", "Dashboard",
]
