"""Process-local observability registry: counters, gauges, timed spans.

The registry is the single collection point for runtime telemetry across
the simulation stack (core replay, memory controllers, the OS allocator,
the MOCA profiler, experiment sweeps).  Design constraints, in order:

1. **Near-zero cost when disabled.**  Every hot-path hook is guarded by
   one attribute check (``if OBS.enabled:``) or goes through
   :meth:`Registry.span`, which returns a shared no-op context manager
   when disabled.  Hot inner loops (the episode loop in
   ``repro.cpu.core``) never call into the registry at all — cores
   publish their accumulated counters once per run.
2. **Process-local.**  Sweep workers (``REPRO_WORKERS > 1``) each carry
   their own registry; telemetry is not merged across processes.  This
   mirrors the low-overhead, per-process collectors of online-guidance
   systems for heterogeneous memory (arXiv:2110.02150).
3. **Structured.**  Spans are hierarchical (``sweep.single`` →
   ``run.mcf.moca`` → ``cache_filter``) and carry attributes; sinks
   (``repro.obs.sinks``) serialize the same event list to JSONL or the
   Chrome ``trace_event`` format without re-interpretation.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["SpanEvent", "Registry", "OBS"]


@dataclass
class SpanEvent:
    """One recorded event: a timed span or an instant (warning) marker."""

    span_id: int
    parent_id: int  #: 0 for root spans.
    name: str
    depth: int  #: Nesting depth; root spans are at depth 0.
    start_ns: int
    end_ns: int | None = None  #: ``None`` while the span is still open.
    args: dict = field(default_factory=dict)
    kind: str = "span"  #: ``"span"`` or ``"instant"``.

    @property
    def duration_ns(self) -> int:
        return 0 if self.end_ns is None else self.end_ns - self.start_ns

    @property
    def duration_s(self) -> float:
        return self.duration_ns / 1e9

    def to_dict(self) -> dict:
        """JSONL-ready form (see :func:`repro.obs.sinks.write_jsonl`)."""
        return {
            "type": self.kind,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "depth": self.depth,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "args": dict(self.args),
        }


class _NullSpan:
    """Shared do-nothing span handed out while the registry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _Span:
    """Live span context manager; closing records the end time."""

    __slots__ = ("_registry", "event")

    def __init__(self, registry: "Registry", event: SpanEvent):
        self._registry = registry
        self.event = event

    def set(self, **args) -> "_Span":
        """Attach attributes to the span (merged into ``event.args``)."""
        self.event.args.update(args)
        return self

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc) -> bool:
        self._registry._close_span(self.event)
        return False


class Registry:
    """Named counters, gauges and hierarchical spans for one process.

    Disabled by default; the module-level :data:`OBS` singleton is what
    the instrumentation hooks talk to.  ``add``/``gauge``/``span`` are
    silent no-ops while disabled.
    """

    def __init__(self, enabled: bool = False,
                 clock: Callable[[], int] = time.perf_counter_ns):
        self.enabled = enabled
        self.clock = clock
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.events: list[SpanEvent] = []
        self._stack: list[SpanEvent] = []
        self._listeners: list[Callable[[SpanEvent], None]] = []
        self._warned: dict[str, str] = {}  #: dedup key -> message
        self._next_id = 1
        #: Suppress the stderr print of :meth:`warn` (the warning is
        #: still recorded).  Sweep workers with telemetry on set this:
        #: their warnings ship back in unit telemetry and the parent
        #: prints each once instead of once per worker.
        self.quiet = False

    # ---- lifecycle ---------------------------------------------------------------

    def enable(self) -> "Registry":
        self.enabled = True
        return self

    def disable(self) -> "Registry":
        self.enabled = False
        return self

    def reset(self) -> "Registry":
        """Drop all recorded telemetry (listeners and warn-once state too)."""
        self.counters.clear()
        self.gauges.clear()
        self.events.clear()
        self._stack.clear()
        self._listeners.clear()
        self._warned.clear()
        self._next_id = 1
        return self

    # ---- counters & gauges -------------------------------------------------------

    def add(self, name: str, delta: float = 1) -> None:
        """Increment a counter (no-op while disabled)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge to its latest observed value (no-op while disabled)."""
        if not self.enabled:
            return
        self.gauges[name] = value

    def snapshot(self) -> dict:
        """Point-in-time copy of every counter and gauge."""
        return {"counters": dict(self.counters), "gauges": dict(self.gauges)}

    # ---- spans -------------------------------------------------------------------

    def span(self, name: str, **args):
        """Open a timed span; use as a context manager.

        Returns the shared :data:`NULL_SPAN` while disabled, so callers
        pay one attribute check and no allocation.
        """
        if not self.enabled:
            return NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        event = SpanEvent(
            span_id=self._next_id,
            parent_id=parent.span_id if parent else 0,
            name=name,
            depth=len(self._stack),
            start_ns=self.clock(),
            args=dict(args),
        )
        self._next_id += 1
        self.events.append(event)
        self._stack.append(event)
        return _Span(self, event)

    def _close_span(self, event: SpanEvent) -> None:
        event.end_ns = self.clock()
        # Tolerate out-of-order closes (generators, exceptions): pop
        # everything above the closing span as well.
        while self._stack and self._stack[-1] is not event:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        for listener in self._listeners:
            listener(event)

    def spans(self, name: str | None = None) -> list[SpanEvent]:
        """Closed spans, optionally filtered by exact name."""
        return [e for e in self.events
                if e.kind == "span" and e.end_ns is not None
                and (name is None or e.name == name)]

    @property
    def max_depth(self) -> int:
        """Deepest nesting level recorded so far (-1 when no spans)."""
        return max((e.depth for e in self.events if e.kind == "span"),
                   default=-1)

    # ---- warnings ----------------------------------------------------------------

    def warn(self, message: str, *, key: str | None = None) -> None:
        """One-shot warning: stderr always, plus an instant event if enabled.

        Unlike the other hooks this is *not* silenced when the registry
        is disabled — a warning the user never sees defeats its purpose —
        but each distinct warning prints at most once per process.

        ``key`` is the dedup identity (defaults to the message itself).
        A stable key lets callers vary the message text — e.g. embed a
        count — without re-printing, and lets campaign telemetry
        deduplicate the same warning across worker processes.  With
        :attr:`quiet` set the stderr print is suppressed (the warning is
        still recorded and still shipped in telemetry).
        """
        key = message if key is None else key
        if key not in self._warned:
            self._warned[key] = message
            if not self.quiet:
                print(f"[repro.obs] warning: {message}", file=sys.stderr)
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.events.append(SpanEvent(
                span_id=self._next_id,
                parent_id=parent.span_id if parent else 0,
                name="warning",
                depth=len(self._stack),
                start_ns=self.clock(),
                end_ns=None,
                args={"message": message},
                kind="instant",
            ))
            self._next_id += 1
            self.counters["obs.warnings"] = (
                self.counters.get("obs.warnings", 0) + 1)

    # ---- listeners ---------------------------------------------------------------

    def add_listener(self, fn: Callable[[SpanEvent], None]) -> None:
        """Register a callback fired on every span close (progress sinks)."""
        self._listeners.append(fn)

    def remove_listener(self, fn: Callable[[SpanEvent], None]) -> None:
        if fn in self._listeners:
            self._listeners.remove(fn)


#: The process-wide registry every instrumentation hook publishes to.
OBS = Registry()
