"""Human progress output: span narration and the live campaign dashboard.

Two stderr reporters share one tty rule (:func:`supports_repaint`): on
an interactive terminal each update repaints a single status line in
place with a carriage return; on a pipe or file they fall back to plain
lines, so redirected logs stay clean of control characters.  No
dependencies beyond the standard library.

* :class:`ProgressReporter` is a registry listener: it narrates closed
  spans at or above a configurable depth, so a FULL-fidelity
  ``single_sweep()`` reports ``run.mcf.moca (4.2s)`` instead of grinding
  silently for minutes.  Attach with ``reporter.attach(OBS)`` (the
  ``--progress`` CLI flag does exactly this).  Sweeps run with
  ``REPRO_WORKERS > 1`` execute rows in worker processes whose
  registries are separate; progress lines then cover only the parent
  process's own spans.
* :class:`Dashboard` gives campaign-wide visibility.  The
  ``--dashboard`` flag of ``python -m repro.experiments`` attaches it
  to the sweep engine's observer hook.  It renders a single status
  line — figure progress, units done/total, throughput, ETA, cache and
  stream-store hit ratios, resilience counts, and the top-3 hottest
  spans so far — repainted on a terminal, throttled on a pipe.
  Alongside the human view it maintains a machine-readable heartbeat
  file (``<save>/.heartbeat.json``, atomic tmp-then-replace) so
  external tooling can tail a running campaign without parsing stderr.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import deque
from pathlib import Path
from typing import Callable, TextIO

from repro.obs.registry import Registry, SpanEvent

__all__ = ["Dashboard", "HEARTBEAT_NAME", "ProgressReporter",
           "supports_repaint"]

#: Erase-to-end-of-line after a carriage return, so shorter repaints
#: don't leave stale tail characters.
_CLEAR_EOL = "\x1b[K"


def supports_repaint(stream: TextIO) -> bool:
    """Whether in-place carriage-return repaints are safe on ``stream``.

    True only for a real tty whose ``TERM`` is not ``dumb``; pipes,
    files, and ``StringIO`` buffers get plain line-per-update output.
    """
    try:
        if not stream.isatty():
            return False
    except (AttributeError, ValueError, OSError):
        return False
    return os.environ.get("TERM", "") != "dumb"


#: File name of the machine-readable heartbeat inside ``--save`` dirs.
HEARTBEAT_NAME = ".heartbeat.json"

#: Heartbeat schema version.
HEARTBEAT_VERSION = 1


def _fmt_eta(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    s = int(seconds)
    if s >= 3600:
        return f"{s // 3600}h{(s % 3600) // 60:02d}m"
    if s >= 60:
        return f"{s // 60}m{s % 60:02d}s"
    return f"{s}s"


class ProgressReporter:
    """Narrate closed spans (depth-filtered) to a stream.

    ``repaint=None`` (the default) auto-detects via
    :func:`supports_repaint`; pass ``True``/``False`` to force a mode.
    In repaint mode call :meth:`close` (or detach) when done so the last
    status line is terminated with a newline.
    """

    def __init__(self, stream: TextIO | None = None, max_depth: int = 1,
                 repaint: bool | None = None):
        self.stream = stream if stream is not None else sys.stderr
        self.max_depth = max_depth
        self.repaint = (supports_repaint(self.stream)
                        if repaint is None else repaint)
        self.n_reported = 0
        self._t0 = time.perf_counter()
        self._open_line = False

    def __call__(self, event: SpanEvent) -> None:
        if event.kind != "span" or event.depth > self.max_depth:
            return
        self.n_reported += 1
        elapsed = time.perf_counter() - self._t0
        indent = "  " * event.depth
        line = (f"[{elapsed:8.1f}s] {indent}{event.name} "
                f"({event.duration_s:.2f}s)")
        if self.repaint:
            print(f"\r{line}{_CLEAR_EOL}", file=self.stream,
                  flush=True, end="")
            self._open_line = True
        else:
            print(line, file=self.stream, flush=True)

    def close(self) -> None:
        """Terminate a pending repaint line (no-op in line mode)."""
        if self._open_line:
            print(file=self.stream, flush=True)
            self._open_line = False

    def attach(self, registry: Registry) -> "ProgressReporter":
        registry.add_listener(self)
        return self

    def detach(self, registry: Registry) -> None:
        registry.remove_listener(self)
        self.close()


class Dashboard:
    """Render campaign progress from engine observer events.

    Feed it the engine's events via :meth:`on_event` (shape
    ``{"kind": "phase_begin" | "unit_done" | "phase_end", ...}``) and
    the figure lifecycle via :meth:`figure_begin`/:meth:`figure_end`.
    ``stats_provider`` is an optional zero-arg callable returning the
    engine's live stats dict (cache/resilience/telemetry) — injected by
    the CLI so this module needs no import of the experiments layer.
    """

    def __init__(self, stream: TextIO | None = None,
                 heartbeat_path: str | Path | None = None,
                 stats_provider: Callable[[], dict] | None = None,
                 min_interval: float | None = None,
                 clock: Callable[[], float] = time.monotonic):
        self.stream = stream if stream is not None else sys.stderr
        self.repaint = supports_repaint(self.stream)
        # Repaints are cheap; plain lines on a pipe are kept sparse.
        self.min_interval = (0.25 if self.repaint else 2.0
                             ) if min_interval is None else min_interval
        self.heartbeat_path = (Path(heartbeat_path)
                               if heartbeat_path is not None else None)
        self.stats_provider = stats_provider
        self.clock = clock
        self.figures: list[str] = []
        self.fidelity = ""
        self.figure = ""
        self.figures_done = 0
        self.units_done = 0
        self.units_total = 0
        self.cached_units = 0
        self.failed_units = 0
        self._t0 = clock()
        self._last_render = -1e9
        self._last_heartbeat = -1e9
        self._window: deque[tuple[float, int]] = deque(maxlen=32)
        self._open_line = False

    # ---- lifecycle ---------------------------------------------------------

    def campaign_begin(self, figures: list[str], fidelity: str) -> None:
        self.figures = list(figures)
        self.fidelity = fidelity
        self._t0 = self.clock()
        self._window.append((self._t0, 0))
        self._render(force=True)

    def figure_begin(self, name: str) -> None:
        self.figure = name
        self._render(force=True)

    def figure_end(self, name: str, status: str) -> None:
        self.figures_done += 1
        # Persist one line per finished figure even in repaint mode, so
        # scrollback keeps a campaign ledger.
        self._render(force=True, persist=True,
                     suffix=f" | {name}: {status}")
        self._heartbeat(force=True)

    def campaign_end(self) -> None:
        self._render(force=True, persist=True, suffix=" | done")
        self._heartbeat(force=True)

    # ---- engine events -----------------------------------------------------

    def on_event(self, event: dict) -> None:
        kind = event.get("kind")
        if kind == "phase_begin":
            self.units_total += int(event.get("total", 0))
            cached = int(event.get("cached", 0))
            self.cached_units += cached
            self.units_done += cached
        elif kind == "unit_done":
            self.units_done += 1
            if not event.get("ok", True):
                self.failed_units += 1
        elif kind != "phase_end":
            return
        self._window.append((self.clock(), self.units_done))
        self._render(force=(kind == "phase_end"))
        self._heartbeat()

    # ---- rates -------------------------------------------------------------

    def throughput(self) -> float:
        """Units per second over the recent window (campaign-wide fallback)."""
        if len(self._window) >= 2:
            (t0, d0), (t1, d1) = self._window[0], self._window[-1]
            if t1 > t0 and d1 > d0:
                return (d1 - d0) / (t1 - t0)
        elapsed = self.clock() - self._t0
        return self.units_done / elapsed if elapsed > 0 else 0.0

    def eta_seconds(self) -> float | None:
        rate = self.throughput()
        remaining = self.units_total - self.units_done
        if rate <= 0 or remaining <= 0:
            return None
        return remaining / rate

    # ---- rendering ---------------------------------------------------------

    def _stats(self) -> dict:
        if self.stats_provider is None:
            return {}
        try:
            return self.stats_provider() or {}
        except Exception:  # stats must never kill a campaign
            return {}

    def _line(self, stats: dict) -> str:
        parts = [
            f"fig {min(self.figures_done + 1, len(self.figures) or 1)}"
            f"/{len(self.figures) or 1} {self.figure or '-'}",
            f"units {self.units_done}/{self.units_total}"
            + (f" ({self.cached_units} cached)" if self.cached_units else ""),
            f"{self.throughput():.1f}/s",
            f"eta {_fmt_eta(self.eta_seconds())}",
        ]
        cache = stats.get("cache")
        if cache:
            parts.append(f"cache {cache.get('hit_ratio', 0.0):.2f}")
        streams = stats.get("streams")
        if streams:
            parts.append(f"streams {streams.get('hit_ratio', 0.0):.2f}")
        res = stats.get("resilience")
        if res and (res.get("retries") or res.get("timeouts")
                    or res.get("pool_breaks")):
            parts.append(f"retries {res.get('retries', 0)}"
                         f" timeouts {res.get('timeouts', 0)}"
                         f" breaks {res.get('pool_breaks', 0)}")
        if self.failed_units:
            parts.append(f"FAILED {self.failed_units}")
        hot = stats.get("hot_spans")
        if hot:
            parts.append("hot " + " ".join(
                f"{name}:{secs:.1f}s" for name, secs in hot[:3]))
        return f"[dash {self.fidelity}] " + " | ".join(parts)

    def _render(self, force: bool = False, persist: bool = False,
                suffix: str = "") -> None:
        now = self.clock()
        if not force and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        line = self._line(self._stats()) + suffix
        if self.repaint and not persist:
            print(f"\r{line}{_CLEAR_EOL}", file=self.stream,
                  flush=True, end="")
            self._open_line = True
        else:
            end = "\n"
            prefix = "\r" + _CLEAR_EOL if self._open_line else ""
            print(f"{prefix}{line}", file=self.stream, flush=True, end=end)
            self._open_line = False

    # ---- heartbeat ---------------------------------------------------------

    def heartbeat_doc(self) -> dict:
        stats = self._stats()
        eta = self.eta_seconds()
        return {
            "version": HEARTBEAT_VERSION,
            "ts_epoch": time.time(),
            "pid": os.getpid(),
            "fidelity": self.fidelity,
            "figure": self.figure,
            "figures_done": self.figures_done,
            "figures_total": len(self.figures),
            "units_done": self.units_done,
            "units_total": self.units_total,
            "cached_units": self.cached_units,
            "failed_units": self.failed_units,
            "throughput_per_s": round(self.throughput(), 3),
            "eta_s": None if eta is None else round(eta, 1),
            "stats": stats or None,
        }

    def _heartbeat(self, force: bool = False) -> None:
        if self.heartbeat_path is None:
            return
        now = self.clock()
        if not force and now - self._last_heartbeat < 1.0:
            return
        self._last_heartbeat = now
        path = self.heartbeat_path
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(self.heartbeat_doc(), indent=2))
        os.replace(tmp, path)  # atomic: readers never see a partial file
