"""Per-layer host-time accounting, recorded from outside the program.

:class:`Ledger` wraps each layer's public entry points (the
:data:`TARGETS` table) with a timer that keeps a stack of open calls, so
every call's time is split into *self* time (its own) and time spent in
nested wrapped calls (charged to those layers instead).  Self times of
all layers plus an unattributed ``residual`` sum exactly to the pass
wall time the ledger is finished with.

Spans stay in memory — one ``(layer, start, duration, depth, unit)``
tuple per wrapped call, tagged with the unit being run — and are turned
into one Chrome trace by the parent.  The controller drain runs once per
MLP episode (hundreds of thousands of calls per pass), so it gets a
cheaper aggregate-only wrapper: its time, call count and request count
are summed, never spanned.

The wrappers patch the defining class or module *and* every loaded
``repro`` module that imported the function by name, so callers that did
``from repro.moca.allocation import plan_placement`` are timed too.  A
``Ledger`` is meant for a throw-away pass process: nothing is unpatched.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: (layer, module, attribute) for every wrapped entry point.
TARGETS = (
    ("trace.synthesis", "repro.trace.builder", "TraceBuilder.build"),
    ("trace.chunked", "repro.trace.chunked", "TraceStore.build"),
    ("trace.chunked", "repro.trace.chunked", "TraceStore.get"),
    ("cpu.filter", "repro.cpu.hierarchy", "CacheHierarchy.filter_trace"),
    ("cpu.filter", "repro.cpu.hierarchy", "CacheHierarchy.filter_chunked"),
    ("moca.profile", "repro.moca.profiler",
     "MemoryObjectProfiler.profile_trace"),
    ("moca.policy", "repro.moca.policy", "build_policy"),
    ("moca.allocation", "repro.moca.allocation", "plan_placement"),
    ("cpu.core.segment", "repro.cpu.core", "InOrderWindowCore.__init__"),
    ("cpu.core.replay", "repro.cpu.core",
     "InOrderWindowCore.run_to_completion"),
    ("memctrl.drain", "repro.memctrl.batch", "ReplayTables.drain_episode"),
    ("sim.driver", "repro.sim.spec", "run"),
    ("sim.metrics", "repro.sim.metrics", "collect_metrics"),
    ("service.epoch", "repro.service.service", "GuidanceService.end_epoch"),
    ("vm.translate", "repro.vm.pagetable", "PageTable.translate_lines"),
    ("sim.stream_store", "repro.sim.stream_store", "StreamStore.get"),
    ("sim.stream_store", "repro.sim.stream_store", "StreamStore.put"),
    ("experiments.cache", "repro.experiments.cache", "ResultCache.get"),
    ("experiments.cache", "repro.experiments.cache", "ResultCache.put"),
    ("experiments.engine", "repro.experiments.engine", "execute"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))
#: Layers timed in aggregate only (no spans, no generic wrapper).
AGGREGATED = ("memctrl.drain",)

#: Work counters: (counter, f(args, result) -> amount) per wrapped target.
COUNTS = {
    "TraceBuilder.build": ("trace.accesses", lambda a, r: len(r)),
    "TraceStore.build": ("trace.accesses", lambda a, r: len(r)),
    "CacheHierarchy.filter_trace": ("cpu.filter.accesses",
                                    lambda a, r: len(a[1])),
    "CacheHierarchy.filter_chunked": ("cpu.filter.accesses",
                                      lambda a, r: len(a[1])),
}
COUNTERS = ("trace.accesses", "cpu.filter.accesses", "memctrl.requests",
            "sim.stream_store.hits", "sim.stream_store.misses")

#: Modules whose import pulls in every name-imported copy of a target.
DRIVER_MODULES = ("repro.sim", "repro.sim.single", "repro.sim.multi",
                  "repro.sim.online", "repro.sim.migration",
                  "repro.experiments.runner")


class Ledger:
    """Self time, calls and spans per layer for one pass process."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.total_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        #: (layer, start, duration, depth, unit) per spanned call.
        self.spans: list[tuple] = []
        #: Unit id stamped on the spans of calls made while it is set.
        self.unit: str | None = None
        # One child-time accumulator per open wrapped call.
        self._stack: list[list[float]] = []
        self._depth = dict.fromkeys(LAYERS, 0)
        self._drain = [0.0, 0, 0]  # seconds, calls, requests

    # ---- installation --------------------------------------------------

    def install(self) -> None:
        """Patch every target; call once, after nothing else is running."""
        for name in DRIVER_MODULES:
            importlib.import_module(name)
        for layer, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[fn_name]
            if layer in AGGREGATED:
                wrapper = self._aggregate(original)
            else:
                wrapper = self._wrap(layer, original, attr)
            setattr(owner, fn_name, wrapper)
            if not owner_name:
                _rebind(original, wrapper)

    def _wrap(self, layer: str, fn, attr: str):
        clock = time.perf_counter
        stack, depth = self._stack, self._depth
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        spans, counts = self.spans, self.counts
        counter = COUNTS.get(attr)
        is_store_get = attr == "StreamStore.get"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[layer] -= 1
                self_s[layer] += dt - frame[0]
                calls[layer] += 1
                if not depth[layer]:
                    total_s[layer] += dt
                if stack:
                    stack[-1][0] += dt
                spans.append((layer, t0, dt, len(stack), self.unit))
            if counter is not None:
                counts[counter[0]] += counter[1](args, result)
            elif is_store_get:
                counts["sim.stream_store.misses" if result is None
                       else "sim.stream_store.hits"] += 1
            return result

        return traced

    def _aggregate(self, fn):
        clock = time.perf_counter
        stack, acc = self._stack, self._drain

        @functools.wraps(fn)
        def drain(tables, s, e, issue0, off):
            t0 = clock()
            try:
                return fn(tables, s, e, issue0, off)
            finally:
                dt = clock() - t0
                acc[0] += dt
                acc[1] += 1
                acc[2] += e - s
                if stack:
                    stack[-1][0] += dt

        return drain

    # ---- results -------------------------------------------------------

    def finish(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics for a pass of ``wall_s`` seconds.

        ``residual`` is the pass wall time no layer accounts for, so the
        ``.self_s`` values (residual included) sum to ``wall_s``.
        """
        drain = AGGREGATED[0]
        self.self_s[drain], self.calls[drain], requests = self._drain
        self.total_s[drain] = self.self_s[drain]
        self.counts["memctrl.requests"] = requests
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.share"] = self.self_s[layer] / wall_s
            out[f"{layer}.calls"] = self.calls[layer]
        out["moca.profile.total_s"] = self.total_s["moca.profile"]
        residual = wall_s - sum(self.self_s.values())
        out["residual.self_s"] = residual
        out["residual.share"] = residual / wall_s
        out.update(self.counts)
        out["memctrl.us_per_request"] = (
            1e6 * self.self_s[drain] / requests if requests else 0.0)
        return out


def _rebind(original, wrapper) -> None:
    """Point every loaded repro module's copy of ``original`` at it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
