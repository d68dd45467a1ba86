"""One ledger pass: a fresh interpreter runs one workload's units.

Started by ``ledger.py`` with one JSON argument::

    {"workload": "fig08", "seed": 1, "smoke": false,
     "phase": "pass" | "fill" | "setup", "trace": false}

It imports ``repro``, builds the specs (and, when traced, installs the
:class:`~layers.Ledger`), notes the moment it is ready, then sends each
unit through ``repro.experiments.engine.execute([spec])`` back to back.
The last line of its standard output is one JSON object: the ready
timestamp (``time.monotonic``, comparable with the parent's spawn time),
the pass wall time, per-unit latencies, host-speed samples taken at
ready and after each unit (:mod:`calibration`), digests and errors,
simulated accesses, peak RSS and — when traced — the layer metrics and
spans.  A ``setup`` phase stops once ready, after one speed sample: an
extra set-up time sample.

The ``warmup`` phase (``{"phase": "warmup", "workloads": [...], "seed",
"smoke"}``) runs nothing: it lists every workload's unit ids, which
the parent needs to count units of a pass that crashed, and compiles
bytecode so the first measured pass does not pay for that.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import calibration


def digest(metrics) -> str:
    """SHA-256 of a result's simulated statistics (provenance excluded)."""
    doc = metrics.to_dict()
    doc.pop("meta", None)
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def main(argv: list[str]) -> int:
    cfg = json.loads(argv[1])
    from repro.experiments import engine
    from repro.obs.telemetry import peak_rss_kb

    import workloads

    seed, smoke = cfg["seed"], cfg["smoke"]
    if cfg["phase"] == "warmup":
        import importlib

        from layers import DRIVER_MODULES

        for name in DRIVER_MODULES:
            importlib.import_module(name)
        print(json.dumps({
            phase: {w: [workloads.unit_id(s) for s in build(w, seed, smoke)]
                    for w in cfg["workloads"]}
            for phase, build in (("pass", workloads.units),
                                 ("fill", workloads.fill_units))}))
        return 0
    build = workloads.fill_units if cfg["phase"] == "fill" else \
        workloads.units
    specs = build(cfg["workload"], seed, smoke)
    ledger = None
    if cfg["trace"]:
        from layers import Ledger

        ledger = Ledger()
        ledger.install()
    out: dict = {"ready": time.monotonic()}
    if cfg["phase"] == "setup":
        out["cals"] = [calibration.sample()]
    else:
        out.update(run_units(engine, specs, ledger, workloads.unit_id))
    out["peak_rss_kb"] = peak_rss_kb()
    print(json.dumps(out))
    return 0


def run_units(engine, specs, ledger, unit_id) -> dict:
    """Run the units back to back, sampling host speed around each.

    The pass wall time is the sum of the unit latencies, so the
    calibration samples between units are not part of it.
    """
    latencies, accesses = [], 0
    cals = [calibration.sample()]
    digests: dict[str, str | None] = {}
    errors: dict[str, str] = {}
    results = []
    start = time.perf_counter()
    for spec in specs:
        uid = unit_id(spec)
        if ledger is not None:
            ledger.unit = uid
        t0 = time.perf_counter()
        try:
            metrics = engine.execute([spec])[0]
        except Exception as exc:  # a failed unit is counted, not fatal
            metrics = None
            errors[uid] = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        results.append((uid, metrics))
        cals.append(calibration.sample())
    wall = sum(latencies)
    for uid, metrics in results:
        digests[uid] = None if metrics is None else digest(metrics)
        if metrics is not None:
            accesses += int(metrics.meta.get("accesses", 0))
    out = {"wall_s": wall, "latencies": latencies, "cals": cals,
           "digests": digests, "errors": errors, "accesses": accesses}
    if ledger is not None:
        out["layers"] = ledger.finish(wall)
        out["spans"] = [(layer, t0 - start, dt, depth, unit)
                        for layer, t0, dt, depth, unit in ledger.spans]
    return out


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
