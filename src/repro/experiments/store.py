"""Result persistence: save regenerated figures as JSON artefacts.

``python -m repro.experiments all --save results/`` writes one
``<id>.json`` per figure plus a ``manifest.json`` (fidelity, versions),
so a campaign's numbers can be diffed across commits or machines without
re-simulating.  Documents round-trip through
:meth:`~repro.experiments.runner.FigureResult.to_dict`.
"""

from __future__ import annotations

import json
import platform
from datetime import datetime, timezone
from pathlib import Path

from repro.experiments.runner import Fidelity, FigureResult

FORMAT_VERSION = 1


def save_figure(fig: FigureResult, directory: str | Path,
                meta: dict | None = None) -> Path:
    """Write one figure artefact; returns the file path.

    ``meta`` (see :func:`repro.obs.provenance.run_meta`) is merged into
    the figure's provenance block before serializing, so artefacts record
    config hash, fidelity, seed, phase wall-times, and counter snapshots
    next to their numbers.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{fig.figure_id}.json"
    if meta:
        fig.meta = {**fig.meta, **meta}
    doc = {"version": FORMAT_VERSION, **fig.to_dict()}
    path.write_text(json.dumps(doc, indent=1))
    return path


def load_figure(path: str | Path) -> FigureResult:
    """Read a figure artefact written by :func:`save_figure`.

    Malformed documents (e.g. a hand-edited row whose cell count no
    longer matches ``columns``) raise ``ValueError`` naming the file, so
    a broken artefact in a results directory is identifiable without a
    debugger.
    """
    path = Path(path)
    doc = json.loads(path.read_text())
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported figure artefact version "
            f"{doc.get('version')!r}")
    try:
        return FigureResult.from_dict(doc)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: invalid figure artefact: {exc}") from exc


def write_manifest(directory: str | Path, fidelity: Fidelity,
                   figure_ids: list[str],
                   statuses: dict[str, dict] | None = None) -> Path:
    """Record campaign provenance next to the artefacts.

    Besides versions/seed/fidelity this captures the sweep engine's
    per-phase wall times and — when a persistent result cache is active —
    its hit/miss/store tallies and hit ratio (plus, nested under
    ``cache.streams``, the miss-stream store's), so a warm campaign is
    distinguishable from a cold one after the fact.  ``statuses`` (the
    CLI's per-figure outcome map: ``ok`` / ``failed`` / ``resumed`` plus
    wall time or error) and the engine's resilience tallies (retries,
    timeouts, pool rebuilds, terminal unit failures, degraded-serial
    flag) land in the manifest too, so a campaign that survived faults
    says so instead of looking clean.  When per-unit telemetry capture
    was on (the CLI default), the campaign-wide
    :class:`~repro.obs.telemetry.CampaignTelemetry` aggregate — summed
    counters, span histograms with percentiles, per-worker utilization,
    deduplicated warnings — lands under ``telemetry`` and round-trips
    losslessly via ``CampaignTelemetry.from_dict``.
    """
    import repro
    from repro.experiments import engine
    from repro.moca.policy import policy_names
    from repro.obs.registry import OBS
    from repro.util.rng import ROOT_SEED

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "manifest.json"
    doc = {
        "version": FORMAT_VERSION,
        "generated_utc": datetime.now(timezone.utc).isoformat(),
        "library_version": repro.__version__,
        "python": platform.python_version(),
        "seed": ROOT_SEED,
        "fidelity": {"name": fidelity.name,
                     "n_single": fidelity.n_single,
                     "n_multi": fidelity.n_multi},
        "figures": sorted(figure_ids),
        # The placement-policy registry at campaign time: artefacts from
        # a build with extra registered policies say so.
        "policies": sorted(policy_names()),
    }
    if statuses:
        doc["figure_status"] = {k: dict(v) for k, v in statuses.items()}
    cache = engine.cache_stats()
    if cache is not None:
        doc["cache"] = cache
    resilience = engine.resilience_stats()
    if resilience is not None:
        doc["resilience"] = resilience
    telemetry = engine.telemetry_stats()
    if telemetry is not None:
        doc["telemetry"] = telemetry
    sweeps = engine.sweep_seconds()
    if sweeps:
        doc["sweep_seconds"] = {k: round(v, 6) for k, v in sweeps.items()}
    if OBS.enabled:
        doc["phase_seconds"] = {k: round(v, 6)
                                for k, v in OBS.phase_seconds().items()}
        doc["counters"] = dict(OBS.counters)
    path.write_text(json.dumps(doc, indent=1))
    return path


def build_report(directory: str | Path, title: str = "Experiment report",
                 ) -> str:
    """Render every artefact in ``directory`` into one markdown report.

    Pairs with ``python -m repro.experiments all --save DIR``: run a
    campaign, then turn its artefacts into a document without
    re-simulating anything.
    """
    directory = Path(directory)
    figures = sorted(directory.glob("*.json"))
    parts = [f"# {title}", ""]
    manifest = directory / "manifest.json"
    if manifest.exists():
        doc = json.loads(manifest.read_text())
        parts.append(
            f"*Generated {doc.get('generated_utc', '?')} at fidelity "
            f"`{doc.get('fidelity', {}).get('name', '?')}` with repro "
            f"{doc.get('library_version', '?')}.*")
        parts.append("")
    for path in figures:
        # Skip the manifest and hidden housekeeping files (the campaign
        # journal ``.campaign.json`` — pathlib's glob matches dotfiles).
        if path.name == "manifest.json" or path.name.startswith("."):
            continue
        parts.append(load_figure(path).render_markdown())
        parts.append("")
    return "\n".join(parts)


def diff_figures(a: FigureResult, b: FigureResult,
                 rel_tol: float = 0.02) -> list[str]:
    """Human-readable cell-level differences between two artefacts.

    Returns one line per differing cell; empty list means the figures
    agree within ``rel_tol`` on every numeric cell (and exactly on text).
    """
    out: list[str] = []
    if a.columns != b.columns:
        return [f"column mismatch: {a.columns} vs {b.columns}"]
    keys_a = [r[0] for r in a.rows]
    keys_b = [r[0] for r in b.rows]
    if keys_a != keys_b:
        return [f"row mismatch: {keys_a} vs {keys_b}"]
    for ra, rb in zip(a.rows, b.rows):
        for col, va, vb in zip(a.columns[1:], ra[1:], rb[1:]):
            if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
                denom = max(abs(va), abs(vb), 1e-12)
                if abs(va - vb) / denom > rel_tol:
                    out.append(f"{ra[0]}/{col}: {va} vs {vb}")
            elif va != vb:
                out.append(f"{ra[0]}/{col}: {va!r} vs {vb!r}")
    return out
