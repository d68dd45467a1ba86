"""Shared experiment infrastructure: fidelity presets, memoized sweeps,
and a small table-rendering result type.

A *sweep* runs every (workload, memory system, policy) combination a
figure family needs and is memoized per fidelity, so e.g. Figs. 10–13
(which all read the same multicore runs) cost one simulation pass.
Sweeps decompose into individual :class:`~repro.sim.spec.RunSpec` units
and go through :mod:`repro.experiments.engine`, which schedules them at
run granularity across ``REPRO_WORKERS`` processes and consults the
persistent result cache before simulating anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.experiments import engine
from repro.obs.registry import OBS
from repro.sim.config import (
    HETER_CONFIG1,
    HETER_CONFIG2,
    HETER_CONFIG3,
    HOMOGEN_DDR3,
    HOMOGEN_HBM,
    HOMOGEN_LP,
    HOMOGEN_RL,
    SystemConfig,
)
from repro.sim.metrics import RunMetrics
from repro.sim.spec import RunSpec
from repro.workloads.mixes import MIX_NAMES
from repro.workloads.spec import APPS


@dataclass(frozen=True)
class Fidelity:
    """Trace-length preset.

    Attributes:
        name: Label used in reports.
        n_single: Accesses per trace for single-core runs.
        n_multi: Accesses per core for multicore runs.
    """

    name: str
    n_single: int
    n_multi: int


TINY = Fidelity("tiny", 30_000, 20_000)
DEFAULT = Fidelity("default", 120_000, 60_000)
FULL = Fidelity("full", 200_000, 120_000)

FIDELITIES = {f.name: f for f in (TINY, DEFAULT, FULL)}

#: (label, config, policy) columns of the single-core figures (Figs. 8–9).
SINGLE_SYSTEMS: tuple[tuple[str, SystemConfig, str], ...] = (
    ("Homogen-DDR3", HOMOGEN_DDR3, "homogen"),
    ("Homogen-RL", HOMOGEN_RL, "homogen"),
    ("Homogen-HBM", HOMOGEN_HBM, "homogen"),
    ("Homogen-LP", HOMOGEN_LP, "homogen"),
    ("Heter-App", HETER_CONFIG1, "heter-app"),
    ("MOCA", HETER_CONFIG1, "moca"),
)

#: Same for the multicore figures (Figs. 10–13).
MULTI_SYSTEMS = SINGLE_SYSTEMS

#: Heterogeneous configurations of Sec. VI-C (Figs. 14–15).
SWEEP_CONFIGS: tuple[SystemConfig, ...] = (
    HETER_CONFIG1, HETER_CONFIG2, HETER_CONFIG3,
)

#: The five workload sets shown in Figs. 14–15.
SWEEP_MIXES = ("3L1B", "1L3B", "3L1N", "2L1B1N", "2B2N")

APP_ORDER = tuple(APPS)


def _run_pairs(pairs: list[tuple[tuple, RunSpec]], phase: str) -> dict:
    """Resolve keyed specs through the engine; keys stay in order.

    Pairs are built workload-major, so the engine's chunked fan-out
    keeps same-workload units (which share memoized cache filtering)
    mostly within one worker process.
    """
    metrics = engine.execute([spec for _, spec in pairs], phase=phase)
    return {key: m for (key, _), m in zip(pairs, metrics)}


@lru_cache(maxsize=8)
def single_sweep(fidelity: Fidelity = DEFAULT
                 ) -> dict[tuple[str, str], RunMetrics]:
    """All (application, system) single-core runs → metrics."""
    with OBS.span("sweep.single", fidelity=fidelity.name):
        pairs = [
            ((app, label),
             RunSpec(workload=app, config=config.name, policy=policy,
                     n_accesses=fidelity.n_single))
            for app in APP_ORDER
            for label, config, policy in SINGLE_SYSTEMS
        ]
        return _run_pairs(pairs, "sweep.single")


@lru_cache(maxsize=8)
def multi_sweep(fidelity: Fidelity = DEFAULT
                ) -> dict[tuple[str, str], RunMetrics]:
    """All (workload set, system) 4-core runs → metrics."""
    with OBS.span("sweep.multi", fidelity=fidelity.name):
        pairs = [
            ((mix_name, label),
             RunSpec(workload=mix_name, config=config.name, policy=policy,
                     n_accesses=fidelity.n_multi))
            for mix_name in MIX_NAMES
            for label, config, policy in MULTI_SYSTEMS
        ]
        return _run_pairs(pairs, "sweep.multi")


@lru_cache(maxsize=8)
def config_sweep(fidelity: Fidelity = DEFAULT
                 ) -> dict[tuple[str, str, str], RunMetrics]:
    """(config, workload set, policy) runs for Figs. 14–15."""
    with OBS.span("sweep.config", fidelity=fidelity.name):
        pairs = [
            ((config.name, mix_name, policy),
             RunSpec(workload=mix_name, config=config.name, policy=policy,
                     n_accesses=fidelity.n_multi))
            for mix_name in SWEEP_MIXES
            for config in SWEEP_CONFIGS
            for policy in ("heter-app", "moca")
        ]
        return _run_pairs(pairs, "sweep.config")


@dataclass
class FigureResult:
    """A regenerated table/figure: header, rows, and provenance notes."""

    figure_id: str
    title: str
    columns: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Provenance block (see :func:`repro.obs.provenance.run_meta`);
    #: saved alongside the data by :mod:`repro.experiments.store`.
    meta: dict = field(default_factory=dict)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"{self.figure_id}: row has {len(values)} cells, "
                f"expected {len(self.columns)}")
        self.rows.append(list(values))

    def column(self, name: str) -> list[object]:
        idx = self.columns.index(name)
        return [r[idx] for r in self.rows]

    def row(self, key: object) -> list[object]:
        for r in self.rows:
            if r[0] == key:
                return r
        raise KeyError(f"{self.figure_id}: no row {key!r}")

    def cell(self, row_key: object, column: str) -> object:
        return self.row(row_key)[self.columns.index(column)]

    def render(self) -> str:
        """Plain-text table (the textual equivalent of the figure)."""
        def fmt(v: object) -> str:
            if isinstance(v, float):
                return f"{v:.3f}"
            return str(v)

        widths = [len(c) for c in self.columns]
        body = [[fmt(v) for v in row] for row in self.rows]
        for row in body:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [f"== {self.figure_id}: {self.title} =="]
        lines.append("  ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def render_bars(self, width: int = 48) -> str:
        """ASCII bar chart of the numeric columns, one block per row.

        The textual stand-in for the paper's grouped-bar figures: each
        row (app/mix) gets one group, each numeric column one bar scaled
        to the figure-wide maximum.
        """
        numeric_cols = [
            i for i in range(1, len(self.columns))
            if all(isinstance(r[i], (int, float)) for r in self.rows)
        ]
        if not numeric_cols:
            return self.render()
        # `default=0.0` guards the all-non-positive (or no-row) figure:
        # an empty generator would raise ValueError; scale such bars to 1.
        peak = max((float(r[i]) for r in self.rows for i in numeric_cols
                    if float(r[i]) > 0), default=0.0) or 1.0
        label_w = max(len(self.columns[i]) for i in numeric_cols)
        lines = [f"== {self.figure_id}: {self.title} =="]
        for row in self.rows:
            lines.append(f"{row[0]}:")
            for i in numeric_cols:
                v = float(row[i])
                bar = "#" * max(0, round(v / peak * width))
                lines.append(f"  {self.columns[i]:<{label_w}} "
                             f"{bar} {v:.3f}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """GitHub-flavoured markdown table (for reports/EXPERIMENTS.md)."""
        def fmt(v: object) -> str:
            if isinstance(v, float):
                return f"{v:.3f}"
            return str(v)

        lines = [f"### {self.figure_id} — {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(fmt(v) for v in row) + " |")
        for note in self.notes:
            lines.append("")
            lines.append(f"*{note}*")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-compatible form (see :mod:`repro.experiments.store`)."""
        return {
            "figure_id": self.figure_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(r) for r in self.rows],
            "notes": list(self.notes),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FigureResult":
        fig = cls(figure_id=data["figure_id"], title=data["title"],
                  columns=list(data["columns"]))
        for row in data["rows"]:
            fig.add_row(*row)
        fig.notes = list(data.get("notes", []))
        fig.meta = dict(data.get("meta", {}))
        return fig


def geomean(values: list[float]) -> float:
    """Geometric mean (the right average for normalized ratios)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    prod = 1.0
    for v in vals:
        prod *= v
    return prod ** (1.0 / len(vals))
