"""Pins for hot-page migration runs: one SHA-256 per migration spec.

``RunSpec(..., policy="homogen", migration=MigrationConfig(...))`` runs
have no committed figure rows, yet they share their page-copy accounting
(:func:`repro.vm.migration.charge_page_copy`) and the page table with
the online guidance service.  Each digest covers the run's
:class:`~repro.sim.metrics.RunMetrics` without the provenance block
(``meta``), plus the migrator's own ledger (``meta["migration"]``: moves,
swaps, copy and shootdown cycles, bytes copied), for three applications
on two heterogeneous systems — one with a 32 MB latency module small
enough that promotions turn into swaps.  A change to migration,
translation or page-copy accounting that alters any number changes a
digest.

Write the pins, or regenerate and compare against committed ones::

    PYTHONPATH=src python benchmarks/migration_digests.py --out results/migration-tiny/digests.json
    PYTHONPATH=src python benchmarks/migration_digests.py --check results/migration-tiny/digests.json

``--check`` exits 1 and names every mismatching spec.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE.parent / "src"))

from digest_pins import pin_main  # noqa: E402
from repro.sim.spec import RunSpec, run  # noqa: E402
from repro.vm.migration import MigrationConfig  # noqa: E402

APPS = ("mcf", "milc", "gcc")
SYSTEMS = ("Heter-config1", "Heter-cap32")
N_ACCESSES = 30_000
CONFIG = MigrationConfig(epoch_misses=500, max_migrations_per_epoch=96)


def specs() -> list[RunSpec]:
    """Every pinned migration spec, in file order."""
    return [RunSpec(a, s, "homogen", N_ACCESSES, migration=CONFIG)
            for a in APPS for s in SYSTEMS]


def key(spec: RunSpec) -> str:
    return f"{spec.workload}/{spec.config}/{spec.n_accesses}"


def digest(spec: RunSpec) -> str:
    """SHA-256 of one run's metrics (minus ``meta``) and migration stats."""
    metrics = run(spec)
    doc = metrics.to_dict()
    doc.pop("meta")
    doc["migration"] = metrics.meta["migration"]
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def generate() -> dict[str, str]:
    return {key(s): digest(s) for s in specs()}


def main(argv: list[str] | None = None) -> int:
    return pin_main(__doc__, "migration", generate, argv)


if __name__ == "__main__":
    sys.exit(main())
