"""The ``--out``/``--check`` driver every digest-pin script shares.

A pin script (``trace_digests.py``, ``filter_digests.py``,
``migration_digests.py``) maps each pinned build to one SHA-256 digest
and hands its generator to :func:`pin_main`::

    PYTHONPATH=src python benchmarks/<kind>_digests.py --out PINS.json
    PYTHONPATH=src python benchmarks/<kind>_digests.py --check PINS.json

``--out`` writes fresh pins; ``--check`` regenerates them, exits 1 and
names every key whose digest differs from (or is missing in) the pins.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable


def pin_main(doc: str, kind: str, generate: Callable[[], dict[str, str]],
             argv: list[str] | None = None) -> int:
    """Run one pin script's command line; ``doc`` is its docstring."""
    ap = argparse.ArgumentParser(description=doc.split("\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="write fresh pins here")
    mode.add_argument("--check", type=Path,
                      help="regenerate and compare with these pins")
    args = ap.parse_args(argv)
    fresh = generate()
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(fresh, indent=1) + "\n")
        print(f"wrote {len(fresh)} {kind} digests to {args.out}")
        return 0
    pinned = json.loads(args.check.read_text())
    bad = sorted(k for k in pinned.keys() | fresh.keys()
                 if pinned.get(k) != fresh.get(k))
    for key in bad:
        print(f"MISMATCH {key}: pinned {pinned.get(key)} "
              f"fresh {fresh.get(key)}", file=sys.stderr)
    if bad:
        return 1
    print(f"{len(fresh)} {kind} digests match {args.check}")
    return 0
