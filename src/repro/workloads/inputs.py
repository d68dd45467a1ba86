"""Training vs reference input instantiation (paper Sec. V-A).

The paper profiles on *training* inputs and evaluates on *reference*
inputs (SPEC's train/ref sets; two different MIT-Adobe images for SDVBS).
Here an input is a deterministic perturbation of the application spec:

* the **train** input uses the spec verbatim;
* the **ref** input scales object sizes by ~1.1–1.25x and jitters access
  weights by ±10%, with an independent RNG stream for the trace itself.

Behaviour is input-stable by construction — the premise MOCA relies on
("applications with fairly similar behaviour across different input
sets") — while addresses, interleavings, and footprints all change.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from repro.trace.builder import ObjectBehavior, TraceBuilder
from repro.trace.events import AccessTrace, VirtualLayout
from repro.util.rng import stream
from repro.workloads.spec import AppSpec, app

import re

TRAIN = "train"
REF = "ref"
DRIFT = "drift1"
_INPUTS = (TRAIN, REF)
#: Accepted input names: ``train``, ``ref``, numbered reference variants
#: ``ref2``, ``ref3``, ... (independent perturbations used by the
#: seed-variance robustness study, ``repro.experiments.variance``), and
#: drifted inputs ``drift1``, ``drift2``, ... whose access-weight
#: *ranking* departs from the training input (the scenario the online
#: guidance service exists for — offline profiles misplace on them).
_INPUT_RE = re.compile(r"^(train|ref\d*|drift\d*)$")
_DRIFT_RE = re.compile(r"^drift(\d*)$")


def input_names() -> tuple[str, ...]:
    return _INPUTS


def is_valid_input(name: str) -> bool:
    return bool(_INPUT_RE.match(name))


def _drift_level(input_name: str) -> float | None:
    """Drift intensity of an input name, or ``None`` for non-drift inputs.

    ``drift``/``drift1`` → 1.0 (half-blended reversal), ``drift2`` → 2.0
    (full hot↔cold reversal), higher numbers saturate.
    """
    m = _DRIFT_RE.match(input_name)
    if m is None:
        return None
    return float(m.group(1) or 1)


def _perturbed(spec: AppSpec, input_name: str) -> tuple[ObjectBehavior, ...]:
    """Deterministically perturb the spec's behaviours for an input."""
    if input_name == TRAIN:
        return spec.behaviors
    rng = stream("input-perturb", spec.name, input_name)
    out = []
    for b in spec.behaviors:
        size_f = 1.0 + float(rng.uniform(0.02, 0.08))
        weight_f = 1.0 + float(rng.uniform(-0.10, 0.10))
        if b.segment is not None:
            # Segments keep their size (the OS fixes them); jitter weight only.
            out.append(replace(b, weight=b.weight * weight_f))
        else:
            out.append(replace(
                b,
                size_bytes=max(4096, int(b.size_bytes * size_f)),
                weight=b.weight * weight_f,
            ))
    level = _drift_level(input_name)
    if level is not None:
        out = _drifted(out, level)
    return tuple(out)


def _drifted(behaviors: list[ObjectBehavior],
             level: float) -> list[ObjectBehavior]:
    """Blend the heap objects' access weights toward their *reversed*
    ranking.

    The training profile orders objects by traffic; a drifted input
    hands the training input's cold objects the hot objects' weights
    (and vice versa), so offline classification — frozen at profile
    time — systematically misplaces exactly the objects that matter.
    ``level`` controls the blend: 1.0 mixes half-way toward the full
    reversal, >= 2.0 is the complete hot↔cold swap.  Sizes, patterns,
    and segments are untouched: the *program* is the same, only its
    input-dependent intensity per object changes (the paper's premise —
    behaviour similarity across inputs — deliberately broken).
    """
    beta = min(1.0, 0.5 * level)
    heap = [b for b in behaviors if b.segment is None]
    if len(heap) < 2:
        return behaviors
    order = sorted(range(len(heap)), key=lambda i: heap[i].weight)
    mirrored = {}
    for rank, idx in enumerate(order):
        partner = heap[order[len(order) - 1 - rank]]
        mirrored[idx] = partner.weight
    drifted = {}
    for idx, b in enumerate(heap):
        new_weight = (1.0 - beta) * b.weight + beta * mirrored[idx]
        drifted[id(b)] = replace(b, weight=new_weight)
    return [drifted.get(id(b), b) for b in behaviors]


def _check_input(input_name: str) -> None:
    if not is_valid_input(input_name):
        raise ValueError(
            f"input must be 'train', 'ref'/'refN', or 'driftN', "
            f"got {input_name!r}")


@lru_cache(maxsize=64)
def app_layout(app_name: str, input_name: str = TRAIN) -> VirtualLayout:
    """The virtual layout of one application input (memoized).

    Equal, region for region, to ``build_app_trace(app_name,
    input_name, n).layout`` at every trace length: placement reads only
    the perturbed behaviours, never the trace RNG.  So a run whose miss
    stream comes from a store needs no synthesis to place its objects.
    The returned layout is shared across callers — treat it as immutable.
    """
    _check_input(input_name)
    layout = VirtualLayout()
    TraceBuilder(list(_perturbed(app(app_name), input_name)))._place(layout)
    return layout


@lru_cache(maxsize=64)
def build_app_trace(app_name: str, input_name: str = TRAIN,
                    n_accesses: int = 200_000) -> AccessTrace:
    """Build (and memoize) the access trace of one application input.

    The returned trace is shared across callers — treat it as immutable.
    """
    _check_input(input_name)
    spec = app(app_name)
    behaviors = _perturbed(spec, input_name)
    builder = TraceBuilder(list(behaviors))
    rng = stream("trace", app_name, input_name, n_accesses)
    return builder.build(n_accesses, rng)


def build_app_trace_chunked(app_name: str, input_name: str,
                            n_accesses: int, chunk_accesses: int):
    """Build (or reopen) one application input as a chunked trace.

    The bounded-RSS sibling of :func:`build_app_trace`: identical RNG
    stream and behaviours, but the columns land as shards in the
    active :mod:`repro.trace.chunked` store instead of in memory, so
    shard *content* is byte-identical to the monolithic trace.  The
    store is content-addressed, so repeated calls (and other
    processes sharing the store directory) reuse the generated shards.
    """
    from repro.trace import chunked

    _check_input(input_name)
    store = chunked.active()
    key = chunked.trace_key(app_name, input_name, n_accesses,
                            chunk_accesses)
    cached = store.get(key)
    if cached is not None:
        return cached
    spec = app(app_name)
    behaviors = _perturbed(spec, input_name)
    builder = TraceBuilder(list(behaviors))
    rng = stream("trace", app_name, input_name, n_accesses)
    return store.build(key, builder, n_accesses, rng)
