"""Compose per-object access behaviours into one program trace.

Applications access their objects in *bursts* (loop nests touch one or two
structures at a time), which is what gives memory objects their distinct
cache and MLP signatures.  The builder draws a sequence of (object, burst
length) chunks, generates each burst's addresses with the vectorized
pattern generators, and threads a global instruction counter through the
stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.trace import patterns
from repro.trace.events import AccessTrace, VirtualLayout

PATTERNS = ("seq", "strided", "rand", "chase", "hotspot")


@dataclass(frozen=True)
class ObjectBehavior:
    """Declarative access behaviour of one memory object (or segment).

    Attributes:
        name: Object name, e.g. ``"arcs"``.
        size_bytes: Object extent (pages are allocated for the whole extent).
        weight: Relative share of the application's accesses.
        pattern: One of ``seq | strided | rand | chase | hotspot``.
        burst_mean: Mean burst (chunk) length in accesses.
        write_frac: Fraction of accesses that are stores.
        stride: Byte stride for the ``strided`` pattern.
        hot_fraction / hot_weight: ``hotspot`` parameters.
        dep_prob: Probability an access serially depends on the previous
            one.  ``chase`` forces 1.0 regardless.
        gap_mean: Mean instructions between this object's accesses within
            a burst; ``None`` uses the builder default.  Streaming loops
            (1–4 inst/access) pack many misses into the ROB window — high
            MLP; traversal code (15–40 inst/hop) cannot.
        segment: ``None`` for heap objects, or a SEG_* sentinel to attach
            the behaviour to the stack/code/global segment.
        site: Allocation-site id for MOCA naming (heap objects only).
    """

    name: str
    size_bytes: int
    weight: float
    pattern: str = "seq"
    burst_mean: float = 32.0
    write_frac: float = 0.2
    stride: int = 64
    hot_fraction: float = 0.1
    hot_weight: float = 0.9
    dep_prob: float = 0.0
    gap_mean: float | None = None
    segment: int | None = None
    site: int = 0

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.weight < 0:
            raise ValueError("weight must be non-negative")
        if self.size_bytes <= 0:
            raise ValueError(f"object {self.name!r} must have positive size")
        if self.burst_mean < 1:
            raise ValueError("burst_mean must be >= 1")
        if self.gap_mean is not None and self.gap_mean < 1:
            raise ValueError("gap_mean must be >= 1 when given")

    @property
    def effective_dep_prob(self) -> float:
        return 1.0 if self.pattern == "chase" else self.dep_prob


class TraceBuilder:
    """Builds an :class:`AccessTrace` from a list of behaviours."""

    def __init__(self, behaviors: list[ObjectBehavior],
                 mem_per_ki: float = 100.0,
                 access_bytes: int = 8):
        if not behaviors:
            raise ValueError("need at least one behaviour")
        if not any(b.weight > 0 for b in behaviors):
            raise ValueError("at least one behaviour needs positive weight")
        if mem_per_ki <= 0:
            raise ValueError("mem_per_ki must be positive")
        if access_bytes <= 0:
            raise ValueError(
                f"access_bytes must be positive, got {access_bytes}")
        self.behaviors = list(behaviors)
        self.mem_per_ki = mem_per_ki
        self.access_bytes = access_bytes

    def build(self, n_accesses: int, rng: np.random.Generator,
              layout: VirtualLayout | None = None) -> AccessTrace:
        """Generate a trace of ``n_accesses`` memory references."""
        layout = layout or VirtualLayout()
        return self._concat(self.iter_blocks(n_accesses, rng, layout=layout),
                            n_accesses, layout)

    def _concat(self, blocks, n_accesses: int,
                layout: VirtualLayout) -> AccessTrace:
        """One :class:`AccessTrace` from ``iter_blocks``-shaped blocks."""
        vaddr_parts: list[np.ndarray] = []
        write_parts: list[np.ndarray] = []
        dep_parts: list[np.ndarray] = []
        obj_parts: list[np.ndarray] = []
        gap_parts: list[np.ndarray] = []
        for vaddr, is_write, dep, obj_id, gaps in blocks:
            vaddr_parts.append(vaddr)
            write_parts.append(is_write)
            dep_parts.append(dep)
            obj_parts.append(obj_id)
            gap_parts.append(gaps)

        default_gap = max(1.0, 1000.0 / self.mem_per_ki)
        gaps = np.concatenate(gap_parts)[:n_accesses]
        inst = np.cumsum(gaps)
        return AccessTrace(
            inst=inst,
            vaddr=np.concatenate(vaddr_parts)[:n_accesses].astype(np.int64),
            is_write=np.concatenate(write_parts)[:n_accesses],
            dep=np.concatenate(dep_parts)[:n_accesses],
            obj_id=np.concatenate(obj_parts)[:n_accesses],
            layout=layout,
            total_instructions=int(inst[-1] + round(default_gap)),
        )

    def iter_blocks(self, n_accesses: int, rng: np.random.Generator,
                    layout: VirtualLayout | None = None):
        """Stream the trace as ``(vaddr, is_write, dep, obj_id, gaps)``
        column blocks totalling exactly ``n_accesses`` rows.

        This is the bounded-RSS entry point ``trace.chunked`` shards
        from; :meth:`build` is a concatenation of it.  The vectorized
        synthesis kernel (:mod:`repro.trace.kernel`) runs every build it
        can replay bit-exactly (``kernel.supported``); the rest — a
        non-PCG64 generator, an invalid behaviour, an object of 4 GiB or
        more — run the reference chunk loop.  Blocks are per-chunk on
        the reference loop and larger batches on the kernel, and the
        concatenated content is identical either way.
        """
        if n_accesses <= 0:
            raise ValueError("n_accesses must be positive")
        layout = layout if layout is not None else VirtualLayout()
        bases, ids = self._place(layout)
        from repro.trace import kernel
        if kernel.supported(self, rng):
            return kernel.iter_kernel_blocks(self, n_accesses, rng, bases, ids)
        return self._iter_reference(n_accesses, rng, bases, ids)

    def _place(self, layout: VirtualLayout) -> tuple[list[int], list[int]]:
        """Each behaviour's ``(vbase, obj_id)``, placing objects in
        ``layout`` (segment behaviours reuse their segment's)."""
        bases: list[int] = []
        ids: list[int] = []
        for b in self.behaviors:
            if b.segment is None:
                placed = layout.place(b.name, b.size_bytes, site=b.site)
                bases.append(placed.vbase)
                ids.append(placed.obj_id)
            else:
                seg = layout.segments[b.segment]
                if b.size_bytes > seg.size_bytes:
                    raise ValueError(
                        f"behaviour {b.name!r} larger than its segment")
                bases.append(seg.vbase)
                ids.append(seg.obj_id)
        return bases, ids

    def _iter_reference(self, n_accesses: int, rng: np.random.Generator,
                        bases: list[int], ids: list[int]):
        """The reference chunk loop, yielding one column block per chunk.

        This is the executable specification the kernel is pinned
        against, and the engine for builds the kernel declines — keep it
        scalar and obvious.
        """
        # Chunk-selection probability is weight/burst so that the *access*
        # share of each behaviour equals its weight (a chunk contributes
        # burst_mean accesses once selected).
        weights = np.asarray([b.weight for b in self.behaviors], dtype=float)
        bursts = np.asarray([b.burst_mean for b in self.behaviors], dtype=float)
        chunk_w = weights / bursts
        probs = chunk_w / chunk_w.sum()
        mean_burst = float(np.dot(probs, bursts))
        est_chunks = max(16, int(n_accesses / mean_burst * 1.6) + 8)

        chunk_obj = rng.choice(len(self.behaviors), size=est_chunks, p=probs)
        # Geometric burst lengths with the behaviour's own mean.
        u = rng.random(est_chunks)

        default_gap = max(1.0, 1000.0 / self.mem_per_ki)
        gap_means = [b.gap_mean if b.gap_mean is not None else default_gap
                     for b in self.behaviors]

        seq_cursor = [0] * len(self.behaviors)
        total = 0
        ci = 0
        while total < n_accesses:
            if ci >= est_chunks:  # re-draw when the estimate ran short
                chunk_obj = rng.choice(len(self.behaviors), size=est_chunks, p=probs)
                u = rng.random(est_chunks)
                ci = 0
            bi = int(chunk_obj[ci])
            b = self.behaviors[bi]
            # Inverse-CDF geometric with mean burst_mean (>= 1).
            p = 1.0 / b.burst_mean
            n = 1 + int(np.log(max(u[ci], 1e-12)) / np.log(1 - p)) if p < 1.0 else 1
            n = min(n, n_accesses - total, 4 * int(b.burst_mean) + 8)
            ci += 1
            if n <= 0:
                continue
            offsets = self._burst(b, bi, n, rng, seq_cursor)
            dp = b.effective_dep_prob
            vaddr = bases[bi] + offsets
            is_write = rng.random(n) < b.write_frac
            if dp >= 1.0:
                dep = np.ones(n, dtype=bool)
            elif dp <= 0.0:
                dep = np.zeros(n, dtype=bool)
            else:
                dep = rng.random(n) < dp
            obj_id = np.full(n, ids[bi], dtype=np.int32)
            # Per-burst instruction gaps with the behaviour's own density.
            gm = gap_means[bi]
            gaps = rng.geometric(1.0 / gm, size=n).astype(np.int64)
            total += n
            yield vaddr.astype(np.int64), is_write, dep, obj_id, gaps

    def _burst(self, b: ObjectBehavior, bi: int, n: int,
               rng: np.random.Generator, seq_cursor: list[int]) -> np.ndarray:
        ab = self.access_bytes
        if b.pattern == "seq":
            offs, seq_cursor[bi] = patterns.sequential_offsets(
                seq_cursor[bi], n, b.size_bytes, ab)
            return offs
        if b.pattern == "strided":
            offs, seq_cursor[bi] = patterns.strided_offsets(
                seq_cursor[bi], n, b.size_bytes, b.stride, ab)
            return offs
        if b.pattern == "rand":
            return patterns.random_offsets(rng, n, b.size_bytes, ab)
        if b.pattern == "chase":
            return patterns.chase_offsets(rng, n, b.size_bytes, ab)
        if b.pattern == "hotspot":
            return patterns.hotspot_offsets(
                rng, n, b.size_bytes, b.hot_fraction, b.hot_weight, ab)
        raise AssertionError(f"unhandled pattern {b.pattern}")
