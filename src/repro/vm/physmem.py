"""Physical frame pools, one per channel group.

The OS "maintains the starting, ending, and the next available page number
of each memory module" (paper Sec. IV-D); a :class:`FramePool` is exactly
that bump allocator, with an optional free list so long-running scenarios
can return frames.  Placement takes frames a run at a time
(:meth:`FramePool.allocate_run`); the scalar :meth:`FramePool.allocate`
serves page-by-page movers such as the migration engine.
"""

from __future__ import annotations

import numpy as np

from repro.trace.events import PAGE_BYTES


class OutOfMemory(RuntimeError):
    """Raised when every module in a fallback chain is exhausted."""


class FramePool:
    """Frames of one channel group, allocated in ascending order."""

    def __init__(self, capacity_bytes: int, group: int, name: str = ""):
        if capacity_bytes < PAGE_BYTES:
            raise ValueError("pool smaller than one page")
        self.group = group
        self.name = name
        self.n_frames = capacity_bytes // PAGE_BYTES
        self._next = 0
        self._free: list[int] = []
        self.n_allocated = 0
        self.is_offline = False
        self.n_overcommitted = 0

    @property
    def frames_left(self) -> int:
        """Frames :meth:`allocate` can still hand out (never negative:
        overcommitted frames sit beyond ``n_frames``)."""
        if self.is_offline:
            return 0
        return len(self._free) + max(0, self.n_frames - self._next)

    @property
    def full(self) -> bool:
        return self.frames_left == 0

    def allocate(self) -> int | None:
        """Return the next free frame number, or ``None`` when full."""
        if self.is_offline:
            return None
        if self._free:
            frame = self._free.pop()
        elif self._next < self.n_frames:
            frame = self._next
            self._next += 1
        else:
            return None
        self.n_allocated += 1
        return frame

    def allocate_run(self, n: int) -> np.ndarray:
        """Take up to ``n`` frames at once, in exactly the order ``n``
        calls of :meth:`allocate` would return them: the free list first
        (most recently freed first), then ascending bump frames.  Returns
        fewer than ``n`` frames (possibly none) when the pool fills."""
        if self.is_offline or n <= 0:
            return np.empty(0, dtype=np.int64)
        free = self._free
        k = min(n, len(free))
        m = min(n - k, max(0, self.n_frames - self._next))
        bump = np.arange(self._next, self._next + m, dtype=np.int64)
        self._next += m
        self.n_allocated += k + m
        if not k:
            return bump
        reused = np.asarray(free[:-k - 1:-1], dtype=np.int64)
        del free[-k:]
        return np.concatenate((reused, bump))

    def allocate_overcommit_run(self, n: int) -> np.ndarray:
        """Hand out ``n`` frames *beyond* capacity (the OS's swap of last
        resort): never fails, but every such frame is tallied in
        ``n_overcommitted`` so degraded runs are measurable."""
        frames = np.arange(self._next, self._next + n, dtype=np.int64)
        self._next += n
        self.n_allocated += n
        self.n_overcommitted += n
        return frames

    def allocate_overcommit(self) -> int:
        """One frame beyond capacity; see :meth:`allocate_overcommit_run`."""
        return int(self.allocate_overcommit_run(1)[0])

    # ---- fault injection -----------------------------------------------------

    def offline(self) -> None:
        """Take the pool offline: no further allocations succeed.

        Already-granted frames stay valid (their data is simply slow to
        reach), matching a module fenced off after correctable-error
        storms rather than one physically unplugged.
        """
        self.is_offline = True

    def shrink(self, fraction: float) -> int:
        """Remove ``fraction`` of the pool's frames; returns frames lost.

        Granted frames are never revoked: the pool shrinks to at most
        its currently-allocated extent.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"shrink fraction {fraction} outside [0, 1]")
        target = int(self.n_frames * (1.0 - fraction))
        # Never shrink below the high-water mark: frame numbers already
        # handed out (even ones since freed) stay addressable.
        new_frames = max(self._next, target)
        lost = max(0, self.n_frames - new_frames)
        self.n_frames = new_frames
        return lost

    def free(self, frame: int) -> None:
        """Return a frame to the pool."""
        if not 0 <= frame < self._next:
            raise ValueError(f"frame {frame} was never allocated")
        self._free.append(frame)
        self.n_allocated -= 1

    @property
    def utilization(self) -> float:
        """Allocated share of the pool's frames (above 1.0 when
        overcommitted; ``inf`` for a pool shrunk to zero frames that
        still holds overcommitted ones)."""
        if not self.n_frames:
            return float("inf") if self.n_allocated else 0.0
        return self.n_allocated / self.n_frames

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FramePool({self.name or self.group}, "
                f"{self.n_allocated}/{self.n_frames} frames)")
