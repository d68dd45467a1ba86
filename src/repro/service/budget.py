"""Per-epoch migration budgets and the deferred-move priority queue.

Every epoch the service may spend at most ``max_pages`` page moves and
``max_cycles`` of migration overhead (copy bus time + shootdowns).
Moves that do not fit are *deferred*: parked in a priority queue keyed
on urgency (forced fault-reaction moves first, then hotter objects) and
drained at the start of the next epoch's budget, so a burst of
reclassifications spreads its cost over several epochs instead of
stalling the tenant.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from repro.moca.classify import ObjectType

__all__ = ["DeferredMoveQueue", "EpochBudget", "MoveRequest"]


@dataclass(frozen=True)
class MoveRequest:
    """One object's pending relocation to ``target`` placement."""

    obj_id: int
    target: ObjectType
    heat: float = 0.0      #: Urgency (profile heat); higher drains first.
    forced: bool = False   #: Fault reaction — outranks every normal move.
    epoch: int = 0         #: Epoch the request was issued.


class EpochBudget:
    """Page and cycle allowance for a single epoch."""

    def __init__(self, max_pages: int, max_cycles: int):
        self.max_pages = int(max_pages)
        self.max_cycles = int(max_cycles)
        self.pages_used = 0
        self.cycles_used = 0

    def can_move_page(self, page_cycles: int) -> bool:
        return (self.pages_used + 1 <= self.max_pages
                and self.cycles_used + page_cycles <= self.max_cycles)

    def charge_page(self, page_cycles: int) -> None:
        self.charge_pages(page_cycles, 1)

    def pages_fitting(self, page_cycles: int) -> int:
        """How many more pages of ``page_cycles`` each fit: the number
        of :meth:`can_move_page` grants in a row at that cost."""
        pages = self.max_pages - self.pages_used
        cycles = self.max_cycles - self.cycles_used
        if pages <= 0 or cycles < 0:
            return 0
        return min(pages, cycles // page_cycles) if page_cycles > 0 else pages

    def charge_pages(self, page_cycles: int, n: int) -> None:
        self.pages_used += n
        self.cycles_used += int(page_cycles) * n

    @property
    def exhausted(self) -> bool:
        return self.pages_used >= self.max_pages \
            or self.cycles_used >= self.max_cycles


@dataclass
class DeferredMoveQueue:
    """Priority queue of moves waiting for budget.

    Drain order: forced moves before normal ones, hotter before colder,
    earlier requests before later ones (stable FIFO tiebreak so equal
    priorities cannot starve).  At most one pending request per object —
    re-enqueueing replaces the stale target.
    """

    _heap: list[tuple[tuple[int, float, int], int, MoveRequest]] = \
        field(default_factory=list)
    _pending: dict[int, int] = field(default_factory=dict)
    _counter: itertools.count = field(default_factory=itertools.count)

    def push(self, req: MoveRequest) -> None:
        seq = next(self._counter)
        self._pending[req.obj_id] = seq
        key = (0 if req.forced else 1, -req.heat, seq)
        heapq.heappush(self._heap, (key, seq, req))

    def pop(self) -> MoveRequest | None:
        while self._heap:
            _, seq, req = heapq.heappop(self._heap)
            if self._pending.get(req.obj_id) == seq:
                del self._pending[req.obj_id]
                return req
            # Superseded by a later push for the same object.
        return None

    def discard(self, obj_id: int) -> bool:
        """Drop any pending request for ``obj_id`` (lazy deletion)."""
        return self._pending.pop(obj_id, None) is not None

    def pending_target(self, obj_id: int) -> MoveRequest | None:
        seq = self._pending.get(obj_id)
        if seq is None:
            return None
        for _, s, req in self._heap:
            if s == seq:
                return req
        return None

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)
