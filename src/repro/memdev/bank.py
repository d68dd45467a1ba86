"""Per-bank state for the cycle-approximate device model.

A bank tracks which row (if any) is latched in its row buffer, when it can
accept the next activate (tRC window), and when its current access finishes.
The controller (``repro.memctrl``) owns scheduling order; the bank only
answers "when could this access start, and how long would it take?".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memdev.timing import DeviceTiming


@dataclass
class BankState:
    """Mutable state of one DRAM bank.

    Attributes:
        open_row: Row index currently latched, or ``None`` if precharged.
        ready_at: Cycle at which the bank can begin a new column access.
        last_activate: Cycle of the most recent ACT (enforces tRC).
    """

    open_row: int | None = None
    ready_at: int = 0
    last_activate: int = -(1 << 60)

    def access_latency(self, timing: DeviceTiming, row: int) -> int:
        """Array-access latency (cycles) for ``row`` given current state.

        Does not include queueing or data transfer; pure bank-core time:

        * row hit      → tCL
        * closed bank  → tRCD + tCL
        * row conflict → tRP + tRCD + tCL
        """
        if self.open_row == row:
            return timing.row_hit_latency
        if self.open_row is None:
            return timing.row_miss_latency
        return timing.row_conflict_latency

    def is_hit(self, row: int) -> bool:
        """True when the access would be a row-buffer hit."""
        return self.open_row == row

    def service(self, timing: DeviceTiming, row: int, start: int) -> int:
        """Commit an access to ``row`` beginning at cycle ``start``.

        Updates the open row and busy windows and returns the cycle at
        which the requested data is available at the bank's edge (before
        bus transfer).  ``start`` is clamped to ``ready_at``.

        Row hits pipeline: the bank is busy only one column-command slot
        (tCCD), so back-to-back hits stream at burst rate while each
        datum still takes tCL to appear.  Row changes pay precharge (if a
        row is open) + activate; the precharge may not start until tRAS
        after the row's activate, and activates honour the tRC window.
        (In analog time tRC == tRAS + tRP by construction, but the
        integer-cycle roundings of tRAS and tRP can sum to more than the
        rounding of tRC — derated or custom parts hit this — so both
        guards are enforced independently.)

        NOTE: the fused replay kernel (:func:`repro.memctrl.batch
        .replay`) inlines this arithmetic and :meth:`refresh` on its fast
        path; keep them in lockstep (the parity suite in
        ``tests/test_parity.py`` pins the equivalence).
        """
        start = max(start, self.ready_at)
        if self.open_row == row:
            done = start + timing.tCL
            self.ready_at = start + timing.tCCD
            return done
        if self.open_row is not None:
            # Precharge may not begin until tRAS after the last activate.
            pre_start = max(start, self.last_activate + timing.tRAS)
            act = max(pre_start + timing.tRP,
                      self.last_activate + timing.tRC)
        else:
            act = max(start, self.last_activate + timing.tRC)
        self.last_activate = act
        self.open_row = row
        done = act + timing.tRCD + timing.tCL
        self.ready_at = done
        return done

    def refresh(self, timing: DeviceTiming, start: int) -> int:
        """Apply a refresh beginning at ``start``; returns completion cycle.

        Refresh closes the row buffer and blocks the bank for tRFC.
        """
        start = max(start, self.ready_at)
        self.open_row = None
        self.ready_at = start + timing.tRFC
        self.last_activate = self.ready_at
        return self.ready_at
