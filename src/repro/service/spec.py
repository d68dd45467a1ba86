"""OnlineSpec: the canonical identity of an online-guidance run.

An :class:`OnlineSpec` names every knob of the epoch-driven guidance
loop — epoch length, detector sensitivity, hysteresis depth, cooldown,
the per-epoch migration budget, sample-quality floors, and when a
:class:`~repro.faults.plan.FaultPlan`'s capacity/timing faults fire in
epoch time.  It is frozen and hashable so it can sit directly in a
:class:`~repro.sim.spec.RunSpec`; following the ``faults`` precedent it
enters ``RunSpec.canonical()`` **only when set**, so every pre-existing
(offline) cache key stays byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OnlineSpec"]


@dataclass(frozen=True)
class OnlineSpec:
    """Knobs of the online guidance loop (see ``repro.service``).

    Attributes:
        epoch_misses: LLC-miss-stream records per epoch — the interval at
            which tenants report samples and the service decides.
        ewma_alpha: Smoothing factor of the per-object feature EWMAs
            (1.0 = trust the latest epoch completely).
        sensitivity: Relative EWMA-vs-profile departure above which an
            object's behaviour counts as a phase change: a feature must
            exceed ``(1 + sensitivity)`` times its baseline (or fall
            below it by the same factor, both sides floor-clamped) to
            trip the detector.  Objects without a detected phase change
            keep their offline classification, so sampling noise alone
            can never trigger a move.
        hysteresis_epochs: An object must classify away from its current
            placement for this many *consecutive* epochs before the
            service issues a move.
        cooldown_epochs: Epochs after a move during which the object may
            not move again (ping-pong guard).
        warmup_epochs: Leading epochs that only feed the EWMAs; no moves
            are issued while the estimators prime.
        max_pages_per_epoch: Page-move budget per epoch.
        max_cycles_per_epoch: Migration-overhead budget per epoch
            (page-copy bus time + shootdowns); moves that do not fit
            carry over in the deferred-move queue.
        shootdown_cycles: Fixed per-page-move cost (TLB shootdown +
            kernel bookkeeping), matching
            :class:`~repro.vm.migration.MigrationConfig`.
        min_epoch_records: Sample-quality floor: epochs reporting fewer
            miss records are rejected as *short* and the last good
            placement is held.
        fault_epoch: When the run's :class:`~repro.faults.plan.FaultPlan`
            carries capacity/timing faults, apply them at the start of
            this epoch (0 = at boot, exactly like the offline driver).
    """

    epoch_misses: int = 1_000
    ewma_alpha: float = 0.5
    sensitivity: float = 1.5
    hysteresis_epochs: int = 2
    cooldown_epochs: int = 3
    warmup_epochs: int = 1
    max_pages_per_epoch: int = 4_096
    max_cycles_per_epoch: int = 16_000_000
    shootdown_cycles: int = 1_000
    min_epoch_records: int = 16
    fault_epoch: int = 0

    def __post_init__(self) -> None:
        if self.epoch_misses <= 0:
            raise ValueError(f"epoch_misses must be positive, "
                             f"got {self.epoch_misses}")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha={self.ewma_alpha} outside (0, 1]")
        if self.sensitivity < 0.0:
            raise ValueError(f"sensitivity={self.sensitivity} negative")
        if self.hysteresis_epochs < 1:
            raise ValueError("hysteresis_epochs must be >= 1")
        for name in ("cooldown_epochs", "warmup_epochs", "shootdown_cycles",
                     "min_epoch_records", "fault_epoch"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}={getattr(self, name)} negative")
        for name in ("max_pages_per_epoch", "max_cycles_per_epoch"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}={getattr(self, name)} must be "
                                 f"positive")

    # ---- identity ------------------------------------------------------------

    def canonical(self) -> dict:
        """Stable JSON form folded into ``RunSpec.canonical()``."""
        return {
            "epoch_misses": self.epoch_misses,
            "ewma_alpha": self.ewma_alpha,
            "sensitivity": self.sensitivity,
            "hysteresis_epochs": self.hysteresis_epochs,
            "cooldown_epochs": self.cooldown_epochs,
            "warmup_epochs": self.warmup_epochs,
            "max_pages_per_epoch": self.max_pages_per_epoch,
            "max_cycles_per_epoch": self.max_cycles_per_epoch,
            "shootdown_cycles": self.shootdown_cycles,
            "min_epoch_records": self.min_epoch_records,
            "fault_epoch": self.fault_epoch,
        }

    to_dict = canonical

    @classmethod
    def from_dict(cls, data: dict) -> "OnlineSpec":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__
                      if k in data})

    def describe(self) -> str:
        """Short label for log lines and spec descriptions."""
        parts = [f"epoch={self.epoch_misses}",
                 f"k={self.hysteresis_epochs}",
                 f"cool={self.cooldown_epochs}"]
        if self.fault_epoch:
            parts.append(f"fault@e{self.fault_epoch}")
        return "online[" + ",".join(parts) + "]"
