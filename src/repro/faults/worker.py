"""Seeded worker-process fault plans for deterministic chaos runs.

Where :class:`~repro.faults.plan.FaultPlan` degrades the *data* (capture
loss, outages, lossy probes), :class:`WorkerFaultPlan` degrades the
*machinery*: it tells a fabric shard worker to crash at a specific
record count, or to stall there (stop consuming, so the rows it was
sent go unanswered and the supervisor's owed-answer deadline fires).
Both exercise the same failover path, and the report must stay
byte-identical through either.

Determinism works the same way as the capture plans: every decision is
drawn from :func:`~repro.faults.plan.derive_seed` streams keyed by
``(seed, kind, shard, incarnation)``, so a chaos run replays exactly,
one kind's draws never move another's, and a *restarted* worker (next
incarnation) rolls fresh dice -- with the per-shard event caps left at
their defaults of one, the replacement runs clean and the run
converges instead of crash-looping forever.  Raising the caps past the
fabric's restart budget (:data:`~repro.stream.fabric.MAX_RESTARTS`)
turns the same plan into a restart-budget-exhaustion test.

Trigger points are expressed in *records folded by the shard*, not
global offsets, so a plan is meaningful at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plan import derive_seed


@dataclass(frozen=True)
class WorkerFaultEvents:
    """The concrete fault schedule for one (shard, incarnation)."""

    crash_at: int | None = None
    stall_at: int | None = None

    @property
    def is_null(self) -> bool:
        return self.crash_at is None and self.stall_at is None


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Seeded schedule of process-level faults for fabric shard workers.

    Rates are per-(shard, incarnation) probabilities that the fault
    fires at all; when it does, the trigger record index is uniform in
    ``[1, horizon_records]``.  ``*_per_shard`` cap how many incarnations
    of a shard may draw each fault kind -- the default of one means a
    replacement worker always runs clean, so identity tests terminate.
    """

    seed: int = 0
    crash_rate: float = 0.0
    stall_rate: float = 0.0
    horizon_records: int = 50_000
    crashes_per_shard: int = 1
    stalls_per_shard: int = 1

    @property
    def is_null(self) -> bool:
        return self.crash_rate <= 0.0 and self.stall_rate <= 0.0

    def _draw(
        self, kind: str, rate: float, cap: int, shard: int, incarnation: int
    ) -> int | None:
        if rate <= 0.0 or incarnation >= cap:
            return None
        rng = np.random.default_rng(
            derive_seed(self.seed, f"faults.worker.{kind}.{shard}.{incarnation}")
        )
        if rng.random() >= rate:
            return None
        return int(rng.integers(1, max(2, self.horizon_records + 1)))

    def events_for(self, shard: int, incarnation: int) -> WorkerFaultEvents:
        """The deterministic fault schedule for one worker incarnation."""
        return WorkerFaultEvents(
            crash_at=self._draw(
                "crash", self.crash_rate, self.crashes_per_shard,
                shard, incarnation,
            ),
            stall_at=self._draw(
                "stall", self.stall_rate, self.stalls_per_shard,
                shard, incarnation,
            ),
        )
