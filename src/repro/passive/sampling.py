"""Trace sampling (paper Section 5.3).

At very high link speeds a monitor cannot keep up with the full header
stream.  The paper evaluates capturing only the first N minutes of
every hour (:class:`FixedPeriodSampler`) and names two alternatives it
leaves as future work -- "collecting a fixed number of packet headers
and then idling, or collecting each packet header with some (non-unity)
probability"; both are implemented here as
:class:`CountBudgetSampler` and :class:`ProbabilisticSampler`, so the
reproduction can run the comparison the paper deferred.

All samplers are deterministic: the probabilistic one keys its
keep-decision on a hash of the packet identity rather than mutable RNG
state, so results are independent of observer ordering.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.net.packet import PacketRecord
from repro.simkernel.clock import minutes


@dataclass(frozen=True)
class FixedPeriodSampler:
    """Keep the first *sample_minutes* of every *period_minutes*.

    The paper samples 2, 5, 10 and 30 minutes of each hour (3 %, 8 %,
    17 % and 50 % of the data).
    """

    sample_minutes: float
    period_minutes: float = 60.0
    anchor: float = 0.0

    def __post_init__(self) -> None:
        if self.sample_minutes <= 0:
            raise ValueError("sample_minutes must be positive")
        if self.sample_minutes > self.period_minutes:
            raise ValueError(
                "sample window cannot exceed the period "
                f"({self.sample_minutes} > {self.period_minutes})"
            )

    @property
    def fraction(self) -> float:
        """Fraction of time the sampler keeps (e.g. 0.5 for 30-of-60)."""
        return self.sample_minutes / self.period_minutes

    def keep(self, t: float) -> bool:
        """True when a packet at time *t* falls inside a sample window."""
        period = minutes(self.period_minutes)
        offset = (t - self.anchor) % period
        return offset < minutes(self.sample_minutes)

    def __call__(self, t: float) -> bool:
        return self.keep(t)

    def keep_mask(self, times):
        """:meth:`keep` over a time column (the same float expression)."""
        offset = (times - self.anchor) % minutes(self.period_minutes)
        return offset < minutes(self.sample_minutes)

    def windows_in(self, start: float, end: float) -> list[tuple[float, float]]:
        """The concrete sample windows intersecting ``[start, end)``."""
        period = minutes(self.period_minutes)
        width = minutes(self.sample_minutes)
        first_index = int((start - self.anchor) // period)
        out: list[tuple[float, float]] = []
        index = first_index
        while True:
            w_start = self.anchor + index * period
            if w_start >= end:
                break
            w_end = w_start + width
            lo, hi = max(w_start, start), min(w_end, end)
            if lo < hi:
                out.append((lo, hi))
            index += 1
        return out


def hourly_samplers(*sample_minutes: float) -> dict[float, FixedPeriodSampler]:
    """Build the paper's family of hourly samplers keyed by minutes."""
    return {m: FixedPeriodSampler(sample_minutes=m) for m in sample_minutes}


@dataclass(frozen=True)
class ProbabilisticSampler:
    """Keep each packet independently with probability *p*.

    One of the two alternative strategies Section 5.3 defers.  The
    keep decision hashes the packet's identifying fields with a salt,
    so it is deterministic, order-independent, and uncorrelated with
    the fixed-period windows.
    """

    probability: float
    salt: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(
                f"probability must be in (0, 1]: {self.probability}"
            )

    @property
    def fraction(self) -> float:
        return self.probability

    def keep_record(self, record: PacketRecord) -> bool:
        digest = hashlib.blake2b(
            f"{self.salt}:{record.time}:{record.src}:{record.dst}:"
            f"{record.sport}:{record.dport}".encode("ascii"),
            digest_size=8,
        ).digest()
        return int.from_bytes(digest, "big") / 2**64 < self.probability


@dataclass
class CountBudgetSampler:
    """Capture a budget of packets per period, then idle.

    The other deferred strategy: "collecting a fixed number of packet
    headers and then idling".  The sampler keeps the first
    ``budget_per_period`` packets (in arrival order) of each
    ``period_minutes`` window.  Unlike the pure time filters this one
    is stateful, so it exposes :meth:`keep_record` rather than a
    time-only predicate.
    """

    budget_per_period: int
    period_minutes: float = 60.0
    anchor: float = 0.0
    _window_index: int = field(default=-1, repr=False)
    _taken: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.budget_per_period < 1:
            raise ValueError("budget_per_period must be >= 1")
        if self.period_minutes <= 0:
            raise ValueError("period_minutes must be positive")

    def keep_record(self, record: PacketRecord) -> bool:
        period = minutes(self.period_minutes)
        index = int((record.time - self.anchor) // period)
        if index != self._window_index:
            self._window_index = index
            self._taken = 0
        if self._taken < self.budget_per_period:
            self._taken += 1
            return True
        return False


class SamplingTable:
    """A passive service table fed through a record-level sampler.

    The fixed-period sampler plugs straight into
    :class:`~repro.passive.monitor.PassiveServiceTable` via its
    time-only ``sampler`` hook; the deferred strategies need to see the
    whole record, so this thin observer wraps a table and filters
    records before delivery.
    """

    def __init__(self, table, sampler) -> None:
        self.table = table
        self.sampler = sampler
        self.kept = 0
        self.dropped = 0

    def observe(self, record: PacketRecord) -> None:
        if self.sampler.keep_record(record):
            self.kept += 1
            self.table.observe(record)
        else:
            self.dropped += 1

    @property
    def observed_fraction(self) -> float:
        total = self.kept + self.dropped
        return self.kept / total if total else 0.0


def effective_observation_seconds(
    sampler: FixedPeriodSampler, start: float, end: float
) -> float:
    """Total observed time under *sampler* within ``[start, end)``."""
    return sum(hi - lo for lo, hi in sampler.windows_in(start, end))
