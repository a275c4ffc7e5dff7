"""Trace sampling (paper Section 5.3).

At very high link speeds a monitor cannot keep up with the full header
stream.  The paper evaluates capturing only the first N minutes of
every hour (:class:`FixedPeriodSampler`) and names two alternatives it
leaves as future work -- "collecting a fixed number of packet headers
and then idling, or collecting each packet header with some (non-unity)
probability"; both are implemented here as
:class:`CountBudgetSampler` and :class:`ProbabilisticSampler`, so the
reproduction can run the comparison the paper deferred.

Periods are the paper's hour, counted from t = 0.  All samplers are
deterministic: the probabilistic one keys its keep-decision on a hash
of the packet identity rather than mutable RNG state, so results are
independent of observer ordering.  Each offers a ``keep_mask`` over a
column batch, which :class:`SamplingTable` -- the one sampled observer
-- applies before its table sees the batch; the count budget's is the
one order-dependent mask, and carries its window across batches.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.simkernel.clock import hours, minutes

#: The sampling period, in seconds.
PERIOD_SECONDS = hours(1)


@dataclass(frozen=True)
class FixedPeriodSampler:
    """Keep the first *sample_minutes* of every hour.

    The paper samples 2, 5, 10 and 30 minutes of each hour (3 %, 8 %,
    17 % and 50 % of the data).
    """

    sample_minutes: float

    def __post_init__(self) -> None:
        if self.sample_minutes <= 0:
            raise ValueError("sample_minutes must be positive")
        if minutes(self.sample_minutes) > PERIOD_SECONDS:
            raise ValueError(
                "sample window cannot exceed the hour "
                f"({self.sample_minutes} > 60 minutes)"
            )

    def keep_mask(self, cols) -> np.ndarray:
        """Keep decisions for a column batch: whether each row's time
        falls inside a sample window."""
        return cols.time % PERIOD_SECONDS < minutes(self.sample_minutes)


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

    def keep_mask(self, cols) -> np.ndarray:
        """Keep decisions for a column batch: one salted blake2b hash of
        each row's (time, src, dst, sport, dport) text."""
        blake2b = hashlib.blake2b
        digests = b"".join(
            blake2b(
                f"{self.salt}:{t}:{src}:{dst}:{sport}:{dport}".encode("ascii"),
                digest_size=8,
            ).digest()
            for t, src, dst, sport, dport in zip(
                cols.time.tolist(), cols.src.tolist(), cols.dst.tolist(),
                cols.sport.tolist(), cols.dport.tolist(),
            )
        )
        values = np.frombuffer(digests, dtype=">u8")
        return values / 2.0**64 < self.probability


@dataclass
class CountBudgetSampler:
    """Capture a budget of packets per period, then idle.

    The other deferred strategy: "collecting a fixed number of packet
    headers and then idling".  The sampler keeps the first
    ``budget_per_period`` packets (in arrival order) of each hour.
    Unlike the pure time filters this one is stateful: the window it is
    in and what it took there carry from one batch to the next.
    """

    budget_per_period: int
    _window_index: int = field(default=-1, repr=False)
    _taken: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.budget_per_period < 1:
            raise ValueError("budget_per_period must be >= 1")

    def keep_mask(self, cols) -> np.ndarray:
        """Keep decisions for a column batch, in arrival order.

        Rows are ranked within runs of equal window index; the first
        run continues the window the previous batch ended in.
        """
        count = len(cols)
        if not count:
            return np.zeros(0, dtype=bool)
        index = (cols.time // PERIOD_SECONDS).astype(np.int64)
        starts = np.r_[True, index[1:] != index[:-1]]
        rank = np.arange(count)
        rank -= np.maximum.accumulate(np.where(starts, rank, 0))
        if index[0] == self._window_index:
            rank[: np.argmax(np.r_[starts[1:], True]) + 1] += self._taken
        keep = rank < self.budget_per_period
        self._window_index = int(index[-1])
        self._taken = min(int(rank[-1]) + 1, self.budget_per_period)
        return keep


class SamplingTable:
    """A passive service table fed through a sampler.

    The one sampled observer: it filters each batch through the
    sampler's ``keep_mask`` before the wrapped table sees it, so the
    table itself only decides evidence.
    """

    def __init__(self, table, sampler) -> None:
        if not hasattr(sampler, "keep_mask"):
            raise TypeError(
                "sampler must offer keep_mask(cols), "
                f"not {type(sampler).__name__}"
            )
        self.table = table
        self.sampler = sampler
        self.kept = 0
        self.dropped = 0

    def observe_columns(self, cols) -> None:
        keep = self.sampler.keep_mask(cols)
        kept = int(np.count_nonzero(keep))
        self.kept += kept
        self.dropped += len(cols) - kept
        if kept:
            self.table.observe_columns(
                cols if kept == len(cols) else cols.compress(keep)
            )

    @property
    def observed_fraction(self) -> float:
        total = self.kept + self.dropped
        return self.kept / total if total else 0.0
