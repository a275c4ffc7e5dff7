"""Simulated time.

Simulation time is a plain ``float`` number of seconds since the start
of a dataset.  The :class:`Calendar` maps simulated seconds onto a fixed
wall-clock calendar (the paper's datasets start on known 2006 dates) so
experiments can report the same "month-day" axis the paper's figures
use.  All calendar arithmetic is purely deterministic -- no call ever
consults the real clock.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

#: Number of seconds in one minute/hour/day, as floats.
SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0


def seconds(n: float) -> float:
    """Return *n* seconds (identity; exists for symmetry and readability)."""
    return float(n)


def minutes(n: float) -> float:
    """Return *n* minutes expressed in seconds."""
    return float(n) * SECONDS_PER_MINUTE


def hours(n: float) -> float:
    """Return *n* hours expressed in seconds."""
    return float(n) * SECONDS_PER_HOUR


def days(n: float) -> float:
    """Return *n* days expressed in seconds."""
    return float(n) * SECONDS_PER_DAY


@dataclass(frozen=True)
class Calendar:
    """A fixed mapping between simulated seconds and wall-clock time.

    Parameters
    ----------
    start:
        The wall-clock datetime corresponding to simulation time zero.
        Defaults to the start of the paper's main dataset
        (DTCP1-18d, 2006-09-19 at 10:00 local time).
    """

    start: _dt.datetime = field(
        default_factory=lambda: _dt.datetime(2006, 9, 19, 10, 0, 0)
    )

    def to_datetime(self, t: float) -> _dt.datetime:
        """Return the wall-clock datetime for simulation time *t* seconds."""
        return self.start + _dt.timedelta(seconds=t)

    def to_sim(self, when: _dt.datetime) -> float:
        """Return the simulation time (seconds) for wall-clock *when*."""
        return (when - self.start).total_seconds()

    def hour_of_day(self, t: float) -> float:
        """Return the fractional hour-of-day (0.0 <= h < 24.0) at time *t*."""
        moment = self.to_datetime(t)
        return (
            moment.hour
            + moment.minute / 60.0
            + moment.second / 3600.0
        )

    def day_of_week(self, t: float) -> int:
        """Return the weekday at *t* (Monday == 0 ... Sunday == 6)."""
        return self.to_datetime(t).weekday()

    def is_weekend(self, t: float) -> bool:
        """Return True when *t* falls on a Saturday or Sunday."""
        return self.day_of_week(t) >= 5

    def month_day_label(self, t: float) -> str:
        """Return the paper-style ``MM-DD`` axis label for time *t*."""
        moment = self.to_datetime(t)
        return f"{moment.month:02d}-{moment.day:02d}"
