"""Periodic and diurnal schedules.

Two recurring needs in the reproduction:

* the active prober runs "every 12 hours, at 11:00 and 23:00"
  (:class:`PeriodicSchedule` built via :func:`times_of_day`);
* campus activity (client arrivals, transient-host logins) follows a
  day/night cycle with a weekday/weekend modulation
  (:class:`DiurnalProfile`), which Section 5.1 of the paper shows
  matters for scan completeness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from repro.simkernel.clock import Calendar, SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.telemetry.metrics import registry as _telemetry_registry


@dataclass(frozen=True)
class PeriodicSchedule:
    """Fixed times, repeated daily.

    ``anchors`` are offsets in seconds from local midnight; the schedule
    yields every anchor of every day intersecting ``[start, end)``.
    """

    calendar: Calendar
    anchors: tuple[float, ...]

    def __post_init__(self) -> None:
        for anchor in self.anchors:
            if not 0.0 <= anchor < SECONDS_PER_DAY:
                raise ValueError(
                    f"anchor must be within one day (0..86400), got {anchor}"
                )
        if tuple(sorted(self.anchors)) != self.anchors:
            raise ValueError("anchors must be sorted ascending")

    def occurrences(self, start: float, end: float) -> Iterator[float]:
        """Yield all scheduled times t with ``start <= t < end``."""
        if not self.anchors or end <= start:
            return
        reg = _telemetry_registry()
        if not reg.enabled:
            yield from self._occurrences(start, end)
            return
        count = 0
        try:
            for t in self._occurrences(start, end):
                count += 1
                yield t
        finally:
            reg.counter(
                "repro_simkernel_schedule_occurrences_total",
                "Periodic-schedule firings yielded (e.g. active scan starts).",
            ).inc(count)

    def _occurrences(self, start: float, end: float) -> Iterator[float]:
        start_moment = self.calendar.to_datetime(start)
        midnight = start_moment.replace(hour=0, minute=0, second=0, microsecond=0)
        day_base = self.calendar.to_sim(midnight)
        while day_base < end:
            for anchor in self.anchors:
                t = day_base + anchor
                if start <= t < end:
                    yield t
            day_base += SECONDS_PER_DAY


def times_of_day(calendar: Calendar, *hours_of_day: float) -> PeriodicSchedule:
    """Build a :class:`PeriodicSchedule` firing daily at the given hours.

    >>> sched = times_of_day(Calendar(), 11, 23)   # the paper's scan times
    """
    anchors = tuple(sorted(h * SECONDS_PER_HOUR for h in hours_of_day))
    return PeriodicSchedule(calendar=calendar, anchors=anchors)


@dataclass(frozen=True)
class DiurnalProfile:
    """A multiplicative day/night activity modulation.

    The factor at time *t* is::

        base + amplitude * bump(hour_of_day)        (weekdays)
        weekend_scale * (the same)                  (weekends)

    where ``bump`` is a raised cosine peaking at ``peak_hour``.  The
    factor is normalised so that its *daily mean on weekdays* is 1.0 --
    multiplying a rate by the profile leaves the average weekday rate
    unchanged, which keeps calibration independent of the profile shape.
    """

    calendar: Calendar = field(default_factory=Calendar)
    peak_hour: float = 15.0
    base: float = 0.35
    amplitude: float = 1.0
    weekend_scale: float = 0.6

    def _raw_factor(self, hour: float) -> float:
        phase = (hour - self.peak_hour) / 24.0 * 2.0 * math.pi
        bump = 0.5 * (1.0 + math.cos(phase))
        return self.base + self.amplitude * bump

    def _weekday_mean(self) -> float:
        # Mean of base + amplitude * bump over a full day: the raised
        # cosine integrates to 1/2.
        return self.base + self.amplitude * 0.5

    def factor(self, t: float) -> float:
        """Return the activity multiplier at simulation time *t*.

        ``Calendar.hour_of_day`` and ``Calendar.is_weekend`` of one
        moment, taken once: the thinning walk asks per candidate
        arrival, and the conversion is most of the question.
        """
        moment = self.calendar.to_datetime(t)
        hour = moment.hour + moment.minute / 60.0 + moment.second / 3600.0
        value = self._raw_factor(hour) / self._weekday_mean()
        if moment.weekday() >= 5:
            value *= self.weekend_scale
        return value

    def peak_factor(self) -> float:
        """Return the largest weekday factor (used to bound thinning)."""
        return self._raw_factor(self.peak_hour) / self._weekday_mean()


def thinned_poisson_times(
    rng,
    base_rate: float,
    start: float,
    end: float,
    profile: DiurnalProfile | None = None,
) -> Iterator[float]:
    """Yield arrival times of an inhomogeneous Poisson process.

    Uses Lewis-Shedler thinning against ``base_rate * profile``.  With
    ``profile=None`` this degenerates to a plain homogeneous process.
    """
    if base_rate <= 0.0 or end <= start:
        return
    if profile is None:
        t = start
        while True:
            t += rng.expovariate(base_rate)
            if t >= end:
                return
            yield t
        return
    ceiling = base_rate * max(profile.peak_factor(), 1e-9)
    t = start
    while True:
        t += rng.expovariate(ceiling)
        if t >= end:
            return
        if rng.random() * ceiling <= base_rate * profile.factor(t):
            yield t
