"""Simulation-kernel helpers that only their tests call.

Nothing in ``repro`` draws Poisson inter-arrivals one at a time, draws
a Pareto rate, clips liveness windows this way, forks a stream family,
or labels and rounds calendar times like this any more; the definitions
live here, beside ``tests/test_simkernel_rng.py``,
``tests/test_simkernel_schedule.py``, ``tests/test_simkernel_clock.py``,
``tests/test_campus_churn.py`` and ``tests/test_edge_cases.py``.
"""

from __future__ import annotations

import datetime
import random
from typing import Iterator, Sequence

from repro.simkernel.clock import Calendar
from repro.simkernel.rng import RngStreams, derive_seed


def exponential_interarrivals(
    rng: random.Random, rate: float, start: float, end: float
) -> Iterator[float]:
    """Yield Poisson-process event times in ``[start, end)`` at *rate*.

    *rate* is events per second.  A non-positive rate yields nothing.
    """
    if rate <= 0.0:
        return
    t = start
    while True:
        t += rng.expovariate(rate)
        if t >= end:
            return
        yield t


def pareto_rate(rng: random.Random, scale: float, alpha: float = 1.2) -> float:
    """Draw a heavy-tailed rate: ``scale`` times a Pareto(alpha) variate.

    The paper hypothesises heavy-tailed server request rates (Section
    4.2.1).
    """
    u = rng.random()
    # Inverse-CDF of Pareto with x_m = 1: (1 - u)^(-1/alpha)
    return scale * (1.0 - u) ** (-1.0 / alpha)


def clip_windows(
    windows: Sequence[tuple[float, float]], start: float, end: float
) -> list[tuple[float, float]]:
    """Intersect half-open ``(begin, finish)`` windows with ``[start, end)``.

    Windows must be non-overlapping and sorted; the result preserves
    both properties.
    """
    clipped: list[tuple[float, float]] = []
    for begin, finish in windows:
        if finish <= begin:
            raise ValueError(f"window must have positive length: ({begin}, {finish})")
        lo = max(begin, start)
        hi = min(finish, end)
        if lo < hi:
            clipped.append((lo, hi))
    return clipped


def fork(streams: RngStreams, name: str) -> RngStreams:
    """A child stream family of *streams*, namespaced under *name*."""
    return RngStreams(derive_seed(streams.master_seed, f"fork:{name}"))


def clock_label(calendar: Calendar, t: float) -> str:
    """Return an ``HH:MM`` label for time *t* (Figure 1 style)."""
    moment = calendar.to_datetime(t)
    return f"{moment.hour:02d}:{moment.minute:02d}"


def next_time_of_day(
    calendar: Calendar, t: float, hour: int, minute: int = 0
) -> float:
    """Return the first simulation time >= *t* at ``hour:minute``."""
    moment = calendar.to_datetime(t)
    candidate = moment.replace(hour=hour, minute=minute, second=0, microsecond=0)
    if candidate < moment:
        candidate += datetime.timedelta(days=1)
    return calendar.to_sim(candidate)
