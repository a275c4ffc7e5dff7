"""Simulation-kernel helpers that only their tests call.

Nothing in ``repro`` draws Poisson inter-arrivals one at a time, draws
a Pareto rate, or clips liveness windows this way any more; the
definitions live here, beside ``tests/test_simkernel_rng.py``,
``tests/test_simkernel_schedule.py`` and ``tests/test_edge_cases.py``.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence


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
