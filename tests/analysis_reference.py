"""Analysis helpers that only their tests call.

No experiment merges two discovery timelines this way, reads the time
to a completeness fraction, draws a sparkline, or flags unstable
metrics by their standard deviation over the mean: the definitions live here,
beside ``tests/test_core_timeline.py``, ``tests/test_core_report.py``
and ``tests/test_robustness_sweep.py``.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.timeline import DiscoveryTimeline
from repro.experiments.robustness import MetricSpread, SweepResult


def merge(a: DiscoveryTimeline, b: DiscoveryTimeline) -> DiscoveryTimeline:
    """Earliest-of-both timeline (e.g. passive-union-active)."""
    merged = DiscoveryTimeline(first_seen=dict(a.first_seen))
    for item, t in b.first_seen.items():
        merged.record(item, t)
    return merged


def time_to_fraction(
    timeline: DiscoveryTimeline,
    fraction: float,
    total: int | None = None,
) -> float | None:
    """Earliest time by which *fraction* of *total* items were found.

    *total* defaults to the timeline's own size; ``None`` when the
    fraction is never reached.
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1]: {fraction}")
    times = timeline.sorted_times()
    denominator = total if total is not None else len(times)
    if denominator <= 0:
        return None
    index = math.ceil(fraction * denominator) - 1
    if index >= len(times):
        return None
    return times[max(index, 0)]


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """Render a unicode sparkline of *values*."""
    if not values:
        return ""
    blocks = " ▁▂▃▄▅▆▇█"
    lo, hi = min(values), max(values)
    span = hi - lo or 1.0
    if len(values) > width:
        stride = len(values) / width
        values = [values[int(i * stride)] for i in range(width)]
    return "".join(
        blocks[int((v - lo) / span * (len(blocks) - 1))] for v in values
    )


def stdev(spread: MetricSpread) -> float:
    """Sample standard deviation over the spread's finite values."""
    finite = spread.finite
    if len(finite) < 2:
        return 0.0
    mu = sum(finite) / len(finite)
    return math.sqrt(sum((v - mu) ** 2 for v in finite) / (len(finite) - 1))


def cv(spread: MetricSpread) -> float:
    """Coefficient of variation (stdev / |mean|); 0 for zero mean."""
    mu = spread.mean
    if not mu or not math.isfinite(mu):
        return 0.0
    return stdev(spread) / abs(mu)


def unstable_metrics(result: SweepResult, cv_threshold: float = 0.25) -> list[str]:
    """Metrics whose relative spread exceeds the threshold."""
    return sorted(
        name
        for name, spread in result.spreads.items()
        if cv(spread) > cv_threshold
    )
