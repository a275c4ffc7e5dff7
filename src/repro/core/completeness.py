"""Completeness analysis (paper Sections 4.1, 4.2.4).

Ground truth is the union of what passive and active found; each
method's completeness is measured against it.  Table 2 is a family of
:class:`CompletenessSummary` values at growing observation durations;
Figure 1 is :func:`weighted_discovery_curve` under three weightings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from repro.core.timeline import DiscoveryTimeline

Item = Hashable


@dataclass(frozen=True)
class CompletenessSummary:
    """Overlap of passive and active discovery against their union."""

    union: int
    both: int
    active_only: int
    passive_only: int

    @property
    def active_total(self) -> int:
        return self.both + self.active_only

    @property
    def passive_total(self) -> int:
        return self.both + self.passive_only

    def _pct(self, value: int) -> float:
        return 100.0 * value / self.union if self.union else 0.0

    @property
    def both_pct(self) -> float:
        return self._pct(self.both)

    @property
    def active_only_pct(self) -> float:
        return self._pct(self.active_only)

    @property
    def passive_only_pct(self) -> float:
        return self._pct(self.passive_only)

    @property
    def active_pct(self) -> float:
        return self._pct(self.active_total)

    @property
    def passive_pct(self) -> float:
        return self._pct(self.passive_total)

    def as_rows(self) -> list[tuple[str, int, float]]:
        """(label, count, percent) rows in Table 2's order."""
        return [
            ("Total servers found (union)", self.union, 100.0),
            ("Passive AND Active", self.both, self.both_pct),
            ("Active only", self.active_only, self.active_only_pct),
            ("Passive only", self.passive_only, self.passive_only_pct),
            ("Active", self.active_total, self.active_pct),
            ("Passive", self.passive_total, self.passive_pct),
        ]


def summarize_overlap(
    passive_items: set[Item], active_items: set[Item]
) -> CompletenessSummary:
    """Build a :class:`CompletenessSummary` from two discovery sets.

    One intersection; the other three counts follow from the sizes.
    """
    both = len(passive_items & active_items)
    return CompletenessSummary(
        union=len(passive_items) + len(active_items) - both,
        both=both,
        active_only=len(active_items) - both,
        passive_only=len(passive_items) - both,
    )


def weighted_discovery_curve(
    timeline: DiscoveryTimeline,
    weights: Mapping[Item, float],
    start: float,
    end: float,
    step: float,
    universe: set[Item] | None = None,
) -> list[tuple[float, float]]:
    """Cumulative *weighted* discovery fraction over time (Figure 1).

    Each item carries ``weights[item]`` (its flow or client count over
    the whole study; missing items weigh zero -- unweighted curves just
    pass a weight of 1 for everything).  The denominator is the total
    weight of *universe* (default: the timeline's items), so the curve
    expresses "fraction of all eventually-relevant weight discovered by
    time t".
    """
    if step <= 0:
        raise ValueError("step must be positive")
    items = universe if universe is not None else timeline.items()
    total = sum(weights.get(item, 0.0) for item in items)
    events = sorted(
        (t, weights.get(item, 0.0))
        for item, t in timeline.first_seen.items()
        if item in items
    )
    points: list[tuple[float, float]] = []
    cumulative = 0.0
    index = 0
    t = start
    while True:
        while index < len(events) and events[index][0] <= t:
            cumulative += events[index][1]
            index += 1
        points.append((t, 100.0 * cumulative / total if total > 0 else 0.0))
        if t >= end:
            break
        t = min(t + step, end)
    return points


def curve_time_to_percent(
    curve: list[tuple[float, float]], percent: float
) -> float | None:
    """First sampled time at which the curve reaches *percent*."""
    for t, value in curve:
        if value >= percent:
            return t
    return None


def unit_weights(items: set[Item]) -> dict[Item, float]:
    """Weight 1.0 for every item (the unweighted curves)."""
    return {item: 1.0 for item in items}
