"""Discovery timelines.

A :class:`DiscoveryTimeline` maps discovered items (addresses or
endpoints) to the time each was *first* found by some method.  All of
the paper's figures are cumulative views of such timelines.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping

Item = Hashable


@dataclass
class DiscoveryTimeline:
    """First-seen times for a set of discovered items."""

    first_seen: dict[Item, float] = field(default_factory=dict)
    #: Lazy port -> addresses index over tuple items; rebuilt after any
    #: :meth:`record` (it is the only mutator).
    _port_index: dict[int, set[int]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_mapping(cls, mapping: Mapping[Item, float]) -> "DiscoveryTimeline":
        return cls(first_seen=dict(mapping))

    @classmethod
    def from_events(cls, events: Iterable[tuple[float, Item]]) -> "DiscoveryTimeline":
        """Build from (time, item) events, keeping the earliest per item."""
        timeline = cls()
        for t, item in events:
            timeline.record(item, t)
        return timeline

    def record(self, item: Item, t: float) -> None:
        """Note that *item* was observed at time *t* (keeps the minimum)."""
        previous = self.first_seen.get(item)
        if previous is None or t < previous:
            self.first_seen[item] = t
            self._port_index = None

    def restrict(self, items: Iterable[Item]) -> "DiscoveryTimeline":
        """Timeline limited to the given item set."""
        keep = set(items)
        return DiscoveryTimeline(
            first_seen={i: t for i, t in self.first_seen.items() if i in keep}
        )

    def before(self, cutoff: float) -> "DiscoveryTimeline":
        """Timeline of items discovered strictly before *cutoff*."""
        return DiscoveryTimeline(
            first_seen={i: t for i, t in self.first_seen.items() if t < cutoff}
        )

    def items(self) -> set[Item]:
        return set(self.first_seen)

    def __len__(self) -> int:
        return len(self.first_seen)

    def __contains__(self, item: Item) -> bool:
        return item in self.first_seen

    def sorted_times(self) -> list[float]:
        return sorted(self.first_seen.values())

    def count_before(self, t: float) -> int:
        """Number of items discovered at or before time *t*."""
        times = self.sorted_times()
        return bisect.bisect_right(times, t)

    def addresses_for_port(self, port: int) -> set[int]:
        """Addresses whose ``(address, port[, proto])`` item was found.

        The per-port experiments (Tables 5 and 6) ask this once per
        watched port; the timeline is indexed by port on the first call
        instead of re-scanning every item per query.
        """
        index = self._port_index
        if index is None:
            index = {}
            for item in self.first_seen:
                if isinstance(item, tuple) and len(item) >= 2:
                    index.setdefault(item[1], set()).add(item[0])
            self._port_index = index
        return set(index.get(port, ()))

    def addresses(self) -> "DiscoveryTimeline":
        """Collapse endpoint items ``(address, ...)`` to address level.

        Items that are tuples are keyed by their first element; scalar
        items pass through unchanged.
        """
        collapsed = DiscoveryTimeline()
        for item, t in self.first_seen.items():
            key = item[0] if isinstance(item, tuple) else item
            collapsed.record(key, t)
        return collapsed


def cumulative_curve(
    timeline: DiscoveryTimeline,
    start: float,
    end: float,
    step: float,
) -> list[tuple[float, int]]:
    """Sampled cumulative discovery counts over ``[start, end]``.

    Returns (time, count) points every *step* seconds, inclusive of the
    endpoint -- the series behind Figures 1-10 and 12.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    times = timeline.sorted_times()
    points: list[tuple[float, int]] = []
    t = start
    while t < end:
        points.append((t, bisect.bisect_right(times, t)))
        t += step
    points.append((end, bisect.bisect_right(times, end)))
    return points


def discovery_rate(
    timeline: DiscoveryTimeline, window_start: float, window_end: float
) -> float:
    """Mean discoveries per hour within a window (the paper quotes
    "one per hour in the last five days" style rates)."""
    if window_end <= window_start:
        raise ValueError("window must have positive length")
    count = sum(
        1 for t in timeline.first_seen.values() if window_start <= t < window_end
    )
    return count / ((window_end - window_start) / 3600.0)
