"""Watermarks: windowed completeness read off a live stream.

A *watermark* is the engine's statement that every record with
``time <= t`` has been folded into shard state.  The border stream is
time-ordered and each shard answers a mark only after folding every
part routed to it before the mark was requested, so the merged passive
state at a watermark is exactly the state a batch replay truncated at
``t`` would have produced -- the paper's "what did we know at hour H"
questions (the Figure 2 / Table 2 curves) are answered mid-stream
without replaying from zero.

Active-scan results are materialised at build time (as the paper's
Nmap logs were), so the active side of a windowed summary is a pure
function of time: :class:`ActiveTimeline` walks the sorted first-open
events (:func:`repro.active.results.first_open_events`, computed once
per dataset as ``BuiltDataset.active_events``) with a cursor that
advances as watermarks move forward, O(new events) per emission.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.active.results import ScanReport, UdpScanReport, first_open_events
from repro.core.completeness import CompletenessSummary, summarize_overlap


class ActiveTimeline:
    """Incremental view of active discovery up to a moving watermark.

    ``addresses_by(t)`` returns the set of addresses actively
    discovered by time *t*.  Watermarks are monotone, so the timeline
    keeps a cursor into its sorted event list and only folds in newly
    passed events.  The cursor is per timeline; the events can be shared
    (:meth:`over`).
    """

    def __init__(
        self,
        scan_reports: list[ScanReport],
        udp_report: UdpScanReport | None = None,
    ) -> None:
        self._start(first_open_events(scan_reports, udp_report))

    @classmethod
    def over(cls, events: Sequence[tuple[float, int]]) -> "ActiveTimeline":
        """A fresh cursor over already sorted ``(time, address)`` events
        (read, never copied or changed)."""
        timeline = cls.__new__(cls)
        timeline._start(events)
        return timeline

    def _start(self, events: Sequence[tuple[float, int]]) -> None:
        self._events = events
        self._cursor = 0
        self._known: set[int] = set()

    def addresses_by(self, t: float) -> set[int]:
        """Addresses with an active-scan open discovered at or before *t*.

        The timeline's own set, grown in place by later calls.
        """
        events = self._events
        cursor = self._cursor
        known = self._known
        while cursor < len(events) and events[cursor][0] <= t:
            known.add(events[cursor][1])
            cursor += 1
        self._cursor = cursor
        return known


@dataclass(frozen=True)
class Watermark:
    """One emitted completeness reading.

    Attributes
    ----------
    time:
        Stream time the mark covers (every record at or before it is in).
    records:
        Records delivered to the shards so far (post-fault-filter).
    summary:
        Passive/active overlap at this instant, the same structure the
        final report renders.
    """

    time: float
    records: int
    summary: CompletenessSummary

    def render(self) -> str:
        """One-line progress form, stable for logs and smoke greps."""
        s = self.summary
        return (
            f"watermark t={self.time / 3600.0:.1f}h records={self.records:,} "
            f"union={s.union} both={s.both} "
            f"active_only={s.active_only} passive_only={s.passive_only}"
        )


def emit_schedule(duration: float, every_seconds: float) -> list[float]:
    """The watermark times for a stream of *duration* seconds.

    Marks fall every *every_seconds* with the stream end always
    included, so the last watermark coincides with the final report.
    """
    if every_seconds <= 0:
        raise ValueError("emission interval must be positive")
    marks: list[float] = []
    t = every_seconds
    while t < duration:
        marks.append(t)
        t += every_seconds
    marks.append(duration)
    return marks


def windowed_summary(
    passive_addresses: set[int],
    active: ActiveTimeline,
    t: float,
) -> CompletenessSummary:
    """Overlap summary at watermark time *t* (passive state is live).

    The active set is read, not copied: the summary holds only counts,
    taken before the timeline moves again.
    """
    return summarize_overlap(passive_addresses, active.addresses_by(t))
