"""External-scan detection (paper Section 4.3).

The paper removes the effect of external scans by identifying "any host
which attempts to open TCP connections to 100 or more unique IP
addresses on our network within 12 hours and receives TCP RST responses
from at least 100 of these contacted hosts" -- 65 sources matched over
18 days.

:class:`ExternalScanDetector` implements exactly that rule.  Time is
bucketed into windows of :data:`WINDOW_SECONDS` anchored at the dataset
start; a source is flagged if any single bucket satisfies both
thresholds.  Bucketing (rather than a true sliding window) is
order-insensitive, so no batch cut can change it, and conservative in
the same way for every candidate source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.net.packet import PROTO_TCP
from repro.passive.monitor import _campus_mask
from repro.simkernel.clock import hours


#: The paper's thresholds: a source SYNs at least this many distinct
#: campus addresses ...
MIN_TARGETS = 100
#: ... and at least this many of them answer with RST ...
MIN_RSTS = 100
#: ... inside one bucket of this many seconds.
WINDOW_SECONDS = hours(12)


@dataclass
class ExternalScanDetector:
    """Flags external sources that systematically sweep the campus.

    Parameters
    ----------
    is_campus:
        Direction predicate; only outside->campus SYNs and campus->
        outside RSTs are considered.
    """

    is_campus: Callable[[int], bool]

    #: (source, window_index) -> campus targets SYN'd.  Stored as a bare
    #: int while a source has contacted a single target (the
    #: overwhelmingly common case for legitimate clients) and promoted
    #: to a set on the second distinct target; long traces would
    #: otherwise spend hundreds of MB on one-element sets.
    _targets: dict[tuple[int, int], int | set[int]] = field(default_factory=dict)
    #: (source, window_index) -> campus hosts that answered with RST.
    _rst_sources: dict[tuple[int, int], int | set[int]] = field(default_factory=dict)

    @staticmethod
    def _note(table: dict, key: tuple[int, int], member: int) -> None:
        current = table.get(key)
        if current is None:
            table[key] = member
        elif isinstance(current, int):
            if current != member:
                table[key] = {current, member}
        else:
            current.add(member)

    @staticmethod
    def _size(entry: int | set[int] | None) -> int:
        if entry is None:
            return 0
        return 1 if isinstance(entry, int) else len(entry)

    def observe_columns(self, cols) -> None:
        """SYN/RST selection masks and dedup before the bucket updates.

        Buckets hold *distinct* members, so only the batch's unique
        (source, window, member) triples need Python-level ``_note``
        calls; duplicates within a batch (retransmits, repeated
        conversations) are collapsed by one sort.
        """
        tcp = cols.proto == PROTO_TCP
        if not tcp.any():
            return
        flags = cols.flags
        src = cols.src
        dst = cols.dst
        src_campus = _campus_mask(self.is_campus, src)
        dst_campus = _campus_mask(self.is_campus, dst)
        window = (cols.time // WINDOW_SECONDS).astype(np.int64)
        syn = tcp & ((flags & 0x02) != 0) & ((flags & 0x10) == 0)
        syn &= ~src_campus & dst_campus
        self._note_unique(
            self._targets, src[syn], window[syn], dst[syn]
        )
        rst = tcp & ~(((flags & 0x02) != 0) & ((flags & 0x10) == 0))
        rst &= (flags & 0x04) != 0
        rst &= src_campus & ~dst_campus
        self._note_unique(
            self._rst_sources, dst[rst], window[rst], src[rst]
        )

    def _note_unique(self, table: dict, keys, windows, members) -> None:
        """Bulk :meth:`_note` over parallel key/window/member arrays."""
        if not keys.size:
            return
        order = np.lexsort((members, windows, keys))
        sorted_keys = keys[order]
        sorted_windows = windows[order]
        sorted_members = members[order]
        fresh = np.r_[
            True,
            (sorted_keys[1:] != sorted_keys[:-1])
            | (sorted_windows[1:] != sorted_windows[:-1])
            | (sorted_members[1:] != sorted_members[:-1]),
        ]
        note = self._note
        for key, window, member in zip(
            sorted_keys[fresh].tolist(),
            sorted_windows[fresh].tolist(),
            sorted_members[fresh].tolist(),
        ):
            note(table, (key, window), member)

    def scanners(self) -> set[int]:
        """External sources satisfying both thresholds in some window."""
        return self.scanners_with(MIN_TARGETS, MIN_RSTS)

    def scanners_with(self, min_targets: int, min_rsts: int) -> set[int]:
        """Re-evaluate detection under different thresholds.

        The observation pass only buckets evidence; thresholds apply at
        query time, so sensitivity studies need no extra trace pass.
        (The bucketing window is fixed at observe time.)
        """
        flagged: set[int] = set()
        for (source, window), targets in self._targets.items():
            if self._size(targets) < min_targets:
                continue
            responders = self._rst_sources.get((source, window))
            if self._size(responders) >= min_rsts:
                flagged.add(source)
        return flagged

    def target_count(self, source: int) -> int:
        """Distinct campus addresses *source* SYN'd (across all windows)."""
        seen: set[int] = set()
        for (candidate, _), targets in self._targets.items():
            if candidate == source:
                if isinstance(targets, int):
                    seen.add(targets)
                else:
                    seen |= targets
        return len(seen)
