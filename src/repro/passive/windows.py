"""Window-scoped passive activity tracking.

Two analyses need to know not just *when a server was first seen* but
whether passive evidence existed inside specific time windows:

* Table 4's "seen passively later" bit (any evidence after the first
  12 hours, even for servers first seen earlier);
* firewall confirmation method 2 (evidence *during* a scan whose probes
  the server ignored).

:class:`WindowActivityObserver` records, per campus address, which of a
fixed set of windows contained SYN-ACK (or watched-UDP) evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.passive.monitor import _campus_mask, _port_lut


@dataclass
class WindowActivityObserver:
    """Marks (address, window) pairs with passive service evidence.

    Parameters
    ----------
    windows:
        Sorted, disjoint ``(start, end)`` windows of interest (e.g. the
        35 scan intervals, or a single "after 12 h" window).
    is_campus:
        Direction predicate.
    tcp_ports / udp_ports:
        Service ports considered evidence (same semantics as the
        passive table).
    """

    windows: Sequence[tuple[float, float]]
    is_campus: Callable[[int], bool]
    tcp_ports: frozenset[int] | None = None
    udp_ports: frozenset[int] = frozenset()

    #: address -> set of window indices with evidence.
    hits: dict[int, set[int]] = field(default_factory=dict)
    #: Window starts and ends as float64 arrays, built once.
    _starts: np.ndarray = field(init=False, repr=False, compare=False)
    _ends: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ordered = sorted(self.windows)
        if list(self.windows) != ordered:
            raise ValueError("windows must be sorted")
        for (s1, e1), (s2, _) in zip(ordered, ordered[1:]):
            if e1 > s2:
                raise ValueError("windows must be disjoint")
        bounds = np.array(self.windows, dtype=np.float64).reshape(-1, 2)
        self._starts, self._ends = bounds.T.copy()

    def observe_columns(self, cols) -> None:
        """Vectorised evidence masks and ``searchsorted`` window
        assignment; only the batch's distinct (address, window) pairs
        reach Python."""
        proto = cols.proto
        flags = cols.flags
        sport = cols.sport
        evidence = (proto == PROTO_TCP) & ((flags & 0x12) == 0x12)
        if self.tcp_ports is not None:
            evidence &= _port_lut(self.tcp_ports)[sport]
        if self.udp_ports:
            evidence |= (proto == PROTO_UDP) & _port_lut(self.udp_ports)[sport]
        src = cols.src
        evidence &= _campus_mask(self.is_campus, src)
        evidence &= ~_campus_mask(self.is_campus, cols.dst)
        index = np.flatnonzero(evidence)
        if not index.size:
            return
        times = cols.time[index]
        window = np.searchsorted(self._starts, times, side="right") - 1
        valid = window >= 0
        clipped = np.where(valid, window, 0)
        valid &= (self._starts[clipped] <= times) & (times < self._ends[clipped])
        addresses = src[index][valid]
        window = window[valid]
        if not addresses.size:
            return
        pairs = (
            addresses.astype(np.uint64) << np.uint64(32)
        ) | window.astype(np.uint64)
        hits = self.hits
        for pair in np.unique(pairs).tolist():
            hits.setdefault(pair >> 32, set()).add(pair & 0xFFFFFFFF)

    def addresses_with_any_activity(self) -> set[int]:
        """Addresses with evidence in any window."""
        return set(self.hits)
