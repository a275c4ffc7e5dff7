"""Transient-host sessions and the address-assignment ledger.

Transient hosts (DHCP, PPP, VPN, wireless) are up only during
*sessions*; at each session start they are assigned an address from
their block's pool.  Address reuse is the mechanism behind the paper's
never-levelling-off discovery curves: every reattachment at a new
address is a new discoverable "server IP address".

Two assignment policies mirror the campus reality the paper describes:

* ``STICKY`` -- Residence-Hall DHCP, where "each student keeps the same
  IP for a full semester or more": the host keeps one address across
  all its sessions.
* ``ROTATING`` -- PPP / VPN / wireless pools: every session draws the
  least-recently-released address (classic pool behaviour), so
  addresses are reused by different hosts over time.

The :class:`AddressLedger` answers the two queries everything else
needs: who holds an address at time *t* (scan resolution) and which
address a host holds at time *t* (traffic generation).
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from repro.net.addr import AddressBlock
from repro.simkernel.clock import SECONDS_PER_HOUR


class AssignmentPolicy(str, Enum):
    """How a block's pool hands out addresses."""

    STICKY = "sticky"
    ROTATING = "rotating"


@dataclass(frozen=True)
class SessionStyle:
    """Parameters of a transient host's session process.

    Sessions alternate with gaps; both durations are exponential with
    the given means.  ``day_start_bias`` nudges session starts that
    land at night (00:00-07:00 local) forward into the morning, which
    gives PPP hosts the daytime-heavy pattern Section 5.1 relies on.
    """

    mean_session_hours: float
    mean_gap_hours: float
    day_start_bias: bool = False

    def __post_init__(self) -> None:
        if self.mean_session_hours <= 0 or self.mean_gap_hours <= 0:
            raise ValueError("session and gap means must be positive")


#: Per-class default styles, tuned to the paper's observations:
#: PPP hosts are "typically active only for short periods of time";
#: Residence-Hall DHCP leases behave almost statically; VPN sessions
#: run long (a user working remotely for days).
SESSION_STYLES: dict[str, SessionStyle] = {
    "ppp": SessionStyle(mean_session_hours=2.5, mean_gap_hours=30.0, day_start_bias=True),
    "dhcp": SessionStyle(mean_session_hours=30.0, mean_gap_hours=40.0),
    "vpn": SessionStyle(mean_session_hours=36.0, mean_gap_hours=60.0),
    "wireless": SessionStyle(mean_session_hours=3.0, mean_gap_hours=20.0),
}


def generate_sessions(
    rng,
    style: SessionStyle,
    duration: float,
    hour_of_day_at_start: float = 10.0,
) -> list[tuple[float, float]]:
    """Generate a host's session windows over ``[0, duration)``.

    The process starts mid-gap with a random phase so hosts are not
    synchronised at dataset start.
    """
    sessions: list[tuple[float, float]] = []
    mean_gap = style.mean_gap_hours * SECONDS_PER_HOUR
    mean_session = style.mean_session_hours * SECONDS_PER_HOUR
    # Random initial phase: with probability p_on the host is already
    # online at t=0 (stationary alternating-renewal approximation).
    p_on = mean_session / (mean_session + mean_gap)
    t = 0.0
    if rng.random() < p_on:
        first_end = rng.expovariate(1.0 / mean_session)
        if first_end > 0:
            sessions.append((0.0, min(first_end, duration)))
            t = first_end
    else:
        t = rng.expovariate(1.0 / mean_gap)
    while t < duration:
        start = t
        if style.day_start_bias:
            start = _bias_to_daytime(rng, start, hour_of_day_at_start)
        length = rng.expovariate(1.0 / mean_session)
        end = start + max(length, 60.0)
        if start < duration and end > start:
            sessions.append((start, min(end, duration)))
        t = end + rng.expovariate(1.0 / mean_gap)
    # Guard against pathological zero-length or inverted windows.
    return [(s, e) for s, e in sessions if e > s]


def _bias_to_daytime(rng, start: float, hour_at_zero: float) -> float:
    """Push a session start landing between 00:00 and 07:00 into the morning."""
    hour = (hour_at_zero + start / SECONDS_PER_HOUR) % 24.0
    if hour < 7.0:
        # Delay to a uniformly chosen time between 08:00 and 12:00.
        delay_hours = (8.0 - hour) + rng.random() * 4.0
        return start + delay_hours * SECONDS_PER_HOUR
    return start


@dataclass(frozen=True, slots=True)
class Assignment:
    """One address tenure: *host_id* holds *address* during [start, end)."""

    address: int
    host_id: int
    start: float
    end: float


class AddressLedger:
    """Time-indexed address assignments for the whole campus.

    Built once at synthesis time; read-only afterwards.  Lookups are
    O(log n) in the number of tenures of the address/host involved.
    """

    def __init__(self) -> None:
        self._by_address: dict[int, list[Assignment]] = {}
        self._by_host: dict[int, list[Assignment]] = {}
        self._addr_starts: dict[int, list[float]] = {}
        self._host_starts: dict[int, list[float]] = {}
        self._finalized = False

    def record(self, address: int, host_id: int, start: float, end: float) -> None:
        """Record a tenure; tenures of one address must not overlap."""
        if self._finalized:
            raise RuntimeError("ledger is finalized")
        if end <= start:
            raise ValueError(f"empty tenure: [{start}, {end})")
        assignment = Assignment(address=address, host_id=host_id, start=start, end=end)
        self._by_address.setdefault(address, []).append(assignment)
        self._by_host.setdefault(host_id, []).append(assignment)

    def finalize(self) -> None:
        """Sort and index; verifies per-address tenures are disjoint."""
        for address, tenures in self._by_address.items():
            tenures.sort(key=lambda a: a.start)
            previous_end = -1.0
            for tenure in tenures:
                if tenure.start < previous_end:
                    raise ValueError(
                        f"overlapping tenures on address {address}: "
                        f"{tenure} begins before {previous_end}"
                    )
                previous_end = tenure.end
            self._addr_starts[address] = [t.start for t in tenures]
        for host_id, tenures in self._by_host.items():
            tenures.sort(key=lambda a: a.start)
            self._host_starts[host_id] = [t.start for t in tenures]
        self._finalized = True

    def occupant(self, address: int, t: float) -> int | None:
        """Return the host_id holding *address* at time *t*, or None."""
        tenures = self._by_address.get(address)
        if not tenures:
            return None
        index = bisect.bisect_right(self._addr_starts[address], t) - 1
        if index < 0:
            return None
        tenure = tenures[index]
        return tenure.host_id if tenure.start <= t < tenure.end else None

    def address_of(self, host_id: int, t: float) -> int | None:
        """Return the address held by *host_id* at time *t*, or None."""
        tenures = self._by_host.get(host_id)
        if not tenures:
            return None
        index = bisect.bisect_right(self._host_starts[host_id], t) - 1
        if index < 0:
            return None
        tenure = tenures[index]
        return tenure.address if tenure.start <= t < tenure.end else None

    def tenures_of_host(self, host_id: int) -> Sequence[Assignment]:
        """All tenures of *host_id*, sorted by start time."""
        return tuple(self._by_host.get(host_id, ()))

    def tenures_of_address(self, address: int) -> Sequence[Assignment]:
        """All tenures of *address*, sorted by start time."""
        return tuple(self._by_address.get(address, ()))

    def addresses_ever_used(self) -> set[int]:
        """Every address that was assigned at least once."""
        return set(self._by_address)


class BlockPool:
    """Address allocator for one transient block.

    ROTATING policy: a min-heap of (last_released, address) implements
    least-recently-released reuse; fresh addresses are preferred while
    any remain, which spreads early sessions across the block the way
    a real pool does.
    """

    def __init__(self, block: AddressBlock, policy: AssignmentPolicy) -> None:
        self.block = block
        self.policy = policy
        self._fresh = list(block.addresses())
        self._fresh.reverse()  # pop() from the low end first
        self._released: list[tuple[float, int]] = []
        self._sticky: dict[int, int] = {}

    def acquire(self, host_id: int, t: float) -> int:
        """Assign an address to *host_id* for a session starting at *t*.

        Raises
        ------
        RuntimeError
            If the pool is exhausted (more concurrent sessions than
            addresses) -- a synthesis bug worth failing loudly on.
        """
        if self.policy is AssignmentPolicy.STICKY:
            address = self._sticky.get(host_id)
            if address is None:
                address = self._take_fresh_or_reused(t)
                self._sticky[host_id] = address
            return address
        return self._take_fresh_or_reused(t)

    def release(self, address: int, t: float) -> None:
        """Return *address* to the pool at time *t* (ROTATING only)."""
        if self.policy is AssignmentPolicy.ROTATING:
            heapq.heappush(self._released, (t, address))

    def _take_fresh_or_reused(self, t: float) -> int:
        if self._fresh:
            return self._fresh.pop()
        while self._released:
            released_at, address = heapq.heappop(self._released)
            if released_at <= t:
                return address
            # The least-recently released address is still in use in
            # the future ordering sense; put it back and fail below.
            heapq.heappush(self._released, (released_at, address))
            break
        raise RuntimeError(
            f"address pool exhausted for block {self.block.name} at t={t}"
        )


def build_ledger(
    static_assignments: Iterable[tuple[int, int]],
    transient_sessions: Iterable[tuple[int, AddressBlock, AssignmentPolicy, Sequence[tuple[float, float]]]],
    duration: float,
) -> AddressLedger:
    """Build the campus :class:`AddressLedger`.

    Parameters
    ----------
    static_assignments:
        ``(address, host_id)`` pairs held for the whole dataset.
    transient_sessions:
        ``(host_id, block, policy, sessions)`` tuples; sessions are the
        host's up-windows.  Sessions across hosts in one block are
        interleaved chronologically so pool reuse is realistic.
    duration:
        Dataset duration in seconds.
    """
    ledger = AddressLedger()
    for address, host_id in static_assignments:
        ledger.record(address, host_id, 0.0, duration)

    # Group transient sessions per block, then replay each block's
    # session starts/ends in time order against its pool.
    per_block: dict[str, tuple[AddressBlock, AssignmentPolicy, list[tuple[float, float, int]]]] = {}
    for host_id, block, policy, sessions in transient_sessions:
        entry = per_block.setdefault(block.name, (block, policy, []))
        if entry[1] is not policy:
            raise ValueError(f"conflicting policies for block {block.name}")
        for start, end in sessions:
            entry[2].append((start, end, host_id))

    for block, policy, sessions in per_block.values():
        pool = BlockPool(block, policy)
        # Event replay: process acquisitions in start order, releasing
        # finished sessions first so their addresses become reusable.
        sessions.sort()
        active: list[tuple[float, int]] = []  # (end, address)
        for start, end, host_id in sessions:
            while active and active[0][0] <= start:
                finished_end, finished_address = heapq.heappop(active)
                pool.release(finished_address, finished_end)
            address = pool.acquire(host_id, start)
            capped_end = min(end, duration)
            if capped_end > start:
                ledger.record(address, host_id, start, capped_end)
                if policy is AssignmentPolicy.ROTATING:
                    heapq.heappush(active, (capped_end, address))
    ledger.finalize()
    return ledger
