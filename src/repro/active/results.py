"""Scan result containers.

A full campus sweep makes ~80,000 probes; 35 sweeps push 3 million.
Reports therefore keep *open* findings individually (they are sparse
and every analysis needs their timestamps) but aggregate negative
results into counters and the small derived sets the firewall analysis
needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campus.host import ProbeOutcome, UdpProbeOutcome


@dataclass
class ProbeOutcomeCounts:
    """Counter of probe outcomes for one scan."""

    synack: int = 0
    rst: int = 0
    nothing: int = 0

    def add(self, outcome: ProbeOutcome) -> None:
        if outcome is ProbeOutcome.SYNACK:
            self.synack += 1
        elif outcome is ProbeOutcome.RST:
            self.rst += 1
        else:
            self.nothing += 1

    @property
    def total(self) -> int:
        return self.synack + self.rst + self.nothing


@dataclass
class ScanReport:
    """Results of one half-open TCP sweep.

    Attributes
    ----------
    scan_id:
        Sequence number of the scan within its dataset.
    start, end:
        Sweep start time and completion time (dataset seconds).
    ports:
        Ports probed on every target.
    opens:
        ``(probe_time, address, port)`` for every open endpoint found.
    counts:
        Aggregate outcome counters.
    mixed_response_addresses:
        Addresses that answered RST on some ports but were silent on
        others during this same scan -- the paper's first method of
        confirming a firewall (Section 4.2.4).
    responding_addresses:
        Addresses that sent any response (liveness evidence).
    """

    scan_id: int
    start: float
    end: float
    ports: tuple[int, ...]
    opens: list[tuple[float, int, int]] = field(default_factory=list)
    counts: ProbeOutcomeCounts = field(default_factory=ProbeOutcomeCounts)
    mixed_response_addresses: set[int] = field(default_factory=set)
    responding_addresses: set[int] = field(default_factory=set)

    def open_endpoints(self) -> set[tuple[int, int]]:
        """(address, port) pairs found open in this scan."""
        return {(address, port) for _, address, port in self.opens}

    def open_addresses(self) -> set[int]:
        """Addresses with at least one open port in this scan."""
        return {address for _, address, _ in self.opens}

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_open_endpoints(reports: list[ScanReport]) -> set[tuple[int, int]]:
    """(address, port) pairs open in *any* of the given scans."""
    out: set[tuple[int, int]] = set()
    for report in reports:
        out |= report.open_endpoints()
    return out


def first_open_times(reports: list[ScanReport]) -> dict[tuple[int, int], float]:
    """Earliest discovery time per endpoint across scans."""
    first: dict[tuple[int, int], float] = {}
    for report in reports:
        for t, address, port in report.opens:
            key = (address, port)
            if key not in first or t < first[key]:
                first[key] = t
    return first


def first_open_events(
    reports: list[ScanReport], udp_report: "UdpScanReport | None" = None
) -> tuple[tuple[float, int], ...]:
    """``(time, address)`` per endpoint's first open, sorted by time.

    The build-time active side as a timeline: each TCP endpoint at its
    earliest open probe, each generic-UDP finding at the sweep's end
    (that scan records endpoints, not probe times).  One address
    appears once per open endpoint.
    """
    first = first_open_times(reports)
    if udp_report is not None:
        when = udp_report.end
        for endpoint in udp_report.open_endpoints():
            if endpoint not in first or when < first[endpoint]:
                first[endpoint] = when
    return tuple(sorted(
        (when, address) for (address, _port), when in first.items()
    ))


@dataclass
class UdpScanReport:
    """Results of one generic UDP sweep (paper Table 7's structure).

    Per port: ``definitely_open`` (UDP reply), ``possibly_open`` (no
    response from a host that responded to *some* probe), and
    ``definitely_closed`` (ICMP port unreachable).  Hosts that answered
    no probe at all are counted once in ``no_response_addresses``.
    """

    start: float
    end: float
    ports: tuple[int, ...]
    definitely_open: dict[int, set[int]] = field(default_factory=dict)
    possibly_open: dict[int, set[int]] = field(default_factory=dict)
    definitely_closed: dict[int, set[int]] = field(default_factory=dict)
    no_response_addresses: set[int] = field(default_factory=set)

    def totals(self) -> dict[str, int]:
        """The Table 7 "all" column."""
        return {
            "definitely_open": sum(len(s) for s in self.definitely_open.values()),
            "possibly_open": sum(len(s) for s in self.possibly_open.values()),
            "definitely_closed": max(
                (len(s) for s in self.definitely_closed.values()), default=0
            ),
            "no_response": len(self.no_response_addresses),
        }

    def open_endpoints(self) -> set[tuple[int, int]]:
        """(address, port) for definite opens."""
        out: set[tuple[int, int]] = set()
        for port, addresses in self.definitely_open.items():
            out |= {(address, port) for address in addresses}
        return out


__all__ = [
    "ProbeOutcome",
    "ProbeOutcomeCounts",
    "ScanReport",
    "UdpProbeOutcome",
    "UdpScanReport",
    "first_open_events",
    "first_open_times",
    "union_open_endpoints",
]
