"""External scanners.

"Perhaps ironically, external, possibly malicious scans of our network
provide great assistance in rapidly detecting services" (paper,
Section 4.3).  This module generates those scans: sweeps of the campus
address space from single external sources, each probing one TCP port
over a contiguous period.  Every probe is resolved against the shared
host state machine, producing the SYN / SYN-ACK / RST border packets
passive monitoring feeds on -- and the >=100-RST signature the paper's
scan-removal heuristic keys on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campus.population import CampusPopulation
from repro.campus.probe_index import OPEN, SILENT
from repro.campus.profiles import ScanClimate
from repro.net.packet import PROTO_TCP
from repro.simkernel.clock import SECONDS_PER_DAY
from repro.simkernel.rng import RngStreams, weighted_choice
from repro.trace.columnar import RecordColumns
from repro.traffic._flows import LINK_CODE, RST, SYNACK, flow_packets
from repro.traffic.links import link_for_scanner

#: External scanner addresses are drawn from this base upward (distinct
#: from the legitimate-client range so tests can tell them apart).
_SCANNER_BASE = 0xC6_00_00_00  # 198.0.0.0


@dataclass(frozen=True)
class ScanSweep:
    """One external scan: a single source sweeping one port.

    Attributes
    ----------
    scanner:
        Source address of the sweep.
    port:
        TCP port probed.
    start:
        Sweep start time (dataset seconds).
    rate:
        Probe rate in addresses per second.
    coverage:
        Fraction of the campus address space probed (1.0 = full sweep).
    link:
        Peering link the scanner's packets cross.
    """

    scanner: int
    port: int
    start: float
    rate: float
    coverage: float
    link: str

    def duration(self, space_size: int) -> float:
        """Sweep duration in seconds for a space of *space_size* addresses."""
        probes = max(1, int(space_size * self.coverage))
        return probes / self.rate


@dataclass(frozen=True)
class ScanPlan:
    """All external sweeps of one dataset, time-ordered."""

    sweeps: tuple[ScanSweep, ...]

    def __len__(self) -> int:
        return len(self.sweeps)

    def scanner_addresses(self) -> set[int]:
        return {sweep.scanner for sweep in self.sweeps}


def build_scan_plan(
    climate: ScanClimate,
    streams: RngStreams,
    duration: float,
) -> ScanPlan:
    """Realise a :class:`ScanPlan` from a profile's scan climate.

    Major sweeps land at their configured day offsets; minor scans
    arrive as a Poisson process over the whole dataset.  Scanner
    addresses are drawn from a pool of ``climate.scanner_ip_count``
    sources; one source may scan repeatedly (as real scanners do).
    """
    rng = streams.stream("scans.plan")
    pool = [
        _SCANNER_BASE + rng.getrandbits(24)
        for _ in range(max(1, climate.scanner_ip_count))
    ]
    sweeps: list[ScanSweep] = []
    for day_offset, port, coverage in climate.major_sweeps:
        start = day_offset * SECONDS_PER_DAY
        if start >= duration:
            continue
        scanner = rng.choice(pool)
        sweeps.append(
            ScanSweep(
                scanner=scanner,
                port=port,
                start=start,
                rate=rng.uniform(40.0, 120.0),
                coverage=coverage,
                link=link_for_scanner(scanner),
            )
        )
    expected_minor = climate.minor_scans_per_day * duration / SECONDS_PER_DAY
    minor_count = _poisson(rng, expected_minor)
    ports = [p for p, _ in climate.minor_port_weights]
    weights = [w for _, w in climate.minor_port_weights]
    lo, hi = climate.minor_coverage
    for _ in range(minor_count):
        scanner = rng.choice(pool)
        sweeps.append(
            ScanSweep(
                scanner=scanner,
                port=weighted_choice(rng, ports, weights),
                start=rng.uniform(0.0, duration),
                rate=rng.uniform(20.0, 200.0),
                coverage=rng.uniform(lo, hi),
                link=link_for_scanner(scanner),
            )
        )
    sweeps.sort(key=lambda sweep: sweep.start)
    return ScanPlan(sweeps=tuple(sweeps))


def _poisson(rng, mean: float) -> int:
    """Small-mean Poisson sampler (inversion; mean is tens at most)."""
    if mean <= 0:
        return 0
    import math

    limit = math.exp(-mean)
    count, product = 0, rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count


def _sweep_packets(
    population: CampusPopulation,
    sweep: ScanSweep,
    streams: RngStreams,
    end: float,
) -> RecordColumns:
    """The border packets of one whole sweep, in the order it sends them.

    The scanner walks a deterministic sample of the campus space in
    address order at ``sweep.rate`` until *end*.  Responses are resolved
    against the occupant host at probe time with ``internal=False`` --
    the paths that keep firewalled and hidden services dark to
    outsiders -- and trail their SYN by 0.03 s, so they land among the
    SYNs that follow.
    """
    rng = streams.stream(f"scans.sweep.{sweep.scanner}.{sweep.start:.0f}")
    addresses = np.concatenate([
        np.arange(block.first, block.last + 1, dtype=np.int64)
        for block in population.topology.space.blocks
    ])
    if sweep.coverage < 1.0:
        # Sampling positions draws what sampling the addresses drew:
        # ``random.sample`` reads only the population's length.
        sample_size = max(1, int(len(addresses) * sweep.coverage))
        addresses = addresses[sorted(rng.sample(range(len(addresses)), sample_size))]
    sport = 30000 + rng.getrandbits(12)
    # The probe clock is ``t += interval`` from ``sweep.start``: a
    # running sum, which ``start + arange(n) * interval`` is not.
    steps = np.full(len(addresses), 1.0 / sweep.rate)
    steps[0] = sweep.start
    when = np.cumsum(steps)
    sent = int(np.searchsorted(when, end, side="left"))
    when, addresses = when[:sent], addresses[:sent]
    index = population.probe_index
    outcome = index.outcomes(
        index.slots(addresses), np.full(sent, sweep.port), when, PROTO_TCP,
        internal=False,
    )
    return flow_packets(
        when, sweep.scanner, addresses, sport, sweep.port, PROTO_TCP, 0.03,
        LINK_CODE[sweep.link],
        packets=1 + (outcome != SILENT),
        answer=np.where(outcome == OPEN, SYNACK, RST),
    )
