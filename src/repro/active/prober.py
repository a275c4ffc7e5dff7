"""Half-open TCP scanning.

The scanner walks its target list over the sweep's duration, sending a
SYN to every (address, port) pair and classifying the response:

* SYN-ACK -- an open service (the scanner immediately sends RST, never
  completing the handshake: "half-open" scanning);
* RST -- host up, port closed;
* silence -- host down or a firewall dropping probes.

The paper's sweeps took 90-120 minutes over 16,130 addresses with the
space split between two scanning machines; :class:`HalfOpenScanner`
reproduces that timing model so discovery *times* (not just sets) are
meaningful, which Figure 1's active curve depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.campus.host import ProbeOutcome
from repro.campus.population import CampusPopulation
from repro.campus.probe_index import CLOSED, OPEN, SILENT
from repro.active.results import ScanReport
from repro.net.packet import PROTO_TCP
from repro.telemetry.metrics import registry as _telemetry_registry

#: ``ProbeOutcome`` by probe-index outcome code.
_OUTCOME = (ProbeOutcome.NOTHING, ProbeOutcome.SYNACK, ProbeOutcome.RST)

#: Scanning machines: the paper split the address space "roughly in
#: half and scanned separately by two internal machines" (Section 2.3),
#: each sweeping one contiguous chunk of the target list.  Probes come
#: from inside campus, so they never cross the border taps.
MACHINES = 2


class HalfOpenScanner:
    """Nmap-style half-open scanner bound to a population.

    The scanner resolves probes through the same host state machine
    that generates passive traffic, so the two discovery methods
    disagree exactly where the paper says they should.  A sweep is an
    array pipeline over the population's
    :class:`~repro.campus.probe_index.ProbeResponseIndex`: one
    ``(address, port)`` grid of outcome codes per scanning machine,
    folded into the report by counting; ``tests/active_reference.py``
    keeps the probe-at-a-time definition it must equal.
    """

    def __init__(self, population: CampusPopulation, faults=None) -> None:
        self.population = population
        # A null fault plan is stored as None so every fault check
        # below is a single identity comparison on the pristine path.
        if faults is not None and faults.is_null:
            faults = None
        self.fault_plan = faults

    def scan(
        self,
        targets: Sequence[int],
        ports: Sequence[int],
        start: float,
        duration: float,
        scan_id: int = 0,
    ) -> ScanReport:
        """Sweep *targets* x *ports* beginning at *start*.

        Parameters
        ----------
        targets:
            Campus addresses to probe (the paper probed every address;
            no separate host-discovery phase).
        ports:
            TCP ports probed per address.
        duration:
            Wall-clock length of the sweep; per-address probe times are
            spread linearly across it within each scanner's chunk.
        """
        report, faults = self._sweep(targets, ports, start, duration, scan_id)
        self._flush_sweep_telemetry(report, faults)
        return report

    def _sweep(
        self,
        targets: Sequence[int],
        ports: Sequence[int],
        start: float,
        duration: float,
        scan_id: int,
    ) -> "tuple[ScanReport, ProbeFaults | None]":
        """:meth:`scan` short of its telemetry flush.

        Returns the report and the sweep's probe-fault model (None on
        the pristine path), whose tallies the flush reads.
        """
        if duration <= 0:
            raise ValueError(f"scan duration must be positive: {duration}")
        if len(targets) == 0:
            raise ValueError("cannot scan an empty target list")
        report = ScanReport(
            scan_id=scan_id,
            start=start,
            end=start + duration,
            ports=tuple(ports),
        )
        faults = (
            self.fault_plan.probe_faults(scan_id, start, duration)
            if self.fault_plan is not None
            else None
        )
        index = self.population.probe_index
        port_row = np.asarray(ports, dtype=np.int64)
        chunks = self._split(np.asarray(targets, dtype=np.int64), MACHINES)
        for machine, chunk in enumerate(chunks):
            # The scalar expression, so open times are bit-equal to the
            # per-address definition.
            when = start + np.arange(len(chunk)) * (duration / len(chunk))
            slots = index.slots(chunk)
            codes = index.sweep_outcomes(slots, port_row, when, PROTO_TCP)
            delay = None
            if faults is not None:
                delay = self._transmit(
                    faults, machine, codes, when, index.occupied(slots, when)
                )
            self._fold(report, chunk, port_row, when, codes, delay)
        report.opens.sort()
        return report, faults

    @staticmethod
    def _transmit(faults, machine: int, codes, when, occupied) -> np.ndarray:
        """Degrade one machine's grid in place; return per-probe delays.

        A machine that is down sends nothing: its rows read silence,
        as an unpopulated address does.  Every probe it does send to a
        held address goes through ``ProbeFaults.transmit`` in probe
        order (address, then port) -- the order of its RNG draws is
        the fault model's definition, so this stays a per-probe walk.
        """
        window = faults.downtime_window(machine)
        if window is not None:
            down = (window[0] <= when) & (when < window[1])
            codes[down] = SILENT
            occupied = occupied & ~down
        sent = codes[occupied]
        observed, delays = [], []
        for code in sent.ravel().tolist():
            outcome, delay = faults.transmit(machine, _OUTCOME[code])
            observed.append(SILENT if outcome is ProbeOutcome.NOTHING else code)
            delays.append(delay)
        codes[occupied] = np.asarray(observed, dtype=np.uint8).reshape(sent.shape)
        delay = np.zeros(codes.shape)
        delay[occupied] = np.asarray(delays, dtype=np.float64).reshape(sent.shape)
        return delay

    @staticmethod
    def _fold(report: ScanReport, addresses, ports, when, codes, delay) -> None:
        """Fold one machine's outcome grid into *report*.

        Row-major ``nonzero`` visits opens in probe order, and the sets
        are filled in address order, as the per-address loop did.
        """
        counts = report.counts
        is_open = codes == OPEN
        is_closed = codes == CLOSED
        synack = int(np.count_nonzero(is_open))
        rst = int(np.count_nonzero(is_closed))
        counts.synack += synack
        counts.rst += rst
        counts.nothing += codes.size - synack - rst
        rows, cols = np.nonzero(is_open)
        seen = when[rows] if delay is None else when[rows] + delay[rows, cols]
        report.opens.extend(
            zip(seen.tolist(), addresses[rows].tolist(), ports[cols].tolist())
        )
        saw_rst = is_closed.any(axis=1)
        report.responding_addresses.update(
            addresses[saw_rst | is_open.any(axis=1)].tolist()
        )
        # RSTs from some ports but silence from others in one scan:
        # the paper's first firewall-confirmation signature.
        report.mixed_response_addresses.update(
            addresses[saw_rst & (codes == SILENT).any(axis=1)].tolist()
        )

    def _flush_sweep_telemetry(self, report: ScanReport, faults) -> None:
        """Fold one sweep's outcome tallies into the active registry.

        Runs once per sweep (aggregate counters), so the disabled cost
        is a handful of no-op calls regardless of probe volume.
        """
        reg = _telemetry_registry()
        counts = report.counts
        reg.counter(
            "repro_active_sweeps_total", "Active scan sweeps completed.",
        ).inc()
        reg.counter(
            "repro_active_probes_total", "TCP probes sent by the scanner.",
        ).inc(counts.total)
        reg.counter(
            "repro_active_synacks_total", "Probes answered with SYN-ACK.",
        ).inc(counts.synack)
        reg.counter(
            "repro_active_rsts_total", "Probes answered with RST.",
        ).inc(counts.rst)
        reg.counter(
            "repro_active_silent_probes_total",
            "Probes that observed silence (down, firewalled, or lost).",
        ).inc(counts.nothing)
        if faults is not None:
            reg.counter(
                "repro_active_retransmits_total",
                "Extra transmissions triggered by probe/response loss.",
            ).inc(faults.retransmits)
            reg.counter(
                "repro_active_timeouts_total",
                "Probes whose every transmission went unanswered.",
            ).inc(faults.timeouts)

    def scan_open_ports_of_population(
        self,
        start: float,
        duration: float,
        scan_id: int = 0,
        max_port: int = 65535,
    ) -> ScanReport:
        """An all-ports sweep (the DTCPall study).

        Probing 65,535 ports on every address is simulated exactly but
        executed sparsely: closed ports contribute nothing to any
        analysis the paper reports for DTCPall (only open endpoints are
        plotted/counted), so per-port negative outcomes are aggregated
        arithmetically instead of being iterated one by one.

        Fault injection keeps the sparse shape: transmission loss and
        retransmits apply to the probes that matter for the reported
        analyses (service ports and the RST baseline probe); the
        arithmetically aggregated closed-port negatives are left
        exact, since a lost RST among tens of thousands changes no
        reported number.  The sweep runs from one machine, so a
        downtime window blacks out a contiguous slice of the address
        walk.
        """
        report = ScanReport(
            scan_id=scan_id,
            start=start,
            end=start + duration,
            ports=(),
        )
        faults = (
            self.fault_plan.probe_faults(scan_id, start, duration)
            if self.fault_plan is not None
            else None
        )
        addresses = sorted(
            address
            for address in self.population.topology.space.addresses()
        )
        if not addresses:
            raise ValueError("population has no addresses to scan")
        step = duration / len(addresses)
        for index, address in enumerate(addresses):
            t = report.start + index * step
            if faults is not None and faults.machine_down(0, t):
                report.counts.nothing += max_port
                continue
            host = self.population.occupant_host(address, t)
            if host is None:
                report.counts.nothing += max_port
                continue
            open_found = False
            rst_baseline = host.tcp_probe_response(1, t, internal=True)
            if faults is not None:
                rst_baseline, _ = faults.transmit(0, rst_baseline)
            for (port, proto), service in sorted(host.services.items()):
                if proto != 6 or port > max_port:
                    continue
                outcome = host.tcp_probe_response(port, t, internal=True)
                delay = 0.0
                if faults is not None:
                    outcome, delay = faults.transmit(0, outcome)
                if outcome is ProbeOutcome.SYNACK:
                    report.opens.append((t + delay, address, port))
                    open_found = True
            if rst_baseline is ProbeOutcome.RST:
                report.responding_addresses.add(address)
                report.counts.rst += max_port - len(host.services)
            elif open_found:
                report.responding_addresses.add(address)
        report.opens.sort()
        self._flush_sweep_telemetry(report, faults)
        return report

    def scan_with_host_discovery(
        self,
        targets: Sequence[int],
        ports: Sequence[int],
        start: float,
        duration: float,
        scan_id: int = 0,
        discovery_port: int | None = None,
    ) -> tuple[ScanReport, "HostDiscoveryStats"]:
        """Two-phase sweep: cheap host discovery, then full port scans.

        Phase 1 sends a single probe per address (to *discovery_port*,
        default the first service port); only addresses that answered
        anything get the full port set in phase 2.  This is the
        optimisation the paper explicitly omitted ("we expect that this
        process would be much faster if host scanning eliminated probes
        of unpopulated addresses", Section 5.4) -- implemented here so
        its cost/benefit can be measured.

        The trade-off it inherits: hosts whose firewalls drop *every*
        probe look unpopulated and are skipped, so a host-discovery
        scan can only ever find a subset of what the exhaustive scan
        finds.

        Returns the phase-2 :class:`ScanReport` (phase-1 opens merged
        in) and a :class:`HostDiscoveryStats` with the probe budget.
        """
        if len(ports) == 0:
            raise ValueError("need at least one service port")
        probe_port = discovery_port if discovery_port is not None else ports[0]
        # Phase 1: one probe per address over the first 25% of the sweep.
        phase1, faults = self._sweep(
            targets, (probe_port,), start, duration * 0.25, scan_id
        )
        live = sorted(phase1.responding_addresses)
        stats = HostDiscoveryStats(
            targets=len(targets),
            live=len(live),
            probes_sent=phase1.counts.total,
            probes_naive=len(targets) * len(ports),
        )
        if not live:
            self._flush_sweep_telemetry(phase1, faults)
            return phase1, stats
        # Phase 2: the full port set against live addresses only.
        remaining_ports = [p for p in ports if p != probe_port]
        report = ScanReport(
            scan_id=scan_id,
            start=start,
            end=start + duration,
            ports=tuple(ports),
        )
        report.opens.extend(phase1.opens)
        report.responding_addresses |= phase1.responding_addresses
        report.counts.synack += phase1.counts.synack
        report.counts.rst += phase1.counts.rst
        report.counts.nothing += phase1.counts.nothing
        if remaining_ports:
            phase2, faults2 = self._sweep(
                live, remaining_ports, phase1.end, duration * 0.75, scan_id
            )
            if faults is not None:
                # One loss tally for the logical sweep.
                faults.retransmits += faults2.retransmits
                faults.timeouts += faults2.timeouts
            report.opens.extend(phase2.opens)
            report.responding_addresses |= phase2.responding_addresses
            report.mixed_response_addresses |= phase2.mixed_response_addresses
            report.counts.synack += phase2.counts.synack
            report.counts.rst += phase2.counts.rst
            report.counts.nothing += phase2.counts.nothing
            stats.probes_sent += phase2.counts.total
        report.opens.sort()
        # One logical sweep: its telemetry is the merged report's.
        self._flush_sweep_telemetry(report, faults)
        return report, stats

    @staticmethod
    def _split(items: np.ndarray, chunks: int) -> list[np.ndarray]:
        """Split *items* into *chunks* contiguous, near-equal parts.

        Fewer when there are not enough items to go round: no part is
        ever empty.
        """
        if chunks == 1:
            return [items]
        size = (len(items) + chunks - 1) // chunks
        return [items[i : i + size] for i in range(0, len(items), size)]


@dataclass
class HostDiscoveryStats:
    """Probe-budget accounting for a host-discovery scan.

    ``probes_naive`` is what the exhaustive sweep would have cost;
    ``savings_pct`` the reduction the two-phase approach achieved.
    """

    targets: int
    live: int
    probes_sent: int
    probes_naive: int

    @property
    def savings_pct(self) -> float:
        if self.probes_naive == 0:
            return 0.0
        return 100.0 * (1.0 - self.probes_sent / self.probes_naive)
