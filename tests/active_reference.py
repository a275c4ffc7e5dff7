"""The scalar build-time sweeps: the reference model for differential tests.

These are the probe-at-a-time loops :mod:`repro.active` shipped with
before its sweeps became array pipelines over
:class:`~repro.campus.probe_index.ProbeResponseIndex`, kept as the
definition: one ``CampusPopulation.occupant_host`` lookup per address,
one ``Host.tcp_probe_response`` / ``udp_probe_response`` per port, one
``ProbeFaults.transmit`` per probe a lossy scanner sends, outcomes
folded into the report one at a time.  :func:`counts_row` is the
per-port Table 7 column nothing in ``repro`` reads any more.

:class:`ReferenceScanner` overrides only ``_sweep`` (telemetry and host
discovery are inherited) and takes its machine count as a parameter, so
a test sets it and ``repro.active.prober.MACHINES`` alike;
:class:`ReferenceUdpProber` overrides only ``scan``.  A test comparing
either with its parent class compares exactly the code that was
replaced.  Both probe from inside campus.
"""

from __future__ import annotations

from repro.active.prober import MACHINES, HalfOpenScanner
from repro.active.results import ScanReport, UdpScanReport
from repro.active.udp_scan import GenericUdpProber
from repro.campus.host import ProbeOutcome, UdpProbeOutcome


def counts_row(report: UdpScanReport, port: int) -> dict[str, int]:
    """Summary counts for one port (a Table 7 column)."""
    return {
        "definitely_open": len(report.definitely_open.get(port, ())),
        "possibly_open": len(report.possibly_open.get(port, ())),
        "definitely_closed": len(report.definitely_closed.get(port, ())),
    }


class ReferenceScanner(HalfOpenScanner):
    def __init__(self, population, faults=None, machines=MACHINES) -> None:
        super().__init__(population, faults=faults)
        self.machines = machines

    def _sweep(self, targets, ports, start, duration, scan_id):
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
        chunks = self._split([int(a) for a in targets], self.machines)
        for machine, chunk in enumerate(chunks):
            step = duration / len(chunk)
            for index, address in enumerate(chunk):
                t = start + index * step
                self._probe_address(
                    address, ports, t, report, faults=faults, machine=machine
                )
        report.opens.sort()
        return report, faults

    @staticmethod
    def _split(items, chunks):
        """Split *items* into *chunks* contiguous, near-equal parts."""
        if chunks == 1:
            return [items]
        size = (len(items) + chunks - 1) // chunks
        return [items[i : i + size] for i in range(0, len(items), size)]

    def _probe_address(self, address, ports, t, report, faults=None, machine=0):
        if faults is not None and faults.machine_down(machine, t):
            # The scanning machine is down: its probes are never sent.
            # The scanner's log shows silence, indistinguishable from
            # an unpopulated address.
            for _ in ports:
                report.counts.add(ProbeOutcome.NOTHING)
            return
        host = self.population.occupant_host(address, t)
        if host is None:
            for _ in ports:
                report.counts.add(ProbeOutcome.NOTHING)
            return
        saw_rst = False
        saw_nothing = False
        responded = False
        for port in ports:
            outcome = host.tcp_probe_response(port, t, internal=True)
            delay = 0.0
            if faults is not None:
                outcome, delay = faults.transmit(machine, outcome)
            report.counts.add(outcome)
            if outcome is ProbeOutcome.SYNACK:
                report.opens.append((t + delay, address, port))
                responded = True
            elif outcome is ProbeOutcome.RST:
                saw_rst = True
                responded = True
            else:
                saw_nothing = True
        if responded:
            report.responding_addresses.add(address)
        if saw_rst and saw_nothing:
            # RSTs from some ports but silence from others in one scan:
            # the paper's first firewall-confirmation signature.
            report.mixed_response_addresses.add(address)


class ReferenceUdpProber(GenericUdpProber):
    def scan(self, targets, ports, start, duration):
        if duration <= 0:
            raise ValueError(f"scan duration must be positive: {duration}")
        if len(targets) == 0:
            raise ValueError("cannot scan an empty target list")
        report = UdpScanReport(
            start=start,
            end=start + duration,
            ports=tuple(ports),
        )
        for port in ports:
            report.definitely_open[port] = set()
            report.possibly_open[port] = set()
            report.definitely_closed[port] = set()
        step = duration / len(targets)
        for index, address in enumerate(int(a) for a in targets):
            t = start + index * step
            host = self.population.occupant_host(address, t)
            outcomes: dict[int, UdpProbeOutcome] = {}
            for port in ports:
                if host is None:
                    outcomes[port] = UdpProbeOutcome.NOTHING
                else:
                    outcomes[port] = host.udp_probe_response(
                        port, t, internal=True
                    )
            responded = any(
                outcome is not UdpProbeOutcome.NOTHING for outcome in outcomes.values()
            )
            if not responded:
                report.no_response_addresses.add(address)
                continue
            for port, outcome in outcomes.items():
                if outcome is UdpProbeOutcome.REPLY:
                    report.definitely_open[port].add(address)
                elif outcome is UdpProbeOutcome.ICMP_UNREACHABLE:
                    report.definitely_closed[port].add(address)
                else:
                    # Host is demonstrably alive but silent on this
                    # port: the kernel would normally send ICMP, so the
                    # port may well have a listener.
                    report.possibly_open[port].add(address)
        return report
