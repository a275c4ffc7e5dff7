"""Generic UDP probing (paper Section 4.5).

"Generic UDP probing is difficult because there is no generic positive
response for service present."  The paper's interpretation rules,
implemented here:

* a UDP reply is a true positive ("definitely open");
* an ICMP port-unreachable is a true negative ("definitely closed");
* silence from a host that answered *some* probe is "possibly open";
* silence on every probed port means no host presence can be assumed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.campus.population import CampusPopulation
from repro.campus.probe_index import CLOSED, OPEN, SILENT
from repro.active.results import UdpScanReport
from repro.net.packet import PROTO_UDP


class GenericUdpProber:
    """Sweeps targets with generic (malformed-payload) UDP probes from
    one internal machine."""

    def __init__(self, population: CampusPopulation) -> None:
        self.population = population

    def scan(
        self,
        targets: Sequence[int],
        ports: Sequence[int],
        start: float,
        duration: float,
    ) -> UdpScanReport:
        """Probe every target on every port; classify per the paper's rules."""
        if duration <= 0:
            raise ValueError(f"scan duration must be positive: {duration}")
        if len(targets) == 0:
            raise ValueError("cannot scan an empty target list")
        report = UdpScanReport(
            start=start,
            end=start + duration,
            ports=tuple(ports),
        )
        # One grid of outcome codes for the sweep (row = address at its
        # probe time, column = port); ``tests/active_reference.py``
        # keeps the per-address loop this must equal.
        targets = np.asarray(targets, dtype=np.int64)
        when = start + np.arange(len(targets)) * (duration / len(targets))
        index = self.population.probe_index
        codes = index.sweep_outcomes(
            index.slots(targets),
            np.asarray(ports, dtype=np.int64),
            when,
            PROTO_UDP,
            internal=True,
        )
        responded = (codes != SILENT).any(axis=1)
        report.no_response_addresses.update(targets[~responded].tolist())
        for column, port in enumerate(ports):
            answer = codes[:, column]
            report.definitely_open[port] = set(targets[answer == OPEN].tolist())
            report.definitely_closed[port] = set(targets[answer == CLOSED].tolist())
            # Host is demonstrably alive but silent on this port: the
            # kernel would normally send ICMP, so the port may well
            # have a listener.
            report.possibly_open[port] = set(
                targets[responded & (answer == SILENT)].tolist()
            )
        return report
