"""Workload generators.

Turns a :class:`~repro.campus.population.CampusPopulation` into the
border packet stream a passive monitor would capture:

* :mod:`repro.traffic.clients` -- legitimate client flows to campus
  services (heavy-tailed popularity, diurnal modulation, per-client
  peering-link routing);
* :mod:`repro.traffic.scans` -- external scanners sweeping the campus
  address space (the paper's unexpected ally of passive monitoring);
* :mod:`repro.traffic.noise` -- campus-as-client outbound traffic, which
  carries no service evidence but exercises the monitor's direction
  filtering;
* :mod:`repro.traffic.generator` -- composition of all sources into one
  approximately time-ordered capture, as column batches.

Each source's RNG walk is scalar (the order of its draws is the trace)
and writes typed buffers; :mod:`repro.traffic._flows` expands a window
of flows into packet rows as arrays.  The capture is *approximately*
time-ordered (flows are written in start order; a flow's response
trails its request by one RTT although the next flow may start first):
exactly the order a ``heapq.merge`` of the sources on packet time
gives, which is a stable sort by each source's running maximum of time
and is computed as one, a window of about 8,192 records at a time.
Every consumer in :mod:`repro.passive` is order-insensitive by design.
The record-at-a-time generators this replaced are the definition the
tests compare against (``tests/traffic_reference.py``).
"""

from repro.traffic.clients import ClientDirectory
from repro.traffic.generator import TrafficMix, border_column_batches
from repro.traffic.scans import ScanPlan, ScanSweep, build_scan_plan

__all__ = [
    "ClientDirectory",
    "ScanPlan",
    "ScanSweep",
    "TrafficMix",
    "border_column_batches",
    "build_scan_plan",
]
