"""Active probing.

An Nmap-like scanner operating against the simulated campus:

* :mod:`repro.active.prober` -- half-open TCP scanning from two
  machines (the paper split the space "roughly in half and scanned
  separately by two internal machines");
* :mod:`repro.active.udp_scan` -- generic UDP probing with the paper's
  response-interpretation rules (Section 4.5);
* :mod:`repro.active.schedule` -- the every-12-hours 11:00/23:00 scan
  scheduling and the time-of-day subset selections of Section 5.1;
* :mod:`repro.active.results` -- scan reports and their aggregations.

Internal probes and their responses never cross the border, so they are
invisible to passive monitoring -- as in the paper, where probing was
done "from internal campus machines".
"""

from repro.active.prober import HalfOpenScanner
from repro.active.results import ProbeOutcomeCounts, ScanReport, UdpScanReport
from repro.active.schedule import ScanScheduleBuilder, scan_start_times
from repro.active.udp_scan import GenericUdpProber

__all__ = [
    "GenericUdpProber",
    "HalfOpenScanner",
    "ProbeOutcomeCounts",
    "ScanReport",
    "ScanScheduleBuilder",
    "UdpScanReport",
    "scan_start_times",
]
