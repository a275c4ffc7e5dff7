"""repro -- a reproduction of *Understanding Passive and Active Service
Discovery* (Bartlett, Heidemann, Papadopoulos; IMC 2007 / ISI-TR-642).

The library has three layers:

1. **Substrate** -- a deterministic simulated campus network standing in
   for the paper's live USC traffic: :mod:`repro.campus` (hosts,
   services, churn, firewalls), :mod:`repro.traffic` (clients, external
   scanners, noise), :mod:`repro.net` (addresses, packets, flows) and
   :mod:`repro.simkernel` (clock, RNG streams, event loop).

2. **Discovery methods** -- :mod:`repro.passive` (border monitoring,
   per-link taps, sampling, scan detection) and :mod:`repro.active`
   (half-open TCP scanning, generic UDP probing, scheduling), plus
   :mod:`repro.trace` (header-trace recording and anonymisation) and
   :mod:`repro.webclassify` (root-page fetching and classification).

3. **Analyses** -- :mod:`repro.core` (completeness, weighting,
   categorisation, timelines), :mod:`repro.datasets` (the paper's
   Table 1 datasets as buildable objects) and :mod:`repro.experiments`
   (every table and figure regenerated).

Quickstart::

    from repro import build_dataset, PassiveServiceTable

    dataset = build_dataset("DTCP1-18d", seed=0, scale=0.1)
    table = PassiveServiceTable(
        is_campus=dataset.is_campus, tcp_ports=dataset.tcp_ports
    )
    dataset.replay(table)
    print(len(table.server_addresses()), "servers found passively")
"""

from repro.active.prober import HalfOpenScanner
from repro.active.udp_scan import GenericUdpProber
from repro.core.completeness import CompletenessSummary, summarize_overlap
from repro.core.timeline import DiscoveryTimeline
from repro.datasets import BuiltDataset, build_dataset, registry
from repro.passive.monitor import PassiveServiceTable, ServiceSignal, replay
from repro.passive.sampling import FixedPeriodSampler
from repro.passive.scandetect import ExternalScanDetector
from repro.trace.anonymize import Anonymizer
from repro.trace.columnar import (
    ColumnarTraceWriter,
    read_trace,
    read_trace_columns,
    write_trace,
)

__version__ = "1.0.0"

__all__ = [
    "Anonymizer",
    "BuiltDataset",
    "ColumnarTraceWriter",
    "CompletenessSummary",
    "DiscoveryTimeline",
    "ExternalScanDetector",
    "FixedPeriodSampler",
    "GenericUdpProber",
    "HalfOpenScanner",
    "PassiveServiceTable",
    "ServiceSignal",
    "__version__",
    "build_dataset",
    "read_trace",
    "read_trace_columns",
    "registry",
    "replay",
    "summarize_overlap",
    "write_trace",
]
