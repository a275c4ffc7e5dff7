"""Passive monitoring.

The observation side of the paper: tap the border links, keep only the
discovery-relevant headers (TCP SYN / SYN-ACK / RST, plus UDP), and
build a table of services over time.

* :mod:`repro.passive.monitor` -- the observer framework and the
  passive service table (SYN-ACK signal by default; handshake
  confirmation available as an ablation);
* :mod:`repro.passive.taps` -- one service table per peering link
  (Section 5.2's partial-perspective study);
* :mod:`repro.passive.sampling` -- the samplers of Section 5.3 and the
  one sampled observer, :class:`SamplingTable`;
* :mod:`repro.passive.scandetect` -- the external-scan detector
  (>=100 distinct targets and >=100 RSTs within 12 hours) and the
  scan-removal filter behind Figure 4.
"""

from repro.passive.monitor import (
    PacketObserver,
    PassiveServiceTable,
    ServiceSignal,
    replay,
)
from repro.passive.sampling import (
    CountBudgetSampler,
    FixedPeriodSampler,
    ProbabilisticSampler,
    SamplingTable,
)
from repro.passive.scandetect import ExternalScanDetector
from repro.passive.taps import MultiLinkMonitor

__all__ = [
    "CountBudgetSampler",
    "ExternalScanDetector",
    "FixedPeriodSampler",
    "ProbabilisticSampler",
    "SamplingTable",
    "MultiLinkMonitor",
    "PacketObserver",
    "PassiveServiceTable",
    "ServiceSignal",
    "replay",
]
