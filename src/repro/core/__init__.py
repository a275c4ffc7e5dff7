"""The paper's analyses as a library.

Everything in this package operates on *observations* -- passive
service tables and active scan reports -- never on simulator ground
truth, exactly as the paper's offline analysis operated on captured
traces and Nmap logs.

* :mod:`repro.core.timeline` -- discovery timelines and cumulative
  curves (the machinery behind every figure);
* :mod:`repro.core.completeness` -- union ground truth, overlap
  summaries (Table 2), weighted completeness (Figure 1);
* :mod:`repro.core.categorize` -- the address-behaviour
  categorisations of Tables 3 and 4 and the firewall confirmation
  methods of Section 4.2.4;
* :mod:`repro.core.report` -- plain-text tables and series renderers
  used by the experiment harness and EXPERIMENTS.md.
"""

from repro.core.completeness import (
    CompletenessSummary,
    summarize_overlap,
    weighted_discovery_curve,
)
from repro.core.categorize import (
    categorize_initial,
    confirm_firewalls,
)
from repro.core.report import TextTable, format_percent, render_series
from repro.core.timeline import DiscoveryTimeline, cumulative_curve

__all__ = [
    "CompletenessSummary",
    "DiscoveryTimeline",
    "TextTable",
    "categorize_initial",
    "confirm_firewalls",
    "cumulative_curve",
    "format_percent",
    "render_series",
    "summarize_overlap",
    "weighted_discovery_curve",
]
