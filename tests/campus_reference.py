"""Campus helpers that only their tests call.

No dataset counts its static addresses, estimates a service's flows
from its base rate, or asks which signature classified a page: the
definitions live here, beside ``tests/test_campus_topology.py``,
``tests/test_campus_service.py`` and ``tests/test_campus_webpages.py``.
"""

from __future__ import annotations

from repro.campus.service import ActivityPattern
from repro.campus.topology import CampusTopology
from repro.webclassify.classifier import PageClassifier
from repro.webclassify.signatures import Signature


def transient_addresses(topology: CampusTopology) -> int:
    """How many addresses the topology's transient blocks hold."""
    return sum(b.size for b in topology.space.blocks if b.is_transient)


def static_addresses(topology: CampusTopology) -> int:
    """How many addresses are not in a transient block."""
    return topology.total_addresses - transient_addresses(topology)


def expected_flows(pattern: ActivityPattern, duration: float) -> float:
    """Expected flow count if active for *duration* seconds."""
    return pattern.base_rate * duration


def matching_signature(classifier: PageClassifier, page: str) -> Signature | None:
    """The first signature that matches *page* (diagnostics)."""
    lowered = page.lower()
    for signature in classifier.signatures:
        if signature.matches(lowered):
            return signature
    return None
