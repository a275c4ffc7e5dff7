"""Address-behaviour categorisation (paper Tables 3 and 4).

The paper interprets each address's observation vector:

* Table 3 uses 12 hours of passive data and one scan;
* Table 4 refines it with the remaining 17.5 days of both methods and
  the address's transience.

The functions here implement those decision tables over *observations
only*; in tests the output is compared with the simulator's generative
ground-truth categories, reproducing the paper's interpretation step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.active.results import ScanReport
from repro.core.timeline import DiscoveryTimeline

# Table 3 labels.
T3_ACTIVE_SERVER = "active server address"
T3_IDLE_SERVER = "idle server address"
T3_FIREWALLED_OR_BIRTH = "firewalled address or birth"
T3_NON_SERVER = "non-server address"

# Table 4 labels (verbatim from the paper).
T4_ACTIVE = "active server address"
T4_SERVER_DEATH = "server death"
T4_INTERMITTENT_FW = "intermittent"
T4_MOSTLY_IDLE = "mostly idle"
T4_IDLE_INTERMITTENT = "idle/intermittent"
T4_SEMI_IDLE = "semi-idle"
T4_IDLE = "idle"
T4_INTERMITTENT_PASSIVE = "intermittent (passive)"
T4_BIRTH = "birth"
T4_POSSIBLE_FIREWALL = "possible firewall"
T4_DEATH = "death"
T4_BIRTH_MOSTLY_IDLE = "birth/mostly idle"
T4_NON_SERVER = "non-server address"
T4_INTERMITTENT_ACTIVE = "intermittent/active"
T4_LATE_BIRTH = "birth (late)"
T4_INTERMITTENT_IDLE = "intermittent/idle"
T4_BIRTH_IDLE = "birth/idle"
T4_POSSIBLE_FW_INTERMITTENT = "possible firewall/intermittent"
T4_POSSIBLE_FW_BIRTH = "possible firewall/birth"


def categorize_initial(
    addresses: Iterable[int],
    passive_12h: set[int],
    active_first: set[int],
) -> dict[str, set[int]]:
    """Table 3: classify addresses from 12 h passive + one active scan."""
    result: dict[str, set[int]] = {
        T3_ACTIVE_SERVER: set(),
        T3_IDLE_SERVER: set(),
        T3_FIREWALLED_OR_BIRTH: set(),
        T3_NON_SERVER: set(),
    }
    for address in addresses:
        passive = address in passive_12h
        active = address in active_first
        if passive and active:
            result[T3_ACTIVE_SERVER].add(address)
        elif active:
            result[T3_IDLE_SERVER].add(address)
        elif passive:
            result[T3_FIREWALLED_OR_BIRTH].add(address)
        else:
            result[T3_NON_SERVER].add(address)
    return result


@dataclass(frozen=True)
class ObservationVector:
    """The five observable bits Table 4 branches on."""

    passive_early: bool   # passive evidence within the first 12 hours
    active_early: bool    # found by the first scan
    passive_late: bool    # passive evidence after the first 12 hours
    active_late: bool     # found by any later scan
    transient: bool       # address lies in a transient block


def classify_vector(v: ObservationVector) -> str:
    """Map one observation vector to its Table 4 label."""
    if v.passive_early and v.active_early:
        if v.passive_late and v.active_late:
            return T4_ACTIVE
        if not v.passive_late and not v.active_late:
            return T4_SERVER_DEATH
        if v.passive_late:
            return T4_INTERMITTENT_FW
        return T4_MOSTLY_IDLE
    if v.active_early:  # and not passive_early
        if v.transient:
            return T4_IDLE_INTERMITTENT
        if v.passive_late:
            return T4_SEMI_IDLE
        return T4_IDLE
    if v.passive_early:  # and not active_early
        if v.transient:
            return T4_INTERMITTENT_PASSIVE
        if v.passive_late and v.active_late:
            return T4_BIRTH
        if v.passive_late:
            return T4_POSSIBLE_FIREWALL
        if v.active_late:
            return T4_BIRTH_MOSTLY_IDLE
        return T4_DEATH
    # Nothing in the first 12 hours.
    if not v.passive_late and not v.active_late:
        return T4_NON_SERVER
    if v.passive_late and v.active_late:
        return T4_INTERMITTENT_ACTIVE if v.transient else T4_LATE_BIRTH
    if v.active_late:
        return T4_INTERMITTENT_IDLE if v.transient else T4_BIRTH_IDLE
    return T4_POSSIBLE_FW_INTERMITTENT if v.transient else T4_POSSIBLE_FW_BIRTH


@dataclass
class LateEvidence:
    """Addresses with passive evidence after a cutoff (for Table 4)."""

    addresses: set[int]

    def __contains__(self, address: int) -> bool:
        return address in self.addresses


def categorize_extended_with_evidence(
    addresses: Iterable[int],
    passive_timeline: DiscoveryTimeline,
    passive_late_evidence: LateEvidence,
    active_first_scan: set[int],
    active_later_scans: set[int],
    is_transient: Callable[[int], bool],
    early_cutoff: float,
) -> dict[str, set[int]]:
    """Table 4 classification with exact "seen passively later" data.

    ``passive_late_evidence`` must contain every address with *any*
    passive evidence at or after ``early_cutoff`` (not merely first
    discoveries), which the window-activity observer provides.
    """
    result: dict[str, set[int]] = {}
    for address in addresses:
        first = passive_timeline.first_seen.get(address)
        vector = ObservationVector(
            passive_early=first is not None and first < early_cutoff,
            active_early=address in active_first_scan,
            passive_late=address in passive_late_evidence,
            active_late=address in active_later_scans,
            transient=is_transient(address),
        )
        label = classify_vector(vector)
        result.setdefault(label, set()).add(address)
    return result


# ---------------------------------------------------------------------
# Firewall confirmation (Section 4.2.4).
# ---------------------------------------------------------------------

def confirm_firewalls(
    candidates: set[int],
    scan_reports: Sequence[ScanReport],
    passive_activity_windows: Mapping[int, set[int]] | None = None,
) -> dict[str, set[int]]:
    """Confirm suspected firewalled servers by the paper's two methods.

    Method 1: during a single scan, the address sent TCP RSTs from some
    ports but nothing from others -- it is up and selectively dropping.

    Method 2: passive activity was observed from the address *during* a
    scan in which the address did not respond to probes -- it was up
    and serving while blocking the prober.

    Parameters
    ----------
    candidates:
        Addresses suspected of firewalling (passive-only discoveries).
    scan_reports:
        All scans of the dataset.
    passive_activity_windows:
        address -> set of scan indices during which passive evidence
        from that address was captured (from the window observer);
        None disables method 2.

    Returns
    -------
    dict with keys ``"method1"``, ``"method2"``, ``"either"`` and
    ``"unconfirmed"``.
    """
    method1: set[int] = set()
    for report in scan_reports:
        method1 |= candidates & report.mixed_response_addresses
    method2: set[int] = set()
    if passive_activity_windows is not None:
        for index, report in enumerate(scan_reports):
            silent = (
                candidates
                - report.responding_addresses
                - report.open_addresses()
            )
            for address in silent:
                if index in passive_activity_windows.get(address, ()):
                    method2.add(address)
    either = method1 | method2
    return {
        "method1": method1,
        "method2": method2,
        "either": either,
        "unconfirmed": candidates - either,
    }
