"""Liveness inference: is this address still active *right now*?

"Lost in Space" (PAPERS.md) frames liveness as an inference problem
over heterogeneous evidence: recent passive traffic proves an address
up, a completed probe sweep that saw nothing argues it is down, and
silence under no probing proves nothing.  This module reduces that to
a deterministic rule over the two evidence streams this repo already
carries:

* **passive recency** -- the snapshot's last-seen timeline gives the
  latest moment each address demonstrably emitted service traffic;
* **active coverage** -- the dataset's scan reports give, per sweep,
  when it completed and which addresses it found open, so "probed
  since last seen and silent" is decidable mid-stream.

Verdicts (``GET /liveness/{addr}``):

``alive``
    Evidence (passive or active) within the horizon of ``now``.
``likely-down``
    Older evidence exists, *and* at least one sweep completed after the
    last evidence without finding the address open -- positive
    negative evidence, the strongest "down" signal available.
``stale``
    Older evidence exists but no sweep has tested the address since --
    absence of evidence only.
``never-seen``
    Neither method ever observed the address.

The default horizon is 12 hours -- the paper's sweep cadence, i.e. one
active refresh period.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.addr import format_ipv4
from repro.simkernel.clock import hours

from repro.query.snapshot import DiscoverySnapshot

#: Default liveness horizon: one of the paper's 12-hour sweep periods.
DEFAULT_HORIZON = hours(12)


@dataclass(frozen=True)
class ActiveView:
    """Active-scan evidence indexed for liveness queries.

    Built once per dataset (scan results are materialised at build
    time, as the paper's Nmap logs were) and shared read-only by every
    request.  ``sweeps`` holds ``(end_time, open_addresses)`` per
    sweep, sorted by completion time; only sweeps with ``end <= now``
    count for a query at stream time ``now`` -- the same
    evidence-time filtering watermarks apply to the passive side.
    """

    sweeps: tuple[tuple[float, frozenset[int]], ...]

    @classmethod
    def from_dataset(cls, dataset) -> "ActiveView":
        sweeps = [
            (report.end, frozenset(report.open_addresses()))
            for report in dataset.scan_reports
        ]
        if dataset.udp_report is not None:
            sweeps.append((
                dataset.udp_report.end,
                frozenset(
                    address
                    for address, _ in dataset.udp_report.open_endpoints()
                ),
            ))
        sweeps.sort(key=lambda sweep: sweep[0])
        return cls(sweeps=tuple(sweeps))

    def active_last_seen(self, address: int, now: float) -> float | None:
        """Latest active open of *address* at or before stream time."""
        sweeps_with = [
            end
            for end, opens in self.sweeps
            if end <= now and address in opens
        ]
        return max(sweeps_with) if sweeps_with else None

    def probed_since(self, address: int, after: float, now: float) -> bool:
        """A sweep completed in ``(after, now]`` without finding *address*."""
        return any(
            after < end <= now and address not in opens
            for end, opens in self.sweeps
        )

    def sweeps_completed(self, now: float) -> int:
        return sum(1 for end, _ in self.sweeps if end <= now)


def infer_liveness(
    address: int,
    snapshot: DiscoverySnapshot,
    active: ActiveView,
    horizon: float = DEFAULT_HORIZON,
) -> dict:
    """The liveness verdict for *address* at the snapshot's stream time.

    Deterministic in (snapshot, active view, horizon); the JSON shape
    is the ``GET /liveness/{addr}`` response body.

    A snapshot published by an online-probing run carries its own
    active evidence (``snapshot.probes``, the scheduler's view at the
    same consistent cut); it replaces the build-time *active* view, so
    verdicts account for sweeps still in flight -- the per-address
    probe times inside the view make "probed since last evidence and
    silent" decidable mid-sweep.
    """
    if snapshot.probes is not None:
        active = snapshot.probes
    now = snapshot.now
    passive_last = snapshot.passive_last_seen(address)
    active_last = active.active_last_seen(address, now)
    evidence = [
        when for when in (passive_last, active_last) if when is not None
    ]
    last_evidence = max(evidence) if evidence else None
    probed = last_evidence is not None and active.probed_since(
        address, last_evidence, now
    )
    if last_evidence is None:
        verdict = "never-seen"
    elif now - last_evidence <= horizon:
        verdict = "alive"
    elif probed:
        verdict = "likely-down"
    else:
        verdict = "stale"
    return {
        "address": format_ipv4(address),
        "verdict": verdict,
        "now": now,
        "horizon_seconds": horizon,
        "last_passive_seen": passive_last,
        "last_active_seen": active_last,
        "seconds_since_evidence": (
            None if last_evidence is None else now - last_evidence
        ),
        "probed_since_last_evidence": probed,
        "sweeps_completed": active.sweeps_completed(now),
        "services": len(snapshot.host_services(address)),
    }
