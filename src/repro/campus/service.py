"""Services and their client-arrival activity models.

A :class:`Service` is one (port, protocol) endpoint on one host.  Its
observable life has three ingredients:

* **lifetime** -- birth and death times (supporting the paper's
  "birth" and "server death" categories);
* **reachability** -- firewall policy lives on the host (see
  :mod:`repro.campus.host`); a service may additionally be marked as
  blocking unsolicited external probes (the paper's hidden MySQL
  servers block external sources while answering internal probes);
* **activity** -- an :class:`ActivityPattern` describing legitimate
  client arrivals: a base Poisson rate, optionally restricted to
  explicit windows (a server "overheard once" has a single early
  burst window and silence after), modulated by the campus diurnal
  profile at generation time.

Rates are *mean flows per second averaged over a weekday*; the heavy
tail across services is created at synthesis time
(:mod:`repro.campus.population`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.net.packet import PROTO_TCP


@dataclass(frozen=True)
class ActivityPattern:
    """Legitimate client-arrival behaviour of one service.

    Attributes
    ----------
    base_rate:
        Mean client flows per second while the pattern is active.
        Zero means the service is silent (idle servers).
    windows:
        Optional explicit activity windows ``(start, end)`` in dataset
        seconds.  ``None`` means "whenever the host is up and the
        service is alive".  Windows outside the service lifetime are
        clipped at generation time.
    client_pool:
        Number of distinct client addresses that ever contact the
        service; arrivals draw from this pool with a Zipf preference so
        popular services also have many unique clients (the paper's
        client-weighted metric).
    """

    base_rate: float = 0.0
    windows: tuple[tuple[float, float], ...] | None = None
    client_pool: int = 1

    def __post_init__(self) -> None:
        if self.base_rate < 0 or not math.isfinite(self.base_rate):
            raise ValueError(f"base_rate must be finite and >= 0: {self.base_rate}")
        if self.client_pool < 1:
            raise ValueError(f"client_pool must be >= 1: {self.client_pool}")
        if self.windows is not None:
            for start, end in self.windows:
                if end <= start:
                    raise ValueError(f"empty activity window: ({start}, {end})")

    @property
    def is_silent(self) -> bool:
        """True when the service never receives legitimate traffic."""
        return self.base_rate == 0.0

    def active_windows(self, start: float, end: float) -> list[tuple[float, float]]:
        """Return the activity windows intersected with ``[start, end)``."""
        if self.windows is None:
            return [(start, end)] if end > start else []
        out: list[tuple[float, float]] = []
        for w_start, w_end in self.windows:
            lo, hi = max(w_start, start), min(w_end, end)
            if lo < hi:
                out.append((lo, hi))
        return out


@dataclass
class Service:
    """One service endpoint on one host.

    Attributes
    ----------
    host_id:
        Identifier of the owning host.
    port, proto:
        The endpoint.
    activity:
        Legitimate client arrival pattern.
    birth:
        Dataset time at which the service starts listening.  0.0 means
        it predates the study.
    death:
        Time at which it stops listening, or ``None`` for "never".
    blocks_external_probes:
        Drop unsolicited probes (external scans) while still serving
        legitimate clients and internal probes.  This is the paper's
        hidden-MySQL behaviour (Section 4.4.3) and the reason some idle
        servers are never unveiled by external scans.
    web_category:
        For HTTP services, the root-page content category
        (:class:`repro.campus.webpages.PageCategory` value); None
        otherwise.
    web_page:
        The rendered root-page HTML (set at synthesis time for HTTP
        services; what the Table 5 fetcher downloads).
    """

    host_id: int
    port: int
    proto: int = PROTO_TCP
    activity: ActivityPattern = field(default_factory=ActivityPattern)
    birth: float = 0.0
    death: float | None = None
    blocks_external_probes: bool = False
    web_category: str | None = None
    web_page: str | None = None
    #: For UDP services: whether the implementation answers a generic
    #: (malformed) probe with a UDP reply.  DNS and NetBIOS mostly do;
    #: game servers mostly do not (paper Section 4.5).
    udp_generic_responder: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.port <= 0xFFFF:
            raise ValueError(f"port out of range: {self.port}")
        if self.death is not None and self.death <= self.birth:
            raise ValueError(
                f"service death ({self.death}) must follow birth ({self.birth})"
            )

    def alive_at(self, t: float) -> bool:
        """True when the service is listening at time *t*."""
        if t < self.birth:
            return False
        if self.death is not None and t >= self.death:
            return False
        return True

    def lifetime_windows(self, start: float, end: float) -> list[tuple[float, float]]:
        """Return the single lifetime window clipped to ``[start, end)``."""
        lo = max(self.birth, start)
        hi = min(self.death if self.death is not None else end, end)
        return [(lo, hi)] if lo < hi else []
