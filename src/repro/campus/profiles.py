"""Campus profiles: semester, winter break, and the all-ports lab study.

A :class:`CampusProfile` bundles everything the synthesiser and the
traffic generators need to build one of the paper's populations:

* the behaviour-category table (optionally scaled down for fast tests);
* the non-server population;
* the external-scan climate (how often outsiders sweep the campus);
* the dataset's calendar start (scan time-of-day analysis needs real
  clock anchoring).

The winter-break profile models Section 5.5: the transient population
(students' laptops, VPN and dial-up use) collapses to a fraction of its
semester size while the static server population barely changes.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
from dataclasses import dataclass

from repro.campus.categories import (
    CategorySpec,
    NonServerSpec,
    semester_category_specs,
)
from repro.net.ports import PORT_FTP, PORT_HTTP, PORT_HTTPS, PORT_MYSQL, PORT_SSH

#: Address classes considered transient for profile scaling.
_TRANSIENT_CLASSES = {"dhcp", "ppp", "vpn", "wireless"}


@dataclass(frozen=True)
class ScanClimate:
    """How external parties scan the campus (Section 4.3).

    Attributes
    ----------
    major_sweeps:
        ``(day_offset, port, coverage)`` -- full-or-near-full sweeps of
        the space on given days; these create the discovery jumps in
        Figures 2 and 4.
    minor_scans_per_day:
        Poisson rate of small opportunistic scans.
    minor_port_weights:
        Port mix of the minor scans.
    minor_coverage:
        ``(low, high)`` uniform range of address-space fraction covered
        by a minor scan.
    scanner_ip_count:
        Size of the pool of distinct external scanner addresses (the
        paper identified 65 over 18 days).
    """

    major_sweeps: tuple[tuple[float, int, float], ...]
    minor_scans_per_day: float = 1.6
    minor_port_weights: tuple[tuple[int, float], ...] = (
        (PORT_HTTP, 0.55),
        (PORT_SSH, 0.20),
        (PORT_FTP, 0.12),
        (PORT_HTTPS, 0.07),
        (PORT_MYSQL, 0.06),
    )
    minor_coverage: tuple[float, float] = (0.02, 0.09)
    scanner_ip_count: int = 65


def _semester_scan_climate() -> ScanClimate:
    """The 18-day semester scan climate, anchored to the paper's jumps.

    The dataset starts 2006-09-19 at 10:00; day offsets below are in
    days from dataset start.  The paper calls out big jumps on 9-20 and
    9-23, and a campus-wide MySQL scan on 9-29 (which mostly fails
    because hidden MySQL servers drop external probes).
    """
    return ScanClimate(
        major_sweeps=(
            (1.4, PORT_HTTP, 1.0),    # 9-20: the jump to ~1,200 servers
            (3.8, PORT_SSH, 1.0),     # 9-23: second jump
            (4.1, PORT_HTTP, 0.9),
            (7.5, PORT_FTP, 1.0),
            (10.2, PORT_MYSQL, 1.0),  # 9-29: the (mostly blocked) MySQL sweep
            (13.0, PORT_SSH, 0.8),
            (15.5, PORT_HTTP, 0.9),
        ),
    )


def _break_scan_climate() -> ScanClimate:
    """Winter break: scans keep coming (scanners don't take holidays)."""
    return ScanClimate(
        major_sweeps=(
            (1.2, PORT_HTTP, 1.0),
            (3.0, PORT_FTP, 1.0),
            (4.5, PORT_SSH, 1.0),
            (6.2, PORT_MYSQL, 1.0),
            (8.0, PORT_HTTP, 0.9),
            (9.5, PORT_SSH, 0.9),
        ),
        minor_scans_per_day=2.5,
        scanner_ip_count=40,
    )


@dataclass(frozen=True)
class CampusProfile:
    """Everything needed to synthesise one campus population."""

    name: str
    category_specs: tuple[CategorySpec, ...]
    non_server: NonServerSpec
    calendar_start: _dt.datetime
    scan_climate: ScanClimate
    #: Mean outbound (campus-as-client) flows per day; exercises the
    #: monitor's direction filtering without affecting discovery.
    outbound_noise_flows_per_day: float = 400.0
    #: Global multiplier on legitimate client-arrival rates.
    activity_scale: float = 1.0

def _scale_count(count: int, scale: float) -> int:
    """Scale a category count, keeping small-but-present categories alive."""
    if scale >= 1.0 or count == 0:
        return int(round(count * scale))
    return max(1, int(round(count * scale)))


def _scale_specs(
    specs: tuple[CategorySpec, ...], scale: float, transient_scale: float = 1.0
) -> tuple[CategorySpec, ...]:
    """Scale spec counts; *transient_scale* additionally shrinks
    categories whose address mix is predominantly transient.

    Pooled ZIPF rates (and their client pools) scale with the member
    count, so per-server traffic intensity -- which the discovery-time
    analyses depend on -- is invariant under population scaling.
    """
    scaled = []
    for spec in specs:
        transient_weight = sum(
            w for cls, w in spec.address_classes if cls in _TRANSIENT_CLASSES
        )
        effective = scale * (transient_scale if transient_weight > 0.5 else 1.0)
        new_count = _scale_count(spec.count, effective)
        replacements: dict = {"count": new_count}
        if spec.rate.kind.value == "zipf" and spec.count > 0:
            ratio = new_count / spec.count
            replacements["rate"] = dataclasses.replace(
                spec.rate, total_rate=spec.rate.total_rate * ratio
            )
            replacements["client_pool"] = max(10, int(spec.client_pool * ratio))
        scaled.append(dataclasses.replace(spec, **replacements))
    return tuple(scaled)


def _scale_non_server(spec: NonServerSpec, scale: float, transient_scale: float = 1.0) -> NonServerSpec:
    ts = scale * transient_scale
    return NonServerSpec(
        static_count=int(round(spec.static_count * scale)),
        dhcp_count=int(round(spec.dhcp_count * ts)),
        ppp_count=int(round(spec.ppp_count * ts)),
        wireless_count=int(round(spec.wireless_count * ts)),
        vpn_count=int(round(spec.vpn_count * ts)),
        silent_fraction=spec.silent_fraction,
    )


def semester_profile(scale: float = 1.0) -> CampusProfile:
    """The mid-semester population behind DTCP1 and its subsets.

    Parameters
    ----------
    scale:
        Multiplier on all population counts; tests use small scales
        (e.g. 0.05) for speed.  1.0 reproduces the paper's counts.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive: {scale}")
    return CampusProfile(
        name="semester",
        category_specs=_scale_specs(semester_category_specs(), scale),
        non_server=_scale_non_server(NonServerSpec(), scale),
        calendar_start=_dt.datetime(2006, 9, 19, 10, 0, 0),
        scan_climate=_semester_scan_climate(),
    )


def break_profile(scale: float = 1.0) -> CampusProfile:
    """The winter-break population behind DTCPbreak (Section 5.5).

    Transient categories shrink to ~15 % of their semester size (most
    students are away: far fewer VPN/PPP/dorm hosts); static servers
    stay.  Client activity drops moderately.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive: {scale}")
    return CampusProfile(
        name="break",
        category_specs=_scale_specs(semester_category_specs(), scale, transient_scale=0.15),
        non_server=_scale_non_server(NonServerSpec(), scale, transient_scale=0.25),
        calendar_start=_dt.datetime(2006, 12, 16, 10, 0, 0),
        scan_climate=_break_scan_climate(),
        activity_scale=0.7,
    )


def dudp_profile(scale: float = 1.0) -> CampusProfile:
    """The population behind DUDP (Section 4.5).

    Table 7 implies roughly 9,800 addresses answered *something* during
    the UDP sweep -- well above the ~6,450 hosts the TCP study infers,
    because almost every host with an IP stack emits ICMP port
    unreachables even when it offers no TCP service.  The UDP study's
    population therefore carries a much larger live non-server mass.
    """
    base = semester_profile(scale)
    # The DHCP blocks hold 1,526 addresses and their sticky leases are
    # one-per-host for the whole dataset, so the extra live mass must
    # ride the (13,834-address) static space.
    extra = NonServerSpec(
        static_count=int(round(6_450 * scale)),
        dhcp_count=int(round(550 * scale)),
        ppp_count=int(round(120 * scale)),
        wireless_count=int(round(120 * scale)),
        vpn_count=int(round(100 * scale)),
        silent_fraction=0.12,
    )
    return dataclasses.replace(base, name="dudp", non_server=extra)


def allports_profile() -> CampusProfile:
    """Marker profile for the DTCPall lab-subnet study.

    The all-ports population is synthesised by
    :func:`repro.campus.population.synthesize_allports_population`,
    which does not use the category table; this profile exists so the
    dataset registry can treat all studies uniformly.
    """
    return CampusProfile(
        name="allports",
        category_specs=(),
        non_server=NonServerSpec(0, 0, 0, 0, 0),
        calendar_start=_dt.datetime(2006, 8, 26, 10, 0, 0),
        scan_climate=ScanClimate(
            major_sweeps=(
                (0.52, PORT_SSH, 1.0),   # the external SSH scan that finds every sshd
                (0.55, PORT_FTP, 1.0),   # ditto for FTP
                (3.0, PORT_SSH, 1.0),
                (3.2, PORT_HTTP, 1.0),
            ),
            minor_scans_per_day=1.0,
            scanner_ip_count=12,
        ),
    )
