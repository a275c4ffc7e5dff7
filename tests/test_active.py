"""Tests for the active probing layer."""

import pytest

from repro.active import prober
from repro.active.prober import HalfOpenScanner
from repro.active.results import (
    ProbeOutcomeCounts,
    first_open_times,
    union_open_endpoints,
)
from repro.active.schedule import ScanScheduleBuilder, scan_start_times
from repro.active.udp_scan import GenericUdpProber
from repro.campus.host import ProbeOutcome
from repro.campus.population import synthesize_population
from repro.campus.profiles import semester_profile
from repro.net.addr import AddressClass
from repro.net.ports import SELECTED_TCP_PORTS, SELECTED_UDP_PORTS
from repro.simkernel.clock import Calendar, days, hours
from tests.active_reference import counts_row


@pytest.fixture(scope="module")
def population():
    return synthesize_population(
        semester_profile(scale=0.05), seed=31, duration=days(18)
    )


@pytest.fixture(scope="module")
def targets(population):
    space = population.topology.space
    return [
        a for a in space.addresses()
        if space.class_of(a) is not AddressClass.WIRELESS
    ]


class TestHalfOpenScanner:
    def test_scan_produces_report(self, population, targets):
        scanner = HalfOpenScanner(population)
        report = scanner.scan(targets, SELECTED_TCP_PORTS, start=hours(1),
                              duration=hours(2), scan_id=3)
        assert report.scan_id == 3
        assert report.duration == hours(2)
        assert report.counts.total == len(targets) * len(SELECTED_TCP_PORTS)
        assert report.opens

    def test_probe_times_within_sweep(self, population, targets):
        scanner = HalfOpenScanner(population)
        report = scanner.scan(targets, SELECTED_TCP_PORTS, start=hours(1),
                              duration=hours(2))
        for t, _, _ in report.opens:
            assert hours(1) <= t < hours(3)

    def test_opens_match_ground_truth(self, population, targets):
        """Every reported open endpoint must be a live, reachable,
        non-firewalled service at probe time -- no false positives."""
        scanner = HalfOpenScanner(population)
        report = scanner.scan(targets, SELECTED_TCP_PORTS, start=hours(1),
                              duration=hours(2))
        for t, address, port in report.opens:
            host = population.occupant_host(address, t)
            assert host is not None
            assert host.tcp_probe_response(port, t, internal=True) is ProbeOutcome.SYNACK

    def test_parallelism_speeds_probe_times(
        self, population, targets, monkeypatch
    ):
        two = HalfOpenScanner(population).scan(
            targets, (80,), start=0.0, duration=hours(2)
        )
        monkeypatch.setattr(prober, "MACHINES", 1)
        one = HalfOpenScanner(population).scan(
            targets, (80,), start=0.0, duration=hours(2)
        )
        # With two machines, the second half of the space is probed
        # starting immediately rather than an hour in.  (The *sets* may
        # differ slightly: transient hosts are up at different probe
        # instants.)
        one_times = {a: t for t, a, _ in one.opens}
        two_times = {a: t for t, a, _ in two.opens}
        shared = set(one_times) & set(two_times)
        later_half = [a for a in shared if a >= targets[len(targets) // 2]]
        if later_half:
            assert min(two_times[a] for a in later_half) < min(
                one_times[a] for a in later_half
            )

    def test_empty_targets_rejected(self, population):
        with pytest.raises(ValueError):
            HalfOpenScanner(population).scan([], (80,), 0.0, 100.0)

    def test_nonpositive_duration_rejected(self, population, targets):
        with pytest.raises(ValueError):
            HalfOpenScanner(population).scan(targets, (80,), 0.0, 0.0)

    def test_responding_addresses_superset_of_opens(self, population, targets):
        report = HalfOpenScanner(population).scan(
            targets, SELECTED_TCP_PORTS, start=0.0, duration=hours(2)
        )
        assert report.open_addresses() <= report.responding_addresses

    def test_mixed_response_detects_service_scope_firewalls(self, population, targets):
        report = HalfOpenScanner(population).scan(
            targets, SELECTED_TCP_PORTS, start=0.0, duration=hours(2)
        )
        # Firewalled (service-scope, blocks_internal) hosts are the
        # natural members of the mixed set.
        fw_hosts = [
            h for h in population.hosts.values()
            if h.firewall.blocks_internal and h.services
            and h.static_address is not None
            and h.firewall.scope.value == "service"
        ]
        if fw_hosts:
            confirmed = {h.static_address for h in fw_hosts}
            assert confirmed & report.mixed_response_addresses


class TestResultsAggregation:
    def test_union_and_first_open(self, population, targets):
        scanner = HalfOpenScanner(population)
        first = scanner.scan(targets, (80,), start=0.0, duration=hours(1), scan_id=0)
        second = scanner.scan(targets, (80,), start=hours(12), duration=hours(1), scan_id=1)
        union = union_open_endpoints([first, second])
        assert union >= first.open_endpoints()
        times = first_open_times([first, second])
        for endpoint in first.open_endpoints():
            assert times[endpoint] < hours(1)

    def test_outcome_counts(self):
        counts = ProbeOutcomeCounts()
        counts.add(ProbeOutcome.SYNACK)
        counts.add(ProbeOutcome.RST)
        counts.add(ProbeOutcome.NOTHING)
        assert (counts.synack, counts.rst, counts.nothing) == (1, 1, 1)
        assert counts.total == 3


class TestUdpProber:
    def test_scan_classification_buckets(self, population, targets):
        from repro.campus.population import attach_udp_population

        attach_udp_population(population, seed=31, scale=0.05)
        prober = GenericUdpProber(population)
        report = prober.scan(targets, SELECTED_UDP_PORTS, start=0.0, duration=hours(1))
        totals = report.totals()
        assert totals["definitely_open"] > 0
        assert totals["possibly_open"] > 0
        assert totals["definitely_closed"] > 0
        assert totals["no_response"] > 0
        # Buckets are disjoint per port.
        for port in SELECTED_UDP_PORTS:
            opens = report.definitely_open[port]
            maybe = report.possibly_open[port]
            closed = report.definitely_closed[port]
            assert not (opens & maybe) and not (opens & closed) and not (maybe & closed)

    def test_counts_row(self, population, targets):
        from repro.campus.population import attach_udp_population

        prober = GenericUdpProber(population)
        report = prober.scan(targets, (53,), start=0.0, duration=hours(1))
        row = counts_row(report, 53)
        assert set(row) == {"definitely_open", "possibly_open", "definitely_closed"}


class TestSchedule:
    def test_scan_start_times_every_12h(self):
        calendar = Calendar()  # starts 10:00
        times = scan_start_times(calendar, 0.0, days(2))
        assert times == [hours(1), hours(13), hours(25), hours(37)]

    def test_builder_subsets(self):
        builder = ScanScheduleBuilder(Calendar(), 0.0, days(4))
        full = builder.full()
        day = builder.day_only()
        night = builder.night_only()
        alternating = builder.alternating()
        assert len(full) == 8
        assert len(day) == len(night) == len(alternating) == 4
        assert set(day) <= set(full)
        assert set(night) <= set(full)
        assert set(alternating) <= set(full)
        # Alternating mixes both anchor hours.
        hours_used = {
            Calendar().to_datetime(t).hour for t in alternating
        }
        assert hours_used == {11, 23}

    def test_unknown_subset(self):
        builder = ScanScheduleBuilder(Calendar(), 0.0, days(1))
        with pytest.raises(KeyError):
            builder.subset_times("hourly")

    def test_night_scan_window_spans_midnight(self):
        calendar = Calendar()
        times = scan_start_times(calendar, 0.0, days(2))
        night = times[1]
        assert calendar.to_datetime(night).hour == 23
        # The paper's 90-120 minute sweep starting at 23:00 runs past
        # midnight into the next calendar day...
        sweep_end = night + hours(1.75)
        assert (calendar.month_day_label(sweep_end)
                != calendar.month_day_label(night))
        assert calendar.to_datetime(sweep_end).hour == 0
        # ...and the schedule still anchors the next start at 11:00,
        # 12 hours later, undisturbed by the day boundary.
        assert times[2] == night + hours(12)
        assert calendar.to_datetime(times[2]).hour == 11

    def test_start_mid_window_skips_to_next_anchor(self):
        # A run beginning after 11:00 must wait for 23:00, not probe
        # retroactively.  (Calendar zero is 10:00, so 11:00 = hours(1).)
        assert scan_start_times(Calendar(), hours(2), days(1)) == [hours(13)]

    def test_timetable_ignores_sweep_overrun(self):
        # scan_start_times is a pure timetable: starts stay 12 h apart
        # even when a budget-stretched sweep overruns the period.
        # Resolving that collision is the caller's job (the online
        # PeriodicSweepPolicy pushes overrun sweeps back to run back to
        # back -- see test_probe.py); the timetable itself must never
        # silently drop occurrences.
        times = scan_start_times(Calendar(), 0.0, days(3))
        assert len(times) == 6
        for previous, current in zip(times, times[1:]):
            assert current - previous == hours(12)
