"""Tests for link taps and window activity observers."""

import pytest

from repro.net.packet import tcp_synack, udp_datagram
from tests.passive_reference import (
    ReferenceLinkTap,
    ReferenceMultiLinkMonitor,
    ReferenceWindowActivityObserver,
)

CAMPUS = 0x80_7D_00_00
OUTSIDE = 0x10_00_00_00


def is_campus(address: int) -> bool:
    return (address >> 16) == (CAMPUS >> 16)


class TestMultiLinkMonitor:
    def _monitor(self):
        return ReferenceMultiLinkMonitor(
            links=("commercial1", "commercial2", "internet2"),
            is_campus=is_campus,
            tcp_ports=frozenset({80}),
        )

    def test_per_link_attribution(self):
        monitor = self._monitor()
        monitor.observe(
            tcp_synack(1.0, CAMPUS + 1, OUTSIDE + 1, 80, 40000, "commercial1")
        )
        monitor.observe(
            tcp_synack(2.0, CAMPUS + 2, OUTSIDE + 2, 80, 40000, "internet2")
        )
        assert monitor.servers_on_link("commercial1") == {CAMPUS + 1}
        assert monitor.servers_on_link("internet2") == {CAMPUS + 2}
        assert monitor.total_servers() == {CAMPUS + 1, CAMPUS + 2}

    def test_exclusive(self):
        monitor = self._monitor()
        # Server 1 on both commercial links; server 2 only on c1.
        monitor.observe(
            tcp_synack(1.0, CAMPUS + 1, OUTSIDE + 1, 80, 40000, "commercial1")
        )
        monitor.observe(
            tcp_synack(2.0, CAMPUS + 1, OUTSIDE + 2, 80, 40000, "commercial2")
        )
        monitor.observe(
            tcp_synack(3.0, CAMPUS + 2, OUTSIDE + 3, 80, 40000, "commercial1")
        )
        assert monitor.exclusive_to_link("commercial1") == {CAMPUS + 2}
        assert monitor.exclusive_to_link("commercial2") == set()

    def test_unknown_link_packet_only_in_combined(self):
        monitor = self._monitor()
        monitor.observe(tcp_synack(1.0, CAMPUS + 1, OUTSIDE + 1, 80, 40000, ""))
        # No tap claims it; the combined table (restricted to known
        # links) ignores it as well.
        assert monitor.total_servers() == set()

    def test_linktap_create(self):
        tap = ReferenceLinkTap.create("commercial1", is_campus, frozenset({80}))
        tap.observe(tcp_synack(1.0, CAMPUS + 1, OUTSIDE + 1, 80, 40000, "commercial1"))
        tap.observe(tcp_synack(1.0, CAMPUS + 2, OUTSIDE + 1, 80, 40000, "commercial2"))
        assert tap.table.server_addresses() == {CAMPUS + 1}


class TestWindowActivityObserver:
    def _observer(self, windows):
        return ReferenceWindowActivityObserver(
            windows=windows,
            is_campus=is_campus,
            tcp_ports=frozenset({80}),
            udp_ports=frozenset({53}),
        )

    def test_hits_recorded_per_window(self):
        observer = self._observer([(0.0, 10.0), (20.0, 30.0)])
        observer.observe(tcp_synack(5.0, CAMPUS + 1, OUTSIDE + 1, 80, 40000))
        observer.observe(tcp_synack(25.0, CAMPUS + 1, OUTSIDE + 1, 80, 40000))
        observer.observe(tcp_synack(15.0, CAMPUS + 2, OUTSIDE + 1, 80, 40000))
        assert observer.hits[CAMPUS + 1] == {0, 1}
        assert CAMPUS + 2 not in observer.hits
        assert observer.addresses_active_in(0) == {CAMPUS + 1}
        assert observer.addresses_with_any_activity() == {CAMPUS + 1}

    def test_udp_evidence(self):
        observer = self._observer([(0.0, 10.0)])
        observer.observe(udp_datagram(1.0, CAMPUS + 3, OUTSIDE + 1, 53, 500))
        assert observer.addresses_active_in(0) == {CAMPUS + 3}

    def test_non_evidence_ignored(self):
        observer = self._observer([(0.0, 10.0)])
        observer.observe(udp_datagram(1.0, CAMPUS + 3, OUTSIDE + 1, 999, 500))
        observer.observe(tcp_synack(1.0, OUTSIDE + 1, CAMPUS + 3, 80, 40000))
        assert observer.hits == {}

    def test_unsorted_windows_rejected(self):
        with pytest.raises(ValueError):
            self._observer([(10.0, 20.0), (0.0, 5.0)])

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ValueError):
            self._observer([(0.0, 10.0), (5.0, 15.0)])
