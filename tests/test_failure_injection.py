"""Failure injection: malformed or hostile inputs must not corrupt state.

A border monitor sees whatever the Internet sends it.  These tests feed
pathological packet sequences and verify the observers stay sane, plus
builder-level misuse errors.
"""

import pytest

from repro.net.packet import (
    PROTO_TCP,
    PacketRecord,
    TcpFlags,
    tcp_syn,
    tcp_synack,
)
from repro.passive.monitor import PassiveServiceTable, ServiceSignal
from tests.passive_reference import ReferenceScanDetector

CAMPUS = 0x80_7D_00_00
OUTSIDE = 0x10_00_00_00


def is_campus(address: int) -> bool:
    return (address >> 16) == (CAMPUS >> 16)


class TestMonitorRobustness:
    def _table(self, **kwargs):
        kwargs.setdefault("tcp_ports", frozenset({80}))
        return PassiveServiceTable(is_campus=is_campus, **kwargs)

    def test_syn_rst_combination(self):
        """SYN|RST (an illegal flag combo some stacks emit) must count
        as RST, not as a connection request or response."""
        table = self._table()
        weird = PacketRecord(
            time=1.0, src=CAMPUS + 1, dst=OUTSIDE + 1,
            sport=80, dport=4000, proto=PROTO_TCP,
            flags=TcpFlags.SYN | TcpFlags.RST,
        )
        table.observe(weird)
        # RST takes precedence in our flag model; no service recorded
        # unless the SYN+ACK bits are both present.
        assert table.endpoints() == set()

    def test_synack_from_port_zero(self):
        table = self._table(tcp_ports=None)
        table.observe(
            PacketRecord(
                time=1.0, src=CAMPUS + 1, dst=OUTSIDE + 1,
                sport=0, dport=4000, proto=PROTO_TCP,
                flags=TcpFlags.SYN | TcpFlags.ACK,
            )
        )
        # Port 0 is technically recordable under all-ports mode; it
        # must not crash and must keep the table consistent.
        assert len(table.endpoints()) == 1

    def test_ack_without_synack_ignored(self):
        """A stray ACK (e.g. from an asymmetric route) must not create
        handshake-confirmed services."""
        table = self._table(signal=ServiceSignal.HANDSHAKE)
        table.observe(
            PacketRecord(
                time=1.0, src=OUTSIDE + 1, dst=CAMPUS + 1,
                sport=4000, dport=80, proto=PROTO_TCP, flags=TcpFlags.ACK,
            )
        )
        assert table.endpoints() == set()

    def test_duplicate_synacks_idempotent_for_discovery(self):
        table = self._table()
        for _ in range(100):
            table.observe(tcp_synack(5.0, CAMPUS + 1, OUTSIDE + 1, 80, 4000))
        assert len(table.endpoints()) == 1
        assert table.first_seen[(CAMPUS + 1, 80, PROTO_TCP)] == 5.0

    def test_external_to_external_ignored(self):
        table = self._table()
        table.observe(tcp_synack(1.0, OUTSIDE + 1, OUTSIDE + 2, 80, 4000))
        assert table.endpoints() == set()

    def test_icmp_records_ignored_by_tcp_table(self):
        from repro.net.packet import icmp_port_unreachable

        table = self._table()
        table.observe(icmp_port_unreachable(1.0, CAMPUS + 1, OUTSIDE + 1, 4000, 80))
        assert table.endpoints() == set()


class TestScanDetectorRobustness:
    def test_rst_storm_without_syns_harmless(self):
        """RSTs arriving for a source that never SYN'd (spoofed or
        asymmetric) must not flag anyone."""
        detector = ReferenceScanDetector(is_campus=is_campus)
        for i in range(500):
            detector.observe(
                PacketRecord(
                    time=float(i), src=CAMPUS + i, dst=OUTSIDE + 9,
                    sport=80, dport=4000, proto=PROTO_TCP, flags=TcpFlags.RST,
                )
            )
        assert detector.scanners() == set()

    def test_syn_flood_single_target(self):
        """A SYN flood against one host is not a scan (one target)."""
        detector = ReferenceScanDetector(is_campus=is_campus)
        for i in range(10_000):
            detector.observe(
                tcp_syn(float(i) * 0.001, OUTSIDE + 9, CAMPUS + 1, 4000, 80)
            )
        assert detector.scanners() == set()

    def test_negative_time_handled(self):
        """Pre-dataset timestamps (clock skew) must not crash."""
        detector = ReferenceScanDetector(is_campus=is_campus)
        detector.observe(tcp_syn(-5.0, OUTSIDE + 9, CAMPUS + 1, 4000, 80))
        assert detector.scanners() == set()


class TestBuilderMisuse:
    def test_unknown_dataset(self):
        from repro.datasets import build_dataset

        with pytest.raises(KeyError):
            build_dataset("DTCP-nope")

    def test_bad_scale(self):
        from repro.campus.profiles import semester_profile

        with pytest.raises(ValueError):
            semester_profile(scale=0.0)
        with pytest.raises(ValueError):
            semester_profile(scale=-1.0)

    def test_dtcp1_scans_limited_to_window(self):
        """DTCP1 carries 90 days of passive data but scans only within
        its first 18 days (the paper's active coverage)."""
        from repro.datasets import build_dataset
        from repro.simkernel.clock import days

        dataset = build_dataset("DTCP1", seed=1, scale=0.02)
        assert dataset.duration == days(90)
        assert dataset.scan_reports
        assert all(r.start < days(18) for r in dataset.scan_reports)
