"""Tests for the dataset registry and builder."""

import pytest

from repro.datasets import build_dataset, dataset_table_rows, get_spec, registry
from repro.net.addr import AddressClass
from repro.net.ports import SELECTED_TCP_PORTS, SELECTED_UDP_PORTS
from repro.simkernel.clock import days, hours


class TestRegistry:
    def test_eight_datasets_like_table1(self):
        assert len(registry()) == 8

    def test_names_match_paper(self):
        assert set(registry()) == {
            "DTCP1", "DTCP1-90d", "DTCP1-18d", "DTCP1-12h",
            "DTCP1-18d-trans", "DTCPbreak", "DTCPall", "DUDP",
        }

    def test_main_dataset_shape(self):
        spec = get_spec("DTCP1-18d")
        assert spec.passive_seconds == days(18)
        assert spec.scan_interval_hours == 12
        assert spec.address_count == 16_130
        assert spec.ports == "tcp-selected"

    def test_subsets_point_at_parent(self):
        assert get_spec("DTCP1-12h").subset_of == "DTCP1-18d"
        assert get_spec("DTCP1-18d-trans").subset_of == "DTCP1-18d"

    def test_break_monitors_internet2(self):
        assert "internet2" in get_spec("DTCPbreak").monitored_links

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_spec("DTCP9")

    def test_table_rows_cover_all(self):
        rows = dataset_table_rows()
        assert len(rows) == 8
        assert all(len(row) == 7 for row in rows)

    def test_dtcp1_scan_window(self):
        spec = get_spec("DTCP1")
        assert spec.scan_window_seconds == days(18)
        assert spec.passive_seconds == days(90)


class TestBuiltDataset:
    def test_main_build(self, small_dtcp18):
        dataset = small_dtcp18
        assert dataset.duration == days(18)
        # Every 12 hours over 18 days starting at 11:00.
        assert len(dataset.scan_reports) == 36
        assert dataset.tcp_ports == frozenset(SELECTED_TCP_PORTS)
        assert dataset.udp_ports == frozenset()

    def test_scan_timing(self, small_dtcp18):
        first = small_dtcp18.scan_reports[0]
        assert first.start == hours(1)  # 11:00, dataset starts 10:00
        second = small_dtcp18.scan_reports[1]
        assert second.start == hours(13)

    def test_probe_targets_exclude_wireless(self, small_dtcp18):
        space = small_dtcp18.population.topology.space
        targets = set(small_dtcp18.probe_targets())
        wireless = {
            a for a in space.addresses()
            if space.class_of(a) is AddressClass.WIRELESS
        }
        assert not (targets & wireless)
        assert len(targets) == space.size - len(wireless)

    def test_transient_addresses_match_topology(self, small_dtcp18):
        space = small_dtcp18.population.topology.space
        transient = {
            address
            for block in space.blocks
            if block.is_transient
            for address in block.addresses()
        }
        assert len(transient) == 2_296

    def test_replay_deterministic(self, small_dtcp18):
        from repro.passive.monitor import PassiveServiceTable

        def run():
            table = PassiveServiceTable(
                is_campus=small_dtcp18.is_campus,
                tcp_ports=small_dtcp18.tcp_ports,
            )
            small_dtcp18.replay(table, end=days(1))
            return table.first_seen

        assert run() == run()

    def test_subset_builds_parent(self):
        subset = build_dataset("DTCP1-12h", seed=7, scale=0.04)
        assert subset.spec.name == "DTCP1-18d"

    def test_build_deterministic_in_seed(self, small_dtcp18):
        rebuilt = build_dataset("DTCP1-18d", seed=7, scale=0.04)
        assert (
            rebuilt.scan_reports[0].open_endpoints()
            == small_dtcp18.scan_reports[0].open_endpoints()
        )

    def test_different_seed_differs(self, small_dtcp18):
        other = build_dataset("DTCP1-18d", seed=8, scale=0.04)
        assert (
            other.scan_reports[0].open_endpoints()
            != small_dtcp18.scan_reports[0].open_endpoints()
        )


class TestDudpBuild:
    def test_udp_report_attached(self, small_dudp):
        assert small_dudp.udp_report is not None
        assert small_dudp.scan_reports == []
        assert small_dudp.udp_ports == frozenset(SELECTED_UDP_PORTS)

    def test_udp_buckets_populated(self, small_dudp):
        totals = small_dudp.udp_report.totals()
        assert totals["definitely_open"] > 0
        assert totals["possibly_open"] > 0


class TestAllportsBuild:
    def test_single_allports_scan(self, allports_dataset):
        assert len(allports_dataset.scan_reports) == 1
        assert allports_dataset.tcp_ports is None
        report = allports_dataset.scan_reports[0]
        ports_found = {port for _, _, port in report.opens}
        assert 22 in ports_found
        assert 135 in ports_found

    def test_scan_spans_a_day(self, allports_dataset):
        report = allports_dataset.scan_reports[0]
        assert report.duration == pytest.approx(hours(23))


class TestPassiveOnlyBuild:
    def test_dtcp90_has_no_scans(self):
        dataset = build_dataset("DTCP1-90d", seed=7, scale=0.02)
        assert dataset.scan_reports == []
        assert dataset.duration == days(90)
