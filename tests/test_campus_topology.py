"""Tests for repro.campus.topology -- calibrated address counts."""

import pytest

from repro.campus.topology import (
    TOTAL_ADDRESSES,
    TRANSIENT_ADDRESSES,
    build_allports_topology,
    build_topology,
)
from repro.net.addr import AddressClass, AddressSpace, parse_ipv4
from tests.campus_reference import static_addresses, transient_addresses


class TestCalibratedCounts:
    def test_total_matches_paper(self):
        topology = build_topology()
        assert topology.total_addresses == TOTAL_ADDRESSES == 16_130

    def test_transient_matches_paper(self):
        topology = build_topology()
        assert transient_addresses(topology) == TRANSIENT_ADDRESSES == 2_296

    def test_static_is_difference(self):
        topology = build_topology()
        assert static_addresses(topology) == 16_130 - 2_296

    def test_class_partition(self):
        topology = build_topology()
        by_class = {}
        for block in topology.space.blocks:
            by_class.setdefault(block.address_class, 0)
            by_class[block.address_class] += block.size
        assert by_class[AddressClass.VPN] == 254
        assert by_class[AddressClass.PPP] == 256
        assert by_class[AddressClass.WIRELESS] == 260
        assert by_class[AddressClass.DHCP] == 1526


class TestTopologyQueries:
    def test_block_lookup_by_name(self):
        topology = build_topology()
        assert topology.block("vpn").address_class is AddressClass.VPN
        with pytest.raises(KeyError):
            topology.block("no-such-block")

    def test_contains_campus_prefix(self):
        topology = build_topology()
        assert topology.contains(parse_ipv4("128.125.1.1"))
        assert not topology.contains(parse_ipv4("128.126.0.1"))
        assert not topology.contains(parse_ipv4("16.0.0.1"))

    def test_no_block_overlap(self):
        # AddressSpace construction validates; building must not raise.
        space = AddressSpace(
            build_topology().space.blocks
            + build_allports_topology().space.blocks
        )
        assert space.size == 16_130 + 256

    def test_allports_topology(self):
        topology = build_allports_topology()
        assert topology.total_addresses == 256
        assert topology.space.blocks[0].name == "lab-allports"
        # Still inside the campus prefix.
        assert topology.contains(topology.space.blocks[0].first)

    def test_addresses_all_inside_campus(self):
        topology = build_topology()
        for block in topology.space.blocks:
            assert topology.contains(block.first)
            assert topology.contains(block.last)
