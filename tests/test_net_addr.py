"""Tests for repro.net.addr."""

import pytest
from hypothesis import given, strategies as st

from repro.net.addr import (
    AddressBlock,
    AddressClass,
    AddressSpace,
    format_ipv4,
    parse_cidr,
    parse_ipv4,
)
from tests.net_reference import IPv4Address


class TestParseFormat:
    def test_parse_basic(self):
        assert parse_ipv4("128.125.0.1") == (128 << 24) | (125 << 16) | 1

    def test_format_basic(self):
        assert format_ipv4(parse_ipv4("10.1.2.3")) == "10.1.2.3"

    @pytest.mark.parametrize(
        "bad", ["1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1.2.3.-1", ""]
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_ipv4(bad)

    def test_format_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            format_ipv4(2**32)
        with pytest.raises(ValueError):
            format_ipv4(-1)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_roundtrip(self, value):
        assert parse_ipv4(format_ipv4(value)) == value


class TestParseCidr:
    def test_basic(self):
        network, prefix = parse_cidr("128.125.0.0/16")
        assert network == parse_ipv4("128.125.0.0")
        assert prefix == 16

    def test_host_bits_set_rejected(self):
        with pytest.raises(ValueError):
            parse_cidr("128.125.0.1/16")

    def test_missing_slash(self):
        with pytest.raises(ValueError):
            parse_cidr("128.125.0.0")

    def test_bad_prefix(self):
        with pytest.raises(ValueError):
            parse_cidr("1.0.0.0/33")

    def test_slash_32(self):
        network, prefix = parse_cidr("1.2.3.4/32")
        assert prefix == 32
        assert network == parse_ipv4("1.2.3.4")


class TestIPv4Address:
    def test_str(self):
        assert str(IPv4Address.parse("8.8.8.8")) == "8.8.8.8"

    def test_int(self):
        assert int(IPv4Address(5)) == 5

    def test_ordering(self):
        assert IPv4Address(1) < IPv4Address(2)

    def test_range_check(self):
        with pytest.raises(ValueError):
            IPv4Address(2**32)


class TestAddressBlock:
    def test_size_and_bounds(self):
        block = AddressBlock("b", "10.0.0.0/24", AddressClass.STATIC)
        assert block.size == 256
        assert block.first == parse_ipv4("10.0.0.0")
        assert block.last == parse_ipv4("10.0.0.255")

    def test_reserved_shrinks_from_front(self):
        block = AddressBlock("b", "10.0.0.0/24", AddressClass.STATIC, reserved=10)
        assert block.size == 246
        assert block.first == parse_ipv4("10.0.0.10")

    def test_contains(self):
        block = AddressBlock("b", "10.0.0.0/24", AddressClass.DHCP, reserved=2)
        assert parse_ipv4("10.0.0.2") in block
        assert parse_ipv4("10.0.0.1") not in block
        assert parse_ipv4("10.0.1.0") not in block

    def test_at(self):
        block = AddressBlock("b", "10.0.0.0/24", AddressClass.STATIC, reserved=2)
        assert block.at(0) == parse_ipv4("10.0.0.2")
        with pytest.raises(IndexError):
            block.at(254)

    def test_transience_by_class(self):
        for cls, transient in [
            (AddressClass.STATIC, False),
            (AddressClass.DHCP, True),
            (AddressClass.PPP, True),
            (AddressClass.VPN, True),
            (AddressClass.WIRELESS, True),
        ]:
            block = AddressBlock("b", "10.0.0.0/24", cls)
            assert block.is_transient is transient

    def test_reserved_out_of_range(self):
        with pytest.raises(ValueError):
            AddressBlock("b", "10.0.0.0/24", AddressClass.STATIC, reserved=256)

    def test_addresses_iterates_all(self):
        block = AddressBlock("b", "10.0.0.0/30", AddressClass.STATIC, reserved=1)
        assert list(block.addresses()) == [
            parse_ipv4("10.0.0.1"),
            parse_ipv4("10.0.0.2"),
            parse_ipv4("10.0.0.3"),
        ]


class TestAddressSpace:
    def _space(self):
        return AddressSpace(
            [
                AddressBlock("static", "10.0.0.0/24", AddressClass.STATIC),
                AddressBlock("dhcp", "10.0.1.0/24", AddressClass.DHCP),
            ]
        )

    def test_size(self):
        assert self._space().size == 512

    def test_block_of(self):
        space = self._space()
        assert space.block_of(parse_ipv4("10.0.1.5")).name == "dhcp"
        assert space.block_of(parse_ipv4("10.0.2.0")) is None
        assert space.block_of(parse_ipv4("9.255.255.255")) is None

    def test_class_of(self):
        space = self._space()
        assert space.class_of(parse_ipv4("10.0.0.1")) is AddressClass.STATIC
        assert space.class_of(parse_ipv4("10.0.3.1")) is None

    def test_is_transient(self):
        space = self._space()
        assert not space.is_transient(parse_ipv4("10.0.0.1"))
        assert space.is_transient(parse_ipv4("10.0.1.1"))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace(
                [
                    AddressBlock("a", "10.0.0.0/23", AddressClass.STATIC),
                    AddressBlock("b", "10.0.1.0/24", AddressClass.STATIC),
                ]
            )

    def test_addresses_ascending(self):
        addresses = list(self._space().addresses())
        assert addresses == sorted(addresses)
        assert len(addresses) == 512

    def test_blocks_of_class(self):
        space = self._space()
        assert [b.name for b in space.blocks_of_class(AddressClass.DHCP)] == ["dhcp"]
