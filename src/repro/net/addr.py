"""IPv4 addresses and address blocks.

Addresses are stored as plain ``int`` (0 .. 2**32-1) throughout.
:class:`AddressBlock` models a contiguous allocation (a CIDR block,
possibly with a few reserved addresses carved out) with an *address
class* -- static, DHCP, PPP, VPN or wireless -- because the paper's
transience analysis (Section 4.4.2) is driven entirely by which block
an address belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

MAX_IPV4 = 2**32 - 1


class AddressClass(str, Enum):
    """Allocation class of an address block (paper Section 4.4.2)."""

    STATIC = "static"
    DHCP = "dhcp"
    PPP = "ppp"
    VPN = "vpn"
    WIRELESS = "wireless"
    EXTERNAL = "external"

    @property
    def is_transient(self) -> bool:
        """True for blocks whose host-to-address mapping changes over time."""
        return self in (
            AddressClass.DHCP,
            AddressClass.PPP,
            AddressClass.VPN,
            AddressClass.WIRELESS,
        )


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad *text* into an integer address.

    Raises
    ------
    ValueError
        If the text is not a well-formed dotted quad.
    """
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted-quad IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"non-numeric octet in {text!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ipv4(value: int) -> str:
    """Format integer *value* as a dotted quad."""
    if not 0 <= value <= MAX_IPV4:
        raise ValueError(f"address out of range: {value}")
    return "%d.%d.%d.%d" % (
        value >> 24, (value >> 16) & 0xFF, (value >> 8) & 0xFF, value & 0xFF
    )


def parse_cidr(text: str) -> tuple[int, int]:
    """Parse ``a.b.c.d/n`` into ``(network_int, prefix_len)``.

    The host bits of the network address must be zero.
    """
    if "/" not in text:
        raise ValueError(f"not CIDR notation: {text!r}")
    addr_text, _, prefix_text = text.partition("/")
    network = parse_ipv4(addr_text)
    if not prefix_text.isdigit():
        raise ValueError(f"bad prefix length in {text!r}")
    prefix = int(prefix_text)
    if not 0 <= prefix <= 32:
        raise ValueError(f"prefix length out of range in {text!r}")
    host_bits = 32 - prefix
    if host_bits and network & ((1 << host_bits) - 1):
        raise ValueError(f"host bits set in network address: {text!r}")
    return network, prefix


@dataclass(frozen=True)
class AddressBlock:
    """A contiguous allocation of addresses with an allocation class.

    Parameters
    ----------
    name:
        Human-readable block name (e.g. ``"dhcp-resnet"``).
    cidr:
        CIDR notation for the block.
    address_class:
        One of :class:`AddressClass`.
    reserved:
        Number of addresses at the *start* of the block withheld from
        hosts (network/gateway/broadcast and infrastructure), so the
        usable count can be calibrated exactly to the paper's figures.
    """

    name: str
    cidr: str
    address_class: AddressClass
    reserved: int = 0
    _bounds: tuple[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        network, prefix = parse_cidr(self.cidr)
        size = 1 << (32 - prefix)
        if self.reserved < 0 or self.reserved >= size:
            raise ValueError(
                f"reserved count {self.reserved} invalid for /{prefix} block"
            )
        object.__setattr__(self, "_bounds", (network + self.reserved, network + size))

    @property
    def first(self) -> int:
        """First usable address (integer)."""
        return self._bounds[0]

    @property
    def last(self) -> int:
        """Last usable address (integer, inclusive)."""
        return self._bounds[1] - 1

    @property
    def size(self) -> int:
        """Number of usable addresses."""
        return self._bounds[1] - self._bounds[0]

    @property
    def is_transient(self) -> bool:
        return self.address_class.is_transient

    def __contains__(self, address: int) -> bool:
        lo, hi = self._bounds
        return lo <= int(address) < hi

    def addresses(self) -> Iterator[int]:
        """Iterate over all usable addresses in the block."""
        lo, hi = self._bounds
        return iter(range(lo, hi))

    def at(self, offset: int) -> int:
        """Return the usable address at *offset* (0-based)."""
        if not 0 <= offset < self.size:
            raise IndexError(
                f"offset {offset} out of range for block {self.name} "
                f"of size {self.size}"
            )
        return self.first + offset


class AddressSpace:
    """An ordered collection of non-overlapping :class:`AddressBlock`.

    Provides the class lookups the analyses need ("is this address
    transient?", "which block is it in?") in O(log n).
    """

    def __init__(self, blocks: list[AddressBlock]) -> None:
        ordered = sorted(blocks, key=lambda b: b.first)
        for earlier, later in zip(ordered, ordered[1:]):
            if earlier.last >= later.first:
                raise ValueError(
                    f"address blocks overlap: {earlier.name} and {later.name}"
                )
        self.blocks = ordered
        self._starts = [b.first for b in ordered]

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def size(self) -> int:
        """Total usable addresses across all blocks."""
        return sum(b.size for b in self.blocks)

    def block_of(self, address: int) -> AddressBlock | None:
        """Return the block containing *address*, or None."""
        import bisect

        index = bisect.bisect_right(self._starts, int(address)) - 1
        if index < 0:
            return None
        block = self.blocks[index]
        return block if address in block else None

    def class_of(self, address: int) -> AddressClass | None:
        """Return the :class:`AddressClass` of *address*, or None."""
        block = self.block_of(address)
        return block.address_class if block is not None else None

    def is_transient(self, address: int) -> bool:
        """True when *address* lies in a transient (DHCP/PPP/VPN/wireless) block."""
        block = self.block_of(address)
        return block is not None and block.is_transient

    def addresses(self) -> Iterator[int]:
        """Iterate all usable addresses across all blocks, ascending."""
        for block in self.blocks:
            yield from block.addresses()

    def blocks_of_class(self, address_class: AddressClass) -> list[AddressBlock]:
        """Return all blocks with the given class."""
        return [b for b in self.blocks if b.address_class is address_class]
