"""An IPv4 address value type that only its tests use.

Every address in ``repro`` is a plain ``int`` (columns are ``uint32``
arrays); the value type lives here, beside ``tests/test_net_addr.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.addr import MAX_IPV4, format_ipv4, parse_ipv4


@dataclass(frozen=True, order=True)
class IPv4Address:
    """A single IPv4 address (value type)."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= MAX_IPV4:
            raise ValueError(f"address out of range: {self.value}")

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        return cls(parse_ipv4(text))

    def __str__(self) -> str:
        return format_ipv4(self.value)

    def __int__(self) -> int:
        return self.value
