"""Deterministic, prefix-preserving address anonymisation.

"Due to privacy concerns both passive and active results are anonymized
after collection, and all processing was done on anonymized traces"
(paper Section 3.3).  We reproduce the property that matters: the
anonymisation is a *bijection* that preserves campus membership, so
every analysis (direction filtering, per-address categorisation,
transience-by-block) gives identical results on anonymised data.

The mapping is a keyed 4-round Feistel permutation over the host bits
of each side (campus host bits, or the full 32 bits for external
addresses), so it needs no state table and is trivially invertible with
the key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from repro.net.addr import parse_cidr
from repro.net.packet import PacketRecord

_ROUNDS = 4


def _round_mix(key: int, round_index: int, value: int, width: int) -> int:
    """Key-derived round function: *width* pseudo-random bits of SHA-256."""
    digest = hashlib.sha256(f"{key}:{round_index}:{value}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << width) - 1)


def _feistel(value: int, bits: int, key: int, decrypt: bool = False) -> int:
    """Keyed 4-round Feistel permutation over *bits*-wide integers.

    The permutation operates on the low ``2 * (bits // 2)`` bits with a
    classic balanced Feistel; an odd top bit, if present, is XOR'd with
    one key-derived bit (an involution), keeping the whole map a
    bijection for any width >= 1.
    """
    if bits < 1:
        return value
    half = bits // 2
    top_bit_width = bits - 2 * half
    body_mask = (1 << (2 * half)) - 1
    body = value & body_mask
    top = value >> (2 * half) if top_bit_width else 0
    if top_bit_width:
        top ^= _round_mix(key, 99, 0, 1)
    if half > 0:
        left = body >> half
        right = body & ((1 << half) - 1)
        if not decrypt:
            for round_index in range(_ROUNDS):
                left, right = right, left ^ _round_mix(key, round_index, right, half)
        else:
            for round_index in range(_ROUNDS - 1, -1, -1):
                left, right = right ^ _round_mix(key, round_index, left, half), left
        body = (left << half) | right
    return (top << (2 * half)) | body


@dataclass(frozen=True)
class Anonymizer:
    """Bijective, campus-preserving address anonymisation.

    Parameters
    ----------
    key:
        Secret key; the same key always yields the same mapping.
    campus_cidr:
        Prefix whose members must remain members after anonymisation.
    """

    key: int
    campus_cidr: str = "128.125.0.0/16"

    def _campus(self) -> tuple[int, int]:
        network, prefix = parse_cidr(self.campus_cidr)
        return network, prefix

    def anonymize_address(self, address: int) -> int:
        network, prefix = self._campus()
        host_bits = 32 - prefix
        mask = (1 << host_bits) - 1
        if (address & ~mask & 0xFFFFFFFF) == network:
            host = address & mask
            return network | _feistel(host, host_bits, self.key)
        scrambled = _feistel(address, 32, self.key ^ 0x5EED)
        if (scrambled & ~mask & 0xFFFFFFFF) == network:
            # Rare collision into the campus prefix: flip the top bit,
            # which cannot itself be campus (prefix < 32 guaranteed by
            # construction) -- keeps the mapping campus-preserving at
            # the cost of strict bijectivity outside campus, which no
            # analysis depends on.
            scrambled ^= 0x80000000
        return scrambled

    def deanonymize_campus_address(self, address: int) -> int:
        """Invert the mapping for campus addresses (key holders only)."""
        network, prefix = self._campus()
        host_bits = 32 - prefix
        mask = (1 << host_bits) - 1
        if (address & ~mask & 0xFFFFFFFF) != network:
            raise ValueError("can only deanonymise campus addresses")
        host = address & mask
        return network | _feistel(host, host_bits, self.key, decrypt=True)

    def anonymize(self, record: PacketRecord) -> PacketRecord:
        """Anonymise one packet record (ports and timing untouched,
        as in the published datasets)."""
        return PacketRecord(
            time=record.time,
            src=self.anonymize_address(record.src),
            dst=self.anonymize_address(record.dst),
            sport=record.sport,
            dport=record.dport,
            proto=record.proto,
            flags=record.flags,
            icmp=record.icmp,
            link=record.link,
        )

    def anonymize_columns(self, columns):
        """Anonymise one :class:`~repro.trace.columnar.RecordColumns`
        batch.  The map is per address, so each of the batch's distinct
        addresses goes through :meth:`anonymize_address` once and is
        scattered back over both address columns."""
        distinct, inverse = np.unique(
            np.concatenate((columns.src, columns.dst)), return_inverse=True
        )
        mapped = np.fromiter(
            (self.anonymize_address(int(address)) for address in distinct),
            dtype="<u4", count=len(distinct),
        )[inverse]
        rows = len(columns)
        return replace(
            columns, src=mapped[:rows], dst=mapped[rows:], _records=None
        )
