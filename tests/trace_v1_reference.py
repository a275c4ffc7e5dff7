"""Reference encoder for trace format v1.

``src/`` only *reads* v1 now (the structured-dtype branch of
``read_trace_columns``), so the tests carry the definition of what a v1
file is: the shared 16-byte header with version 1, then one packed
24-byte record per packet.
"""

import struct

from repro.net.packet import ICMP_PORT_UNREACHABLE

_HEADER = struct.Struct("<4sHHQ")
_RECORD = struct.Struct("<dIIHHBBBB")
_LINKS = ("", "commercial1", "commercial2", "internet2")


def v1_trace_bytes(records) -> bytes:
    body = b"".join(
        _RECORD.pack(
            r.time, r.src, r.dst, r.sport, r.dport, r.proto, int(r.flags),
            _LINKS.index(r.link), int(r.icmp == ICMP_PORT_UNREACHABLE),
        )
        for r in records
    )
    return _HEADER.pack(b"RPRT", 1, 0, len(records)) + body
