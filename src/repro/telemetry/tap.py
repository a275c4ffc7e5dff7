"""Replay tap: a counting observer for instrumented passive passes.

When telemetry is enabled, the dataset replay chokepoint
(:meth:`repro.datasets.builder.BuiltDataset.replay`) appends a
:class:`ReplayTap` to the observer list.  The tap rides the same pass
as the real observers -- it sees exactly the records they see,
including under fault filters -- and counts what the paper's passive
analysis is made of: records per peering link, protocol mix, and
SYN-ACKs (the service-evidence signal of Section 3.2).

The tap is an *additional* observer: it never mutates records and never
changes what the other observers of the pass receive, so enabling it
cannot perturb any experiment result.  Counts accumulate in plain local
dicts during the pass and are folded into the active registry once at
the end (:meth:`ReplayTap.flush_into`), keeping the per-batch cost to
three bincounts.
"""

from __future__ import annotations

import numpy as np

from repro.net.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP

_PROTO_NAMES = {PROTO_TCP: "tcp", PROTO_UDP: "udp", PROTO_ICMP: "icmp"}


class ReplayTap:
    """Counts records flowing through one replay pass."""

    __slots__ = ("records", "synacks", "by_link", "by_proto")

    def __init__(self) -> None:
        self.records = 0
        self.synacks = 0
        self.by_link: dict[str, int] = {}
        self.by_proto: dict[int, int] = {}

    def observe_columns(self, cols) -> None:
        """Count a batch: three bincounts, no records."""
        count = len(cols)
        self.records += count
        if not count:
            return
        by_link = self.by_link
        link_counts = np.bincount(cols.link, minlength=len(cols.link_names))
        for index, link_count in enumerate(link_counts.tolist()):
            if link_count:
                link = cols.link_names[index]
                by_link[link] = by_link.get(link, 0) + link_count
        by_proto = self.by_proto
        proto_values, proto_counts = np.unique(cols.proto, return_counts=True)
        for proto, proto_count in zip(
            proto_values.tolist(), proto_counts.tolist()
        ):
            by_proto[proto] = by_proto.get(proto, 0) + proto_count
        tcp = cols.proto == PROTO_TCP
        self.synacks += int(((cols.flags & 0x12) == 0x12)[tcp].sum())

    def flush_into(self, registry) -> None:
        """Fold this pass's counts into *registry* (once, at pass end)."""
        registry.counter(
            "repro_passive_records_total",
            "Packet records delivered to passive observers.",
        ).inc(self.records)
        registry.counter(
            "repro_passive_synacks_total",
            "SYN-ACK records seen by passive observers (service evidence).",
        ).inc(self.synacks)
        for link, count in self.by_link.items():
            registry.counter(
                "repro_passive_link_records_total",
                "Packet records per peering link.",
                link=link or "unknown",
            ).inc(count)
        for proto, count in self.by_proto.items():
            registry.counter(
                "repro_passive_protocol_records_total",
                "Packet records per IP protocol.",
                proto=_PROTO_NAMES.get(proto, str(proto)),
            ).inc(count)
