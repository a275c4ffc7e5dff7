"""Per-link taps: the partial-perspective study (paper Section 5.2).

The university's traffic splits across two commercial peerings and
Internet2.  A :class:`LinkTap` is a passive table restricted to one
link; :class:`MultiLinkMonitor` runs several in one pass and answers
Table 8's questions: how many servers does each link see, and how many
are *exclusive* to it.

Both accept an optional capture-fault filter
(:class:`repro.faults.capture.CaptureFilter`): a record the filter
drops was never delivered by that link's monitor, so it is invisible
to every table fed from the tap.  With no filter (the default) the
code paths are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.net.packet import PacketRecord
from repro.passive.monitor import PassiveServiceTable, ServiceSignal


@dataclass
class LinkTap:
    """A passive monitor attached to one peering link.

    ``faults`` injects capture loss for records crossing *this* link;
    records on other links pass through untouched (the tap's table
    discards them itself) and do not advance the link's loss state.
    """

    link: str
    table: PassiveServiceTable
    faults: object | None = None

    @classmethod
    def create(
        cls,
        link: str,
        is_campus: Callable[[int], bool],
        tcp_ports: frozenset[int] | None,
        udp_ports: frozenset[int] = frozenset(),
        signal: ServiceSignal = ServiceSignal.SYNACK,
        faults: object | None = None,
    ) -> "LinkTap":
        return cls(
            link=link,
            table=PassiveServiceTable(
                is_campus=is_campus,
                tcp_ports=tcp_ports,
                udp_ports=udp_ports,
                links=frozenset({link}),
                signal=signal,
            ),
            faults=faults,
        )

    def observe(self, record: PacketRecord) -> None:
        if (
            self.faults is not None
            and record.link == self.link
            and not self.faults.keep(record)
        ):
            return
        self.table.observe(record)

    def observe_columns(self, cols) -> None:
        """Batch :meth:`observe` (the table filters by link).

        A tap-level fault filter must see exactly this link's records
        in stream order: the batch is compressed to them before
        filtering (the table would discard the others anyway).
        """
        if self.faults is not None:
            if self.link not in cols.link_names:
                return
            own = cols.link == cols.link_names.index(self.link)
            if not own.all():
                cols = cols.compress(own)
            cols = self.faults.filter_columns(cols)
            if not len(cols):
                return
        self.table.observe_columns(cols)


class MultiLinkMonitor:
    """Several link taps plus a combined all-links table, in one pass.

    A ``faults`` filter is applied once, up front, for all taps and
    the combined table together: a header lost at the capture of link
    X never reaches *any* analysis, matching how a real monitoring
    cluster shares one capture stream per link.  The taps themselves
    are created without filters so each record's fate is decided
    exactly once.
    """

    def __init__(
        self,
        links: Iterable[str],
        is_campus: Callable[[int], bool],
        tcp_ports: frozenset[int] | None,
        udp_ports: frozenset[int] = frozenset(),
        faults: object | None = None,
    ) -> None:
        self.faults = faults
        self.taps: dict[str, LinkTap] = {
            link: LinkTap.create(link, is_campus, tcp_ports, udp_ports)
            for link in links
        }
        self.combined = PassiveServiceTable(
            is_campus=is_campus,
            tcp_ports=tcp_ports,
            udp_ports=udp_ports,
            links=frozenset(self.taps),
        )

    def observe(self, record: PacketRecord) -> None:
        if self.faults is not None and not self.faults.keep(record):
            return
        self.combined.observe(record)
        tap = self.taps.get(record.link)
        if tap is not None:
            tap.observe(record)

    def observe_columns(self, cols) -> None:
        """Batch :meth:`observe`: one shared fault mask, then every tap
        and the combined table consume the same column batch (each
        table filters by link itself).

        The fault mask decides each link's records in stream order
        from that link's own random stream
        (:meth:`repro.faults.capture.CaptureFilter.keep_mask`), so the
        drop pattern matches the per-record path bit for bit.
        """
        if self.faults is not None:
            cols = self.faults.filter_columns(cols)
            if not len(cols):
                return
        self.combined.observe_columns(cols)
        for tap in self.taps.values():
            tap.observe_columns(cols)

    # ---- Table 8 queries --------------------------------------------

    def servers_on_link(self, link: str) -> set[int]:
        """Server addresses with evidence on *link* (possibly elsewhere too)."""
        return self.taps[link].table.server_addresses()

    def exclusive_to_link(self, link: str) -> set[int]:
        """Server addresses whose *only* evidence crossed *link*."""
        own = self.servers_on_link(link)
        others: set[int] = set()
        for other_link, tap in self.taps.items():
            if other_link != link:
                others |= tap.table.server_addresses()
        return own - others

    def total_servers(self) -> set[int]:
        """Server addresses seen on any monitored link."""
        return self.combined.server_addresses()
