"""Per-link tables: the partial-perspective study (paper Section 5.2).

The university's traffic splits across two commercial peerings and
Internet2.  :class:`MultiLinkMonitor` keeps one passive table per link
plus a combined one, fed in one pass, and answers Table 8's questions:
how many servers does each link see, and how many are *exclusive* to
it.

Capture faults are not decided here: the pass drops a lost record
before any observer sees it (``replay_columnar(faults=)``, the stream
route).  A link's loss process advances only with that link's own
records, so the pass-level filter drops exactly what a filter on each
link's monitor would.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.passive.monitor import PassiveServiceTable


class MultiLinkMonitor:
    """One passive table per link plus a combined all-links table.

    Each table restricts itself to its links with a mask over the
    batch's link column, so every table consumes the same batch
    without a copy.
    """

    def __init__(
        self,
        links: Iterable[str],
        is_campus: Callable[[int], bool],
        tcp_ports: frozenset[int] | None,
        udp_ports: frozenset[int] = frozenset(),
    ) -> None:
        self.taps: dict[str, PassiveServiceTable] = {
            link: PassiveServiceTable(
                is_campus=is_campus,
                tcp_ports=tcp_ports,
                udp_ports=udp_ports,
                links=frozenset({link}),
            )
            for link in links
        }
        self.combined = PassiveServiceTable(
            is_campus=is_campus,
            tcp_ports=tcp_ports,
            udp_ports=udp_ports,
            links=frozenset(self.taps),
        )

    def observe_columns(self, cols) -> None:
        """The combined table and every per-link table consume the batch."""
        self.combined.observe_columns(cols)
        for tap in self.taps.values():
            tap.observe_columns(cols)

    # ---- Table 8 queries --------------------------------------------

    def servers_on_link(self, link: str) -> set[int]:
        """Server addresses with evidence on *link* (possibly elsewhere too)."""
        return self.taps[link].server_addresses()

    def exclusive_to_link(self, link: str) -> set[int]:
        """Server addresses whose *only* evidence crossed *link*."""
        own = self.servers_on_link(link)
        others: set[int] = set()
        for other_link, tap in self.taps.items():
            if other_link != link:
                others |= tap.server_addresses()
        return own - others

    def total_servers(self) -> set[int]:
        """Server addresses seen on any monitored link."""
        return self.combined.server_addresses()
