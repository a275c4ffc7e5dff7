"""The passive service table and the observer framework.

The paper's rule (Section 3.2): "we assume that any host sending a
SYN-ACK is running a service"; for UDP, "any host which sends UDP
traffic from a well known server port is running a UDP service on that
port".  :class:`PassiveServiceTable` implements both, plus the
flow/client accumulators behind the weighted-completeness metrics and
an optional stricter handshake-confirmation signal used as an ablation.
The table is the one place that decides which record is evidence of a
service and when: it keeps each endpoint's first- *and* last-seen time.

The generator's packet stream is only approximately time-ordered (see
:mod:`repro.traffic.generator`), so first/last-seen times are kept with
``min`` / ``max`` rather than by assuming monotonicity.  Most rules are
order-insensitive; the ones that are not (HANDSHAKE confirmation,
BIDIRECTIONAL UDP, the count-budget sampler, capture faults) follow
stream order, which batches keep as row order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Iterable, Protocol

import numpy as np

from repro.net.packet import PROTO_TCP, PROTO_UDP, PacketRecord
from repro.telemetry.metrics import registry as _telemetry_registry

if TYPE_CHECKING:
    from repro.passive.sampling import FixedPeriodSampler

#: A service endpoint as the passive table keys it.
Endpoint = tuple[int, int, int]  # (address, port, proto)


class PacketObserver(Protocol):
    """Anything that can consume captured packet records.

    ``observe_columns(cols)`` consumes a
    :class:`repro.trace.columnar.RecordColumns` batch -- the only batch
    type, and the only way a pass (:func:`replay_columnar`, the
    streaming engine) reaches an observer.  Batches arrive in stream
    order, and an observer must end in the same state under any batch
    cuts.  The per-record definitions the differential tests hold each
    observer to live in ``tests/passive_reference.py``.
    """

    def observe_columns(self, cols) -> None:  # pragma: no cover
        ...


def _campus_mask(is_campus, addresses: np.ndarray) -> np.ndarray:
    """Campus membership of an address column, for any predicate.

    :meth:`repro.campus.topology.CampusTopology.campus_predicate`
    stamps its prefix parameters onto the closure, which makes the
    mask one expression; a predicate without them (tests hand in
    arbitrary lambdas) is called per address.
    """
    network = getattr(is_campus, "campus_network", None)
    mask = getattr(is_campus, "campus_mask", None)
    if network is not None and mask is not None:
        return (addresses & mask) == network
    return np.fromiter(
        (is_campus(address) for address in addresses.tolist()),
        dtype=bool, count=len(addresses),
    )


def _link_lut(link_names: tuple[str, ...], links: frozenset[str]) -> np.ndarray:
    """Boolean lookup table over link indices for a watched-links set."""
    lut = np.zeros(len(link_names), dtype=bool)
    for index, name in enumerate(link_names):
        if name in links:
            lut[index] = True
    return lut


@lru_cache(maxsize=32)
def _port_lut(ports: frozenset[int]) -> np.ndarray:
    """Read-only membership table over all 65,536 ports for a port set.

    ``_port_lut(ports)[cols.sport]`` is ``np.isin(cols.sport, ports)``
    at about half the cost; the table is 64 KiB and built once per set.
    """
    lut = np.zeros(1 << 16, dtype=bool)
    lut[list(ports)] = True
    lut.flags.writeable = False
    return lut


def replay(stream: Iterable[PacketRecord], *tables) -> int:
    """Push every record of *stream* into all *tables*; return count.

    The per-record pass over :meth:`PassiveServiceTable.observe`, which
    :func:`replay_columnar` (the one every dataset pass runs) must
    equal under any batch cuts; kept for the benchmark that times the
    record tier against the columnar one.
    """
    count = 0
    observe_methods = [table.observe for table in tables]
    for record in stream:
        for observe in observe_methods:
            observe(record)
        count += 1
    return count


def replay_columnar(
    batches,
    *observers: PacketObserver,
    faults=None,
) -> int:
    """Feed :class:`~repro.trace.columnar.RecordColumns` batches into
    all *observers*; return the record count.

    The pass every dataset replay runs: the batches are zero-copy
    views of a stored trace or generated records columnised a batch at
    a time (``BuiltDataset.column_batches``), and every observer's
    ``observe_columns`` consumes whole field arrays -- mask-based
    SYN-ACK selection, bincount accounting -- instead of record
    objects.  One pass feeds any number of observers, so analyses that
    need several views (per-link tables, sampled tables, scan
    detection) share a single traversal of the trace.

    *faults* (a :class:`repro.faults.capture.CaptureFilter`) injects
    capture loss and monitor outages: dropped records are invisible to
    *every* observer of the pass, exactly as a packet lost at the tap
    is lost for all analyses of the stored trace.  The filter's mask
    decides each link's records in stream order from that link's own
    random stream (:meth:`repro.faults.capture.CaptureFilter.keep_mask`).
    The returned count is the number of records the observers saw.

    With telemetry enabled each chunk's wall time lands in a histogram
    (one ``perf_counter`` pair per chunk of up to 65,536 records).
    """
    dispatchers = [observer.observe_columns for observer in observers]
    reg = _telemetry_registry()
    timed = reg.enabled
    if timed:
        chunk_seconds = reg.histogram(
            "repro_replay_chunk_seconds",
            "Wall time to dispatch one decoded chunk to all observers.",
        )
        chunks = reg.counter(
            "repro_replay_chunks_total",
            "Decoded chunks dispatched by batched replay.",
        )
    count = 0
    for cols in batches:
        if timed:
            chunk_start = perf_counter()
        if faults is not None:
            cols = faults.filter_columns(cols)
        if len(cols):
            for dispatch in dispatchers:
                dispatch(cols)
            count += len(cols)
        if timed:
            chunk_seconds.observe(perf_counter() - chunk_start)
            chunks.inc()
    return count


class ServiceSignal(str, Enum):
    """What counts as evidence of a TCP service."""

    SYNACK = "synack"          # the paper's choice: any SYN-ACK from campus
    HANDSHAKE = "handshake"    # ablation: SYN-ACK followed by the client's ACK


class UdpSignal(str, Enum):
    """What counts as evidence of a UDP service.

    The paper notes (Section 2.2) that "while bi-directional traffic
    positively indicates a UDP service, unidirectional traffic may
    also indicate a service ... but may also indicate unsolicited
    probe traffic".  ``SPORT`` is the paper's operational rule (any
    campus datagram sourced at a watched port); ``BIDIRECTIONAL`` is
    the stricter alternative requiring a preceding inbound request.
    """

    SPORT = "sport"
    BIDIRECTIONAL = "bidirectional"


@dataclass
class PassiveServiceTable:
    """Passive discovery state built from captured headers.

    Per endpoint the table keeps the earliest and latest evidence time
    (one rule stamps both), the flow count and the client set.

    Parameters
    ----------
    is_campus:
        Predicate deciding whether an address belongs to the monitored
        network (direction filter).
    tcp_ports:
        TCP server ports tracked; ``None`` tracks every port (the
        DTCPall study).
    udp_ports:
        UDP server ports tracked (empty for TCP-only studies).
    links:
        Peering links monitored; ``None`` monitors all.
    signal:
        TCP evidence rule (:class:`ServiceSignal`).
    exclude_sources:
        External addresses whose conversations are ignored entirely --
        the scan-removal filter of Section 4.3.
    sampler:
        Optional time filter for the fixed-period sampling study: a
        :class:`repro.passive.sampling.FixedPeriodSampler`, or anything
        else offering ``keep(t)`` and ``keep_mask(times)`` over a time
        column.
    """

    is_campus: Callable[[int], bool]
    tcp_ports: frozenset[int] | None = None
    udp_ports: frozenset[int] = frozenset()
    links: frozenset[str] | None = None
    signal: ServiceSignal = ServiceSignal.SYNACK
    udp_signal: UdpSignal = UdpSignal.SPORT
    exclude_sources: frozenset[int] = frozenset()
    sampler: FixedPeriodSampler | None = None

    #: endpoint -> earliest evidence time.
    first_seen: dict[Endpoint, float] = field(default_factory=dict)
    #: endpoint -> latest evidence time (same keys as ``first_seen``).
    last_seen: dict[Endpoint, float] = field(default_factory=dict)
    #: endpoint -> number of positive responses (flow weighting).
    flow_counts: dict[Endpoint, int] = field(default_factory=dict)
    #: endpoint -> distinct client addresses served (client weighting).
    clients: dict[Endpoint, set[int]] = field(default_factory=dict)
    #: (server, client, cport, sport) pairs awaiting the handshake ACK.
    _pending_handshake: dict[tuple[int, int, int, int], float] = field(
        default_factory=dict
    )
    #: (server, port, client) triples with an inbound UDP request seen
    #: (BIDIRECTIONAL udp_signal only).
    _udp_requests: set[tuple[int, int, int]] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.sampler is not None and not hasattr(self.sampler, "keep_mask"):
            raise TypeError(
                "sampler must offer keep(t) and keep_mask(times), "
                f"not {type(self.sampler).__name__}"
            )

    def observe(self, record: PacketRecord) -> None:
        """Feed one captured header into the table."""
        if self.links is not None and record.link not in self.links:
            return
        if self.sampler is not None and not self.sampler.keep(record.time):
            return
        if record.proto == PROTO_TCP:
            self._observe_tcp(record)
        elif record.proto == PROTO_UDP:
            self._observe_udp(record)

    # ---- columnar path ----------------------------------------------

    def observe_columns(self, cols) -> None:
        """Batch :meth:`observe`: whole-array selection masks.

        Consumes a :class:`repro.trace.columnar.RecordColumns` batch.
        Evidence selection is mask algebra over the raw field arrays
        (SYN-ACK bits, prefix membership, port sets); dict updates run
        over the batch's *distinct* endpoints via sorted group
        reductions, so per-record Python work disappears entirely.  The
        two order-dependent rules (HANDSHAKE, BIDIRECTIONAL) pair events
        within a stable sort by flow key, which keeps stream order
        inside each key's run.
        """
        if self.sampler is not None:
            sampled = self.sampler.keep_mask(cols.time)
            if not sampled.all():
                cols = cols.compress(sampled)
        proto = cols.proto
        flags = cols.flags
        src = cols.src
        dst = cols.dst
        time = cols.time
        base = None
        if self.links is not None:
            base = _link_lut(cols.link_names, self.links)[cols.link]
            if not base.any():
                return
        src_campus = _campus_mask(self.is_campus, src)
        dst_campus = _campus_mask(self.is_campus, dst)
        tcp = proto == PROTO_TCP
        if base is not None:
            tcp &= base
        exclude = None
        if self.exclude_sources:
            exclude = np.fromiter(
                self.exclude_sources, dtype=np.uint32,
                count=len(self.exclude_sources),
            )

        # SYN-ACK from a campus server to an outside client: the
        # service-evidence signal (first/last seen, min/max per batch).
        synack = tcp & ((flags & 0x12) == 0x12)
        synack &= src_campus & ~dst_campus
        if exclude is not None:
            synack &= ~np.isin(dst, exclude)
        if self.tcp_ports is not None:
            synack &= _port_lut(self.tcp_ports)[cols.sport]
        if self.signal is ServiceSignal.SYNACK:
            index = np.flatnonzero(synack)
            if index.size:
                keys = (
                    src[index].astype(np.uint64) << np.uint64(16)
                ) | cols.sport[index]
                self._stamp_columns(keys, time[index], PROTO_TCP)

        # Bare ACK from an outside client to a campus server: the
        # flow/client popularity accounting.
        ack = tcp & ((flags & 0x12) == 0x10)
        ack &= ~src_campus & dst_campus
        if exclude is not None:
            ack &= ~np.isin(src, exclude)
        if self.tcp_ports is not None:
            ack &= _port_lut(self.tcp_ports)[cols.dport]
        index = np.flatnonzero(ack)
        if index.size:
            keys = (
                dst[index].astype(np.uint64) << np.uint64(16)
            ) | cols.dport[index]
            self._count_columns(keys, src[index], PROTO_TCP)
        if self.signal is ServiceSignal.HANDSHAKE:
            self._confirm_handshakes(cols, synack, ack)

        # Outbound datagram from a watched UDP server port: evidence and
        # accounting in one selection (BIDIRECTIONAL: answered ones only).
        if self.udp_ports:
            udp = proto == PROTO_UDP
            if base is not None:
                udp &= base
            lut = _port_lut(self.udp_ports)
            reply = udp & src_campus & ~dst_campus & lut[cols.sport]
            if exclude is not None:
                reply &= ~np.isin(dst, exclude)
            if self.udp_signal is UdpSignal.BIDIRECTIONAL:
                request = udp & ~src_campus & dst_campus & lut[cols.dport]
                if exclude is not None:
                    request &= ~np.isin(src, exclude)
                reply = self._answered(cols, request, reply)
            index = np.flatnonzero(reply)
            if index.size:
                keys = (
                    src[index].astype(np.uint64) << np.uint64(16)
                ) | cols.sport[index]
                self._stamp_columns(keys, time[index], PROTO_UDP)
                self._count_columns(keys, dst[index], PROTO_UDP)

    def _confirm_handshakes(self, cols, synack, ack) -> None:
        """HANDSHAKE evidence: a SYN-ACK confirmed by the next ACK.

        Both selections become events keyed by (server, client, cport,
        sport) in one stable sort, so each key's events keep stream
        order.  An ACK confirms when the event just before it is a
        SYN-ACK -- or, first in its run, when the key is pending from an
        earlier batch -- and stamps the earlier of the two times.  Each
        run's last event decides what stays pending.
        """
        rows = np.flatnonzero(synack | ack)
        if not rows.size:
            return
        offer = synack[rows]
        src = cols.src[rows]
        dst = cols.dst[rows]
        sport = cols.sport[rows]
        dport = cols.dport[rows]
        hosts = (
            np.where(offer, src, dst).astype(np.uint64) << np.uint64(32)
        ) | np.where(offer, dst, src)
        ports = (
            np.where(offer, dport, sport).astype(np.uint32) << 16
        ) | np.where(offer, sport, dport)
        order = np.lexsort((ports, hosts))
        hosts, ports, offer = hosts[order], ports[order], offer[order]
        times = cols.time[rows][order]
        starts = np.r_[
            True, (hosts[1:] != hosts[:-1]) | (ports[1:] != ports[:-1])
        ]
        ends = np.r_[starts[1:], True]
        paired = np.flatnonzero(~offer & ~starts & np.r_[False, offer[:-1]])
        if paired.size:
            keys = (
                (hosts[paired] >> np.uint64(32)) << np.uint64(16)
            ) | (ports[paired] & 0xFFFF)
            self._stamp_columns(
                keys, np.minimum(times[paired - 1], times[paired]), PROTO_TCP
            )
        # Per key run in Python: a leading ACK meets what an earlier
        # batch left pending, and the last event sets what a later one
        # finds.
        lead = starts & ~offer
        touched = np.flatnonzero(lead | ends)
        edge = hosts[touched]
        wire = ports[touched]
        pending = self._pending_handshake
        for key, t, leads, last, offered in zip(
            zip(
                (edge >> np.uint64(32)).tolist(),
                (edge & np.uint64(0xFFFFFFFF)).tolist(),
                (wire >> 16).tolist(), (wire & 0xFFFF).tolist(),
            ),
            times[touched].tolist(), lead[touched].tolist(),
            ends[touched].tolist(), offer[touched].tolist(),
        ):
            if leads:
                seen = pending.pop(key, None)
                if seen is not None:
                    self._stamp((key[0], key[3], PROTO_TCP), min(seen, t))
            if last:
                if offered:
                    pending[key] = t
                else:
                    pending.pop(key, None)

    def _answered(self, cols, request, reply) -> np.ndarray:
        """BIDIRECTIONAL UDP: the *reply* rows some request preceded.

        Requests and replies become events keyed by (server, port,
        client) in one stable sort, so each key's events keep stream
        order; a reply counts when a request comes before it in its run
        or its key was requested in an earlier batch.
        """
        answered = np.zeros(len(cols), dtype=bool)
        rows = np.flatnonzero(request | reply)
        if not rows.size:
            return answered
        asks = request[rows]
        src = cols.src[rows]
        dst = cols.dst[rows]
        endpoints = (
            np.where(asks, dst, src).astype(np.uint64) << np.uint64(16)
        ) | np.where(asks, cols.dport[rows], cols.sport[rows])
        clients = np.where(asks, src, dst)
        order = np.lexsort((clients, endpoints))
        endpoints, clients, asks = endpoints[order], clients[order], asks[order]
        starts = np.r_[
            True,
            (endpoints[1:] != endpoints[:-1]) | (clients[1:] != clients[:-1]),
        ]
        firsts = np.flatnonzero(starts)
        run = np.cumsum(starts) - 1
        asked = np.cumsum(asks) - asks
        asked -= asked[firsts][run]
        # Runs with a reply before any request of the batch: their key
        # decides, looked up before this batch's requests join the set.
        unasked = np.flatnonzero(np.bincount(
            run[~asks & (asked == 0)], minlength=firsts.size
        ))
        known = np.zeros(firsts.size, dtype=bool)
        requests = self._udp_requests
        lead = firsts[unasked]
        for index, key in zip(unasked.tolist(), zip(
            (endpoints[lead] >> np.uint64(16)).tolist(),
            (endpoints[lead] & np.uint64(0xFFFF)).tolist(),
            clients[lead].tolist(),
        )):
            known[index] = key in requests
        asking = np.flatnonzero(asks)
        requests.update(zip(
            (endpoints[asking] >> np.uint64(16)).tolist(),
            (endpoints[asking] & np.uint64(0xFFFF)).tolist(),
            clients[asking].tolist(),
        ))
        answered[rows[order[~asks & ((asked > 0) | known[run])]]] = True
        return answered

    def _stamp_columns(
        self, keys: np.ndarray, times: np.ndarray, proto: int
    ) -> None:
        """Vectorised :meth:`_stamp` over (addr<<16|port) keys.

        Sorting by (key, time) makes each group's first row its minimum
        and its last row its maximum; only the unique keys reach Python,
        so the dict work is per distinct endpoint, not per record.
        """
        order = np.lexsort((times, keys))
        sorted_keys = keys[order]
        sorted_times = times[order]
        starts = np.flatnonzero(
            np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
        )
        first_seen = self.first_seen
        last_seen = self.last_seen
        for key, first, last in zip(
            sorted_keys[starts].tolist(),
            sorted_times[starts].tolist(),
            sorted_times[np.append(starts[1:], len(keys)) - 1].tolist(),
        ):
            endpoint = (key >> 16, key & 0xFFFF, proto)
            previous = first_seen.get(endpoint)
            if previous is None or first < previous:
                first_seen[endpoint] = first
            previous = last_seen.get(endpoint)
            if previous is None or last > previous:
                last_seen[endpoint] = last

    def _count_columns(
        self, keys: np.ndarray, clients: np.ndarray, proto: int
    ) -> None:
        """Vectorised :meth:`_count` over (addr<<16|port) keys.

        One lexsort by (key, client): flow counts are the key runs'
        lengths, and each endpoint's clients are one slice of the
        deduplicated client column, so Python work is per distinct
        endpoint.  ``set.update`` inserts the ascending slice in order:
        the insert sequence of one ``add`` per (key, client) pair, so
        each set iterates the same (checkpoints pickle that order).
        """
        order = np.lexsort((clients, keys))
        sorted_keys = keys[order]
        sorted_clients = clients[order]
        new_key = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
        fresh = new_key | np.r_[False, sorted_clients[1:] != sorted_clients[:-1]]
        starts = np.flatnonzero(new_key)
        distinct = sorted_clients[fresh].tolist()
        bounds = [*np.flatnonzero(new_key[fresh]).tolist(), len(distinct)]
        flow_counts = self.flow_counts
        for key, count, lo, hi in zip(
            sorted_keys[starts].tolist(),
            np.diff(starts, append=len(keys)).tolist(),
            bounds, bounds[1:],
        ):
            endpoint = (key >> 16, key & 0xFFFF, proto)
            flow_counts[endpoint] = flow_counts.get(endpoint, 0) + count
            self.clients.setdefault(endpoint, set()).update(distinct[lo:hi])

    # ---- TCP --------------------------------------------------------

    def _observe_tcp(self, record: PacketRecord) -> None:
        # Raw SYN/ACK bits, the same test observe_columns applies to the
        # flags column (IntFlag operators cost more than the rule).
        syn_ack_bits = record.flags._value_ & 0x12
        if syn_ack_bits == 0x12:
            if not self.is_campus(record.src) or self.is_campus(record.dst):
                return  # not a campus server answering an outside client
            if record.dst in self.exclude_sources:
                return
            if self.tcp_ports is not None and record.sport not in self.tcp_ports:
                return
            if self.signal is ServiceSignal.SYNACK:
                self._stamp((record.src, record.sport, PROTO_TCP), record.time)
            else:
                self._pending_handshake[
                    (record.src, record.dst, record.dport, record.sport)
                ] = record.time
            return
        if syn_ack_bits == 0x10:
            # A bare ACK from an outside client completes a handshake:
            # the flow/client weighting signal.  Half-open scanners
            # never send it, so scans do not inflate popularity.
            if self.is_campus(record.src) or not self.is_campus(record.dst):
                return
            if record.src in self.exclude_sources:
                return
            if self.tcp_ports is not None and record.dport not in self.tcp_ports:
                return
            self._count(record.dst, record.dport, PROTO_TCP, record.src)
            if self.signal is ServiceSignal.HANDSHAKE:
                key = (record.dst, record.src, record.sport, record.dport)
                seen = self._pending_handshake.pop(key, None)
                if seen is not None:
                    self._stamp(
                        (record.dst, record.dport, PROTO_TCP),
                        min(seen, record.time),
                    )

    # ---- UDP --------------------------------------------------------

    def _observe_udp(self, record: PacketRecord) -> None:
        if not self.udp_ports:
            return
        outbound = self.is_campus(record.src) and not self.is_campus(record.dst)
        inbound = not self.is_campus(record.src) and self.is_campus(record.dst)
        if (
            self.udp_signal is UdpSignal.BIDIRECTIONAL
            and inbound
            and record.dport in self.udp_ports
            and record.src not in self.exclude_sources
        ):
            self._udp_requests.add((record.dst, record.dport, record.src))
            return
        if not outbound:
            return
        if record.dst in self.exclude_sources:
            return
        if record.sport not in self.udp_ports:
            return
        if self.udp_signal is UdpSignal.BIDIRECTIONAL:
            key = (record.src, record.sport, record.dst)
            if key not in self._udp_requests:
                return  # unsolicited datagram: may be probe traffic
        self._stamp((record.src, record.sport, PROTO_UDP), record.time)
        self._count(record.src, record.sport, PROTO_UDP, record.dst)

    # ---- state updates ----------------------------------------------

    def _stamp(self, endpoint: Endpoint, when: float) -> None:
        """Record evidence of *endpoint* at *when*: the one place first-
        and last-seen are updated on the per-record path."""
        previous = self.first_seen.get(endpoint)
        if previous is None or when < previous:
            self.first_seen[endpoint] = when
        previous = self.last_seen.get(endpoint)
        if previous is None or when > previous:
            self.last_seen[endpoint] = when

    def _count(self, address: int, port: int, proto: int, client: int) -> None:
        endpoint = (address, port, proto)
        self.flow_counts[endpoint] = self.flow_counts.get(endpoint, 0) + 1
        self.clients.setdefault(endpoint, set()).add(client)

    # ---- results ----------------------------------------------------

    def endpoints(self) -> set[Endpoint]:
        """All (address, port, proto) endpoints with recorded evidence."""
        return set(self.first_seen)

    def server_addresses(self) -> set[int]:
        """Addresses with at least one discovered service."""
        return {address for address, _, _ in self.first_seen}

    def discovery_events(self) -> list[tuple[float, Endpoint]]:
        """(first_seen, endpoint) pairs, sorted by time."""
        return sorted((t, e) for e, t in self.first_seen.items())

    def address_discovery_events(self) -> list[tuple[float, int]]:
        """(first_seen, address) pairs, address-level, sorted by time."""
        best: dict[int, float] = {}
        for (address, _, _), t in self.first_seen.items():
            if address not in best or t < best[address]:
                best[address] = t
        return sorted((t, a) for a, t in best.items())

    def unique_clients(self, endpoint: Endpoint) -> int:
        """Number of distinct clients that got a positive response."""
        return len(self.clients.get(endpoint, ()))

    def flows(self, endpoint: Endpoint) -> int:
        """Number of positive responses sent by the endpoint."""
        return self.flow_counts.get(endpoint, 0)
