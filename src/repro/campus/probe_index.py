"""A columnar index answering probes against the campus in bulk.

:meth:`Host.tcp_probe_response` resolves one probe; the build-time
sweeps (:mod:`repro.active`), the external scanners
(:mod:`repro.traffic.scans`) and the online prober (:mod:`repro.probe`)
issue hundreds of thousands to millions a run, most of them to
addresses nobody ever held.  :class:`ProbeResponseIndex` lays the same
state machine out as arrays -- when each address is held, and held by
a host that is up, the service table, firewall and UDP policy per host
-- and resolves a whole window of ``(address, port, time)`` probes with
a handful of array operations.

The semantics are the scalar ones exactly: every interval is half-open
(``start <= t < end``) and compared in float64 as the scalar code
compares it; composite lookups pack integers only.  ``tests/`` checks
the index against ``Host.tcp_probe_response`` /
``udp_probe_response`` and ``AddressLedger.occupant`` at every interval
edge.

A population builds its index lazily
(:attr:`~repro.campus.population.CampusPopulation.probe_index`) and
must not change afterwards.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.campus.host import FirewallScope, UdpPolicy
from repro.net.packet import PROTO_TCP, PROTO_UDP

#: Probe outcome codes, shared by both protocols: no answer (host down,
#: firewalled, unpopulated address, or a quiet UDP service); the open
#: answer (SYN-ACK / UDP reply); the closed answer (RST / ICMP
#: port-unreachable).
SILENT, OPEN, CLOSED = 0, 1, 2
_SILENT, _OPEN, _CLOSED = np.uint8(SILENT), np.uint8(OPEN), np.uint8(CLOSED)

#: Ports are 16-bit, so ``host_row * _PORT_SPAN + port`` is a unique
#: integer key for a host's service.
_PORT_SPAN = 1 << 16


class _Intervals:
    """Half-open ``[start, end)`` intervals grouped by address.

    Address group g owns intervals ``offsets[g]:offsets[g + 1]``,
    disjoint and sorted by start.
    """

    __slots__ = ("start", "end", "offsets", "depth")

    def __init__(self, spans: list[tuple[float, float]], offsets: list[int]) -> None:
        self.start = np.asarray([span[0] for span in spans], dtype=np.float64)
        self.end = np.asarray([span[1] for span in spans], dtype=np.float64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        #: Halving steps that reach across the longest group:
        #: ``2**depth - 1`` intervals.
        self.depth = int(np.diff(self.offsets).max(initial=0)).bit_length()

    def covering(
        self, group: np.ndarray, t: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per query, the interval of its group covering ``t``.

        Returns ``(covered, i)``; ``i`` is meaningful only where
        ``covered``.  A ``bisect_right`` over the starts of every
        query's own group at once, in ``self.depth`` halving steps.
        """
        start, end, offsets = self.start, self.end, self.offsets
        lo, hi = offsets[:-1][group], offsets[1:][group]
        last = lo - 1  # the last interval known to start at or before t
        for shift in reversed(range(self.depth)):
            probe = last + (1 << shift)
            started = (probe < hi) & (
                start[np.minimum(probe, len(start) - 1)] <= t
            )
            last = np.where(started, probe, last)
        covered = last >= lo
        if self.depth:
            # Where nothing started, ``last`` is -1 or another group's
            # interval: a valid index whose answer ``covered`` discards.
            covered &= t < end[last]
        return covered, last


class ProbeResponseIndex:
    """The population's probe-response state as parallel arrays."""

    def __init__(self, population) -> None:
        hosts = list(population.hosts.values())
        row_of = {host.host_id: row for row, host in enumerate(hosts)}
        ledger = population.ledger

        # Tenure: when anyone holds an address
        # (``CampusPopulation.occupant_host``).  Presence: when it
        # answers at all -- a tenure intersected with its holder's
        # liveness windows (``Host.is_up``).  max/min only select among
        # the scalar code's own bounds, so ``start <= t < end`` decides
        # exactly what the two scalar checks decide together.
        addresses = sorted(ledger.addresses_ever_used())
        up_starts = {
            host.host_id: [start for start, _ in host.up_windows]
            for host in hosts
        }
        tenures: list[tuple[float, float]] = []
        tenure_offsets = [0]
        presence: list[tuple[float, float]] = []
        presence_offsets = [0]
        holders: list[int] = []
        for address in addresses:
            for tenure in ledger.tenures_of_address(address):
                row = row_of.get(tenure.host_id)
                if row is None:
                    continue
                tenures.append((tenure.start, tenure.end))
                windows = hosts[row].up_windows
                first = max(
                    bisect.bisect_right(up_starts[tenure.host_id], tenure.start) - 1,
                    0,
                )
                for start, end in windows[first:]:
                    if start >= tenure.end:
                        break
                    if end > tenure.start:
                        presence.append(
                            (max(start, tenure.start), min(end, tenure.end))
                        )
                        holders.append(row)
            tenure_offsets.append(len(tenures))
            presence_offsets.append(len(presence))
        self.addresses = np.asarray(addresses, dtype=np.int64)
        self._tenure = _Intervals(tenures, tenure_offsets)
        self._presence = _Intervals(presence, presence_offsets)
        #: Host row holding the address during each presence interval.
        self.host = np.asarray(holders, dtype=np.int64)

        # Firewall and UDP policy, one row per host.  drops_from[internal]
        # is when the firewall starts dropping that source's probes
        # (``FirewallPolicy.drops_probe``): never, where it lets them by.
        firewalls = [host.firewall for host in hosts]
        effective_from = np.asarray(
            [fw.effective_from for fw in firewalls], dtype=np.float64
        )
        self.drops_from = {
            internal: np.where(
                np.asarray(blocks, dtype=bool), effective_from, np.inf
            )
            for internal, blocks in (
                (True, [fw.blocks_internal for fw in firewalls]),
                (False, [fw.blocks_external for fw in firewalls]),
            )
        }
        self.fw_host_scope = np.asarray(
            [fw.scope is FirewallScope.HOST for fw in firewalls], dtype=bool
        )
        self.udp_icmp = np.asarray(
            [host.udp_policy is UdpPolicy.ICMP_RESPONDER for host in hosts],
            dtype=bool,
        )

        # The (host, port) service table, one per protocol, sorted by key.
        self._services = {
            proto: self._service_table(hosts, proto)
            for proto in (PROTO_TCP, PROTO_UDP)
        }

    @staticmethod
    def _service_table(hosts, proto: int):
        rows = sorted(
            (
                row * _PORT_SPAN + service.port,
                service.birth,
                np.inf if service.death is None else service.death,
                service.blocks_external_probes,
                service.udp_generic_responder,
            )
            for row, host in enumerate(hosts)
            for service in host.services.values()
            if service.proto == proto
        )
        columns = list(zip(*rows)) if rows else [()] * 5
        return tuple(
            np.asarray(column, dtype=dtype)
            for column, dtype in zip(
                columns, (np.int64, np.float64, np.float64, bool, bool)
            )
        )

    def slots(self, addresses: np.ndarray) -> np.ndarray:
        """Presence group of each address; -1 for a never-assigned one."""
        known = self.addresses
        if not known.size:
            return np.full(len(addresses), -1, dtype=np.int64)
        slot = np.minimum(np.searchsorted(known, addresses), known.size - 1)
        return np.where(known[slot] == addresses, slot, -1)

    def occupied(self, slots: np.ndarray, when: np.ndarray) -> np.ndarray:
        """Whether a host holds address ``slots[i]`` at ``when[i]``, up or not.

        ``CampusPopulation.occupant_host(...) is not None``.  The
        lossy-probe model needs it beside :meth:`outcomes`, which reads
        SILENT both for an address nobody holds and for one whose
        holder is down: the scanner's loss draws are taken for the
        second and not for the first.
        """
        occupied = np.zeros(len(slots), dtype=bool)
        held = np.flatnonzero(slots >= 0)
        occupied[held], _ = self._tenure.covering(slots[held], when[held])
        return occupied

    def outcomes(
        self,
        slots: np.ndarray,
        ports: np.ndarray,
        when: np.ndarray,
        proto: int,
        internal: bool,
    ) -> np.ndarray:
        """Outcome code of each probe ``(slots[i], ports[i], when[i])``.

        *slots* are :meth:`slots` of the probed addresses; *proto* is
        ``PROTO_TCP`` (half-open SYN: ``Host.tcp_probe_response``) or
        ``PROTO_UDP`` (generic datagram: ``Host.udp_probe_response``).
        """
        codes = np.zeros(len(slots), dtype=np.uint8)  # SILENT

        # Someone holds the address and is up at t.
        held = np.flatnonzero(slots >= 0)
        t = when[held]
        present, interval = self._presence.covering(slots[held], t)
        keep = np.flatnonzero(present)
        if not keep.size:
            return codes
        probe, t, host = held[keep], t[keep], self.host[interval[keep]]

        # A service listens on the port at t.
        keys, birth, death, blocks_external, generic = self._services[proto]
        alive = hidden = responds = np.zeros(probe.size, dtype=bool)
        if keys.size:
            key = host * _PORT_SPAN + ports[probe]
            entry = np.minimum(np.searchsorted(keys, key), keys.size - 1)
            alive = (keys[entry] == key) & (birth[entry] <= t) & (t < death[entry])
            responds = generic[entry]
            if not internal:
                hidden = alive & blocks_external[entry]

        # TCP always answers: SYN-ACK from a listener, RST otherwise.
        # UDP answers only from a generic responder, and closed ports
        # only on hosts that emit ICMP port-unreachable.
        if proto == PROTO_UDP:
            answer = np.where(responds, _OPEN, _SILENT)
            closed = np.where(self.udp_icmp[host], _CLOSED, _SILENT)
        else:
            answer, closed = _OPEN, _CLOSED
        outcome = np.where(alive, answer, closed)
        outcome[hidden] = SILENT
        # A firewall in force hides the whole host, or (SERVICE scope)
        # only its listening ports.
        dropped = self.drops_from[internal][host] <= t
        outcome[dropped & (self.fw_host_scope[host] | alive)] = SILENT
        codes[probe] = outcome
        return codes

    def sweep_outcomes(
        self,
        slots: np.ndarray,
        ports: np.ndarray,
        when: np.ndarray,
        proto: int,
        internal: bool,
    ) -> np.ndarray:
        """Outcome codes of a sweep, one row per address.

        Row ``i`` probes address ``slots[i]`` on every one of *ports*
        at ``when[i]``; column ``j`` is the answer from ``ports[j]``.
        Only the rows of addresses somebody ever held are expanded
        into probes: a campus sweep is mostly rows that are not.
        """
        width = len(ports)
        codes = np.zeros((len(slots), width), dtype=np.uint8)  # SILENT
        held = np.flatnonzero(slots >= 0)
        codes[held] = self.outcomes(
            np.repeat(slots[held], width),
            np.tile(ports, len(held)),
            np.repeat(when[held], width),
            proto,
            internal,
        ).reshape(len(held), width)
        return codes
