"""Flows as columns: what the traffic sources write, how it becomes packets.

The generator's counterpart of :class:`~repro.net.flow.FlowRecord` and
its ``packets()``.  A source's RNG walk stays scalar -- the order of
its draws is the trace -- but what a draw lands in is a typed buffer
(:class:`FlowLog`), and everything after the draws is array code:
:func:`flow_packets` lays a whole window of flows out as the header
rows a border tap would see, one :class:`RecordColumns` at a time.
"""

from __future__ import annotations

from array import array
from typing import Generator

import numpy as np

from repro.net.packet import PROTO_TCP, TcpFlags
from repro.trace.columnar import RecordColumns

SYN = int(TcpFlags.SYN)
SYNACK = int(TcpFlags.SYN | TcpFlags.ACK)
ACK = int(TcpFlags.ACK)
RST = int(TcpFlags.RST)

#: Link name -> the ``link`` column's one-byte code.
LINK_CODE = {name: code for code, name in enumerate(RecordColumns.link_names)}


def flow_packets(
    time, initiator, responder, iport, rport, proto, rtt, link, packets, answer
) -> RecordColumns:
    """Expand flows into their packet rows, flow by flow, in order.

    Per flow (scalars broadcast): *packets* is how many headers cross
    the border -- 1, the opening packet alone (a probe nobody answers);
    2, the responder's answer ``rtt`` later; 3, the initiator's closing
    ACK after another ``rtt`` (a completed TCP handshake).  *answer* is
    the flag byte of the second packet.  Times are ``t``, ``t + rtt``
    and ``t + 2 * rtt`` as the scalar expressions compute them.
    """
    count = len(time)
    initiator, responder, iport, rport, proto, rtt, link, answer = (
        np.broadcast_to(field, count)
        for field in (initiator, responder, iport, rport, proto, rtt, link, answer)
    )
    opening = np.cumsum(packets, dtype=np.int64) - packets
    total = int(opening[-1] + packets[-1]) if count else 0
    answered, closed = packets >= 2, packets == 3
    reply, closing = opening[answered] + 1, opening[closed] + 2

    def woven(dtype, first, second, third) -> np.ndarray:
        out = np.empty(total, dtype)
        out[opening] = first
        out[reply] = second[answered]
        out[closing] = third[closed]
        return out

    return RecordColumns(
        time=woven("<f8", time, time + rtt, time + 2 * rtt),
        src=woven("<u4", initiator, responder, initiator),
        dst=woven("<u4", responder, initiator, responder),
        sport=woven("<u2", iport, rport, iport),
        dport=woven("<u2", rport, iport, rport),
        proto=np.repeat(proto, packets).astype("u1", copy=False),
        flags=woven(
            "u1", np.where(proto == PROTO_TCP, SYN, 0), answer,
            np.broadcast_to(ACK, count),
        ),
        link=np.repeat(link, packets).astype("u1", copy=False),
        icmp=np.zeros(total, "u1"),
    )


class FlowLog:
    """The flows of one window, as one typed append buffer per field.

    Walks append through :attr:`appenders` (``time, initiator,
    responder, iport, rport, proto, rtt, link, packets`` -- the
    arguments of :func:`flow_packets`); :meth:`packets` empties the log.
    ``array.array`` rather than lists: a window of boxed floats and
    ints costs several times its 30 bytes a flow, and pymalloc does not
    hand freed arenas back.
    """

    _TYPECODES = "dIIHHBdBB"

    def __init__(self) -> None:
        self._buffers = tuple(array(code) for code in self._TYPECODES)
        self.appenders = tuple(buffer.append for buffer in self._buffers)
        #: Flows expanded so far.
        self.flows = 0

    def packets(self) -> RecordColumns | None:
        """Empty the log into its flows' packets, in flow-time order.

        The sort is stable, so flows starting at the same instant keep
        the order they were appended in.  None when the log was empty.
        """
        if not self._buffers[0]:
            return None
        fields = [np.array(buffer) for buffer in self._buffers]
        for buffer in self._buffers:
            del buffer[:]
        order = np.argsort(fields[0], kind="stable")
        time, initiator, responder, iport, rport, proto, rtt, link, packets = (
            field[order] for field in fields
        )
        self.flows += len(time)
        return flow_packets(
            time, initiator, responder, iport, rport, proto, rtt, link, packets,
            answer=np.where(proto == PROTO_TCP, SYNACK, 0),
        )


#: A flow walk: ``send(bound)`` appends its flows with ``t < bound`` to
#: a :class:`FlowLog` and yields the time of the first arrival it has
#: not taken (``inf`` when it is over; it is not resumed after that).
#: The first ``next()`` only reports that time.  A walk owns its RNG
#: stream, so where it is paused cannot reorder its draws.
FlowWalk = Generator[float, float, None]


class FlowWalks:
    """The walks writing one :class:`FlowLog`, advanced a window at a time."""

    def __init__(self, log: FlowLog, walks: list[FlowWalk]) -> None:
        self.log = log
        self._walks = walks
        self._pending = np.array([next(walk) for walk in walks], dtype=np.float64)

    def __call__(self, bound: float) -> RecordColumns | None:
        """The packets of every flow that starts below *bound* and has
        not been returned yet, in flow-time order; ties between walks
        fall to the earlier walk."""
        pending = self._pending
        for index in np.flatnonzero(pending < bound).tolist():
            pending[index] = self._walks[index].send(bound)
        return self.log.packets()
