"""The online probe scheduler: in-stream dispatch and live evidence.

:class:`ProbeScheduler` runs inside the streaming engine's (or fabric
supervisor's) event loop.  Each time stream time advances, the engine
calls :meth:`ProbeScheduler.advance`, which dispatches every probe the
policy scheduled at or before the new instant -- a window of the
schedule at a time, as arrays; the probes at addresses anyone ever
holds are resolved through the population's
:class:`~repro.campus.probe_index.ProbeResponseIndex`: the same host
state machine that generates passive traffic
(:meth:`~repro.campus.host.Host.tcp_probe_response`) laid out in
columns, so online active discovery disagrees with passive exactly
where the paper says the two methods should.  The evidence is what
dispatching the probes one at a time would leave, dict order included
(``tests/probe_reference.py`` is that model).

The scheduler *is* the run's active side: when online probing is
enabled, watermarks, the final report, ``/liveness`` and ``/healthz``
all read from its evidence instead of the build-time scan reports.
Evidence accumulates the moment a probe completes -- a sweep still in
flight contributes opens (and per-address negative evidence) without
waiting for the sweep to finish.

Everything the scheduler knows is plain picklable data, captured by
:meth:`state_dict` and restored by :meth:`restore_state`; the engine
embeds it in stream checkpoints and the fabric supervisor in its
commit manifest, so killed-and-resumed online runs are byte-identical
and probe scheduling survives shard failover untouched (the evidence
lives with the supervisor, never in a worker).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from repro.campus.probe_index import OPEN
from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.telemetry.metrics import registry as _telemetry_registry
from repro.telemetry.tracing import tracer as _tracer


@dataclass(frozen=True)
class ProbeEvidenceView:
    """An immutable copy of the scheduler's evidence, for readers.

    The probe-side analogue of :class:`repro.query.liveness.ActiveView`
    -- same query methods, so ``infer_liveness`` swaps one for the
    other -- published inside each :class:`DiscoverySnapshot` while
    ingest (and probing) continue.  ``last_probed`` is the sharper
    evidence the online path adds: per-address probe times, so
    "probed since and silent" is decidable mid-sweep instead of only
    at sweep completion.
    """

    policy: str
    rate: float
    proto: str
    issued: int
    synacks: int
    rsts: int
    silent: int
    udp_replies: int
    first_open: Mapping[tuple[int, int], float]
    last_open: Mapping[int, float]
    last_probed: Mapping[int, float]
    sweeps: tuple[tuple[float, frozenset[int]], ...]
    sweeps_planned: int
    current_sweep: int
    sweep_progress: float

    # ---- the ActiveView interface -------------------------------------

    def active_last_seen(self, address: int, now: float) -> float | None:
        """Latest active open of *address* at or before stream time."""
        when = self.last_open.get(address)
        return when if when is not None and when <= now else None

    def probed_since(self, address: int, after: float, now: float) -> bool:
        """A probe in ``(after, now]`` saw *address* silent or closed.

        Finer-grained than the sweep-level rule: an in-flight sweep's
        probes count as negative evidence the moment they complete.
        """
        probed = self.last_probed.get(address)
        if probed is None or not (after < probed <= now):
            return False
        opened = self.last_open.get(address)
        return opened is None or opened < probed

    def sweeps_completed(self, now: float) -> int:
        return sum(1 for end, _ in self.sweeps if end <= now)

    # ---- /healthz -----------------------------------------------------

    def health(self) -> dict:
        """The ``probes`` object ``/healthz`` reports."""
        return {
            "policy": self.policy,
            "rate": self.rate,
            "proto": self.proto,
            "issued": self.issued,
            "synacks": self.synacks,
            "rsts": self.rsts,
            "silent": self.silent,
            "udp_replies": self.udp_replies,
            "sweeps_completed": len(self.sweeps),
            "sweeps_planned": self.sweeps_planned,
            "current_sweep": self.current_sweep,
            "sweep_progress": round(self.sweep_progress, 4),
        }


#: Registry counters fed from the scheduler's running totals:
#: (attribute, metric name, help).
_COUNTERS = (
    ("issued", "repro_probe_dispatched_total",
     "Online probes dispatched into the stream."),
    ("synacks", "repro_probe_synacks_total",
     "Online probes answered with SYN-ACK."),
    ("rsts", "repro_probe_rsts_total",
     "Online probes answered with RST."),
    ("silent", "repro_probe_silent_total",
     "Online probes that timed out (down, firewalled, or unpopulated)."),
    ("udp_replies", "repro_probe_udp_replies_total",
     "Online UDP probes that drew a reply."),
)


#: Most probes one array pass covers: it bounds the working set of an
#: ``advance`` that owes millions (3.46M heartbeat probes over held
#: targets only peak at 26 MB with it, 405 MB without).
_MAX_WINDOW = 1 << 17


class ProbeScheduler:
    """Dispatch one policy's probes in stream time; accumulate evidence.

    ``proto`` selects the probe type: ``"tcp"`` half-open SYN probes
    (SYN-ACK / RST / silence), ``"udp"`` generic datagrams (reply /
    ICMP unreachable / silence, the paper's Section 4.5 scan).  Probes
    come from inside campus, as the build-time scanners' do.
    """

    def __init__(self, population, policy, proto: str = "tcp") -> None:
        if proto not in ("tcp", "udp"):
            raise ValueError(f"unknown probe proto {proto!r}")
        self.population = population
        self.policy = policy
        self.proto = proto
        self.cursor = 0
        self.exhausted = False
        self.issued = 0
        self.synacks = 0
        self.rsts = 0
        self.silent = 0
        self.udp_replies = 0
        self.udp_unreachable = 0
        #: (address, port) -> first open probe time (the active
        #: analogue of the passive table's first_seen).
        self.first_open: dict[tuple[int, int], float] = {}
        #: address -> latest open probe time.
        self.last_open: dict[int, float] = {}
        #: Per-address first opens in dispatch (= time) order; the
        #: watermark timeline (mirrors ActiveTimeline's event list).
        self.open_events: list[tuple[float, int]] = []
        #: Completed sweeps: (nominal end, frozenset(open addresses)).
        self.sweeps: list[tuple[float, frozenset[int]]] = []
        self._current_sweep_opens: set[int] = set()
        # addresses_by cursor state (rebuildable, not checkpointed).
        self._known: set[int] = set()
        self._events_cursor = 0
        # Totals already folded into the telemetry registry: counters
        # report what this process dispatched, not what it restored.
        self._flushed = {attr: 0 for attr, _, _ in _COUNTERS}
        self._index = population.probe_index
        #: Presence group of each target address (-1: never assigned).
        self._slots = self._index.slots(policy.targets)

    @cached_property
    def _held(self) -> np.ndarray:
        """In-sweep positions whose target someone ever holds, ascending.

        A probe anywhere else is silent whenever it fires, so dispatch
        counts it without resolving it.
        """
        return np.flatnonzero(self._slots[self.policy.pair_address] >= 0)

    @cached_property
    def _first_probes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Targets in first-probe order, their first in-sweep positions,
        and all their positions: the layout's inverse permutation, one
        row per port so reductions run down a few rows.  O(sweep), no
        sort."""
        policy = self.policy
        size, count = policy.sweep_size, len(policy.targets)
        position = np.empty(size, dtype=np.int64)
        position[policy.pair_port * count + policy.pair_address] = np.arange(size)
        positions = position.reshape(len(policy.ports), count)
        marked = np.zeros(size, dtype=bool)
        marked[positions.min(axis=0)] = True
        first = np.flatnonzero(marked)
        order = policy.pair_address[first]
        return order, first, positions.take(order, axis=1)

    # ---- dispatch -----------------------------------------------------

    def advance(self, now: float) -> int:
        """Dispatch every probe scheduled at or before *now*.

        Returns the number of probes dispatched by this call.  The
        evidence after advancing to any instant is independent of the
        call pattern that got there -- probes fire at policy times with
        outcomes that are pure functions of (address, port, time) --
        which is what makes the engine and the fabric byte-identical.
        """
        if self.exhausted:
            return 0
        policy = self.policy
        first = self.cursor
        due = policy.count_until(now)
        trc = _tracer()
        while self.cursor < due:
            stop = min(due, self.cursor + _MAX_WINDOW)
            self._dispatch(self.cursor, stop, trc)
            self.cursor = stop
        if self.cursor >= policy.total_tasks:
            self.exhausted = True
        dispatched = self.cursor - first
        if dispatched:
            self._flush_telemetry()
        return dispatched

    def _dispatch(self, lo: int, hi: int, trc) -> None:
        """Dispatch probes ``lo <= k < hi``; resolve only the held ones.

        Held probe *j* is position ``held[j % H]`` of sweep ``j // H``,
        so a window's held probes are one range of *j*.
        """
        policy = self.policy
        size, held = policy.sweep_size, self._held
        count = held.size
        begin = (lo // size) * count + int(np.searchsorted(held, lo % size))
        end = (hi // size) * count + int(np.searchsorted(held, hi % size))
        in_sweep, position = np.divmod(np.arange(begin, end), max(count, 1))
        position = held[position]
        when = policy.times(in_sweep * size + position)
        address_index = policy.pair_address[position]
        ports = policy.ports[policy.pair_port[position]]
        codes = np.zeros(0, dtype=np.uint8)
        if begin < end:
            codes = self._index.outcomes(
                self._slots[address_index],
                ports,
                when,
                PROTO_UDP if self.proto == "udp" else PROTO_TCP,
                True,  # internal: probes come from inside campus
            )
        _, opened, closed = np.bincount(codes, minlength=3).tolist()
        self.issued += hi - lo
        self.silent += hi - lo - opened - closed
        if self.proto == "udp":
            self.udp_replies += opened
            self.udp_unreachable += closed
        else:
            self.synacks += opened
            self.rsts += closed

        # Opens, in probe order.  Only an (address, port)'s first open
        # in the window can be its first ever, and only then can the
        # address be new to last_open -- which afterwards keeps the
        # latest open: times never decrease, so that is the last write.
        hits = np.flatnonzero(codes == OPEN)
        moments = when[hits].tolist()
        addresses = policy.targets[address_index[hits]].tolist()
        keys = list(zip(addresses, ports[hits].tolist()))
        earliest = dict(zip(reversed(keys), reversed(moments)))
        for key in dict.fromkeys(keys):
            if key not in self.first_open:
                address, moment = key[0], earliest[key]
                self.first_open[key] = moment
                if address not in self.last_open:
                    self.open_events.append((moment, address))
                    self.last_open[address] = moment
        self.last_open.update(zip(addresses, moments))

        # Each sweep that ends inside the window is sealed with the
        # opens up to its last probe; the rest belong to the next one.
        ending = range(lo // size, hi // size)
        stops = np.searchsorted(in_sweep[hits], ending, side="right")
        start = 0
        for sweep, stop in zip(ending, stops.tolist()):
            self._current_sweep_opens.update(addresses[start:stop])
            self._complete_sweep(sweep, trc)
            start = stop
        self._current_sweep_opens.update(addresses[start:])

    def _complete_sweep(self, sweep: int, trc) -> None:
        _, sweep_end = self.policy.sweep_bounds(sweep)
        opens = frozenset(self._current_sweep_opens)
        self.sweeps.append((sweep_end, opens))
        self._current_sweep_opens = set()
        if trc.enabled:
            trc.event(
                "probe.sweep", sweep=sweep, end=sweep_end, opens=len(opens),
            )
        reg = _telemetry_registry()
        if reg.enabled:
            reg.counter(
                "repro_probe_sweeps_total",
                "Online probe sweeps (coverage passes) completed.",
            ).inc()

    def _flush_telemetry(self) -> None:
        """Fold the totals' growth since the last flush into the registry.

        Called once per advance that dispatched anything, with
        aggregate deltas -- the disabled cost stays a handful of no-op
        calls no matter the probe volume.
        """
        reg = _telemetry_registry()
        if not reg.enabled:
            return
        for attr, name, help_text in _COUNTERS:
            total = getattr(self, attr)
            delta = total - self._flushed[attr]
            if delta:
                reg.counter(name, help_text).inc(delta)
                self._flushed[attr] = total

    # ---- the watermark timeline ---------------------------------------

    def addresses_by(self, t: float) -> set[int]:
        """Addresses with an online-probe open at or before *t*.

        The same monotone-cursor contract as
        :meth:`repro.stream.watermark.ActiveTimeline.addresses_by` --
        the engine and supervisor advance the scheduler past a mark
        before asking, so every event at or before it has fired.
        """
        events = self.open_events
        cursor = self._events_cursor
        known = self._known
        while cursor < len(events) and events[cursor][0] <= t:
            known.add(events[cursor][1])
            cursor += 1
        self._events_cursor = cursor
        return known

    # ---- final-report inputs ------------------------------------------

    def open_addresses(self) -> set[int]:
        """Every address any probe ever found open."""
        return set(self.last_open)

    def sweeps_recorded(self) -> int:
        """Sweeps whose every probe has been dispatched."""
        return len(self.sweeps)

    # ---- checkpoints ---------------------------------------------------

    def _last_probed(self) -> dict[int, float]:
        """address -> latest probe time, in first-probe order.

        A pure function of the cursor: a target's latest probe is its
        last position before ``cursor % sweep_size`` in the current
        sweep, otherwise its last position in the previous one.
        """
        if not self.cursor:
            return {}
        policy = self.policy
        size = policy.sweep_size
        order, first, positions = self._first_probes
        sweep, done = divmod(self.cursor, size)
        if not sweep:  # only targets whose first probe has fired
            count = int(np.searchsorted(first, done))
            order, positions = order[:count], positions[:, :count]
        before = np.where(positions < done, positions, -1).max(axis=0)
        last = np.where(
            before >= 0,
            sweep * size + before,
            (sweep - 1) * size + positions.max(axis=0),
        )
        return dict(zip(
            policy.targets[order].tolist(), policy.times(last).tolist()
        ))

    def state_dict(self) -> dict:
        """Everything a resumed run needs, as plain picklable data."""
        return {
            "cursor": self.cursor,
            "exhausted": self.exhausted,
            "issued": self.issued,
            "synacks": self.synacks,
            "rsts": self.rsts,
            "silent": self.silent,
            "udp_replies": self.udp_replies,
            "udp_unreachable": self.udp_unreachable,
            "first_open": dict(self.first_open),
            "last_open": dict(self.last_open),
            "last_probed": self._last_probed(),
            "open_events": list(self.open_events),
            "sweeps": list(self.sweeps),
            "current_sweep_opens": set(self._current_sweep_opens),
        }

    def restore_state(self, state: dict) -> None:
        """Load a :meth:`state_dict`; raise ``ValueError`` naming the
        first field this schedule could not have left."""
        self.cursor = int(state["cursor"])
        self.exhausted = bool(state["exhausted"])
        self.issued = int(state["issued"])
        self.synacks = int(state["synacks"])
        self.rsts = int(state["rsts"])
        self.silent = int(state["silent"])
        self.udp_replies = int(state["udp_replies"])
        self.udp_unreachable = int(state["udp_unreachable"])
        self.first_open = dict(state["first_open"])
        self.last_open = dict(state["last_open"])
        self.open_events = list(state["open_events"])
        self.sweeps = list(state["sweeps"])
        self._current_sweep_opens = set(state["current_sweep_opens"])
        # The addresses_by cursor rebuilds from the restored event
        # list as watermarks advance; identical sets either way.
        self._known = set()
        self._events_cursor = 0
        self._flushed = {attr: getattr(self, attr) for attr, _, _ in _COUNTERS}
        cursor, total = self.cursor, self.policy.total_tasks
        outcomes = (self.silent, self.synacks, self.rsts,
                    self.udp_replies, self.udp_unreachable)
        if not 0 <= cursor <= total:
            problem = f"cursor {cursor} is outside 0..{total}"
        elif self.exhausted != (cursor == total) and total:
            # (An empty schedule is exhausted only once advanced.)
            problem = f"exhausted={self.exhausted} at cursor {cursor} of {total}"
        elif self.issued != cursor:
            problem = f"issued {self.issued} is not cursor {cursor}"
        elif min(outcomes) < 0 or sum(outcomes) != cursor:
            problem = f"silent/synacks/rsts/udp_* {outcomes} do not sum to {cursor}"
        elif list(state["last_probed"].items()) != list(self._last_probed().items()):
            problem = f"last_probed is not what cursor {cursor} probed"
        else:
            return
        raise ValueError(f"checkpointed probe state does not fit: {problem}")

    # ---- snapshots -----------------------------------------------------

    def view(self) -> ProbeEvidenceView:
        """An immutable copy for publication inside a snapshot."""
        policy = self.policy
        sweep_size = policy.sweep_size
        if self.exhausted or sweep_size == 0:
            current = len(self.sweeps)
            progress = 1.0 if self.exhausted and sweep_size else 0.0
        else:
            current = policy.sweep_of(self.cursor)
            progress = (self.cursor % sweep_size) / sweep_size
        return ProbeEvidenceView(
            policy=policy.name,
            rate=policy.rate,
            proto=self.proto,
            issued=self.issued,
            synacks=self.synacks,
            rsts=self.rsts,
            silent=self.silent,
            udp_replies=self.udp_replies,
            first_open=dict(self.first_open),
            last_open=dict(self.last_open),
            last_probed=self._last_probed(),
            sweeps=tuple(self.sweeps),
            sweeps_planned=policy.sweep_count(),
            current_sweep=current,
            sweep_progress=progress,
        )


def resolve_probe_ports(ports, dataset) -> tuple[list[int], str]:
    """(ports to probe, probe proto) for a dataset.

    Explicit *ports* win (probed as the dataset's protocol); otherwise
    the dataset's watched port list is the target set, exactly what the
    build-time scanner sweeps.  DTCPall watches *all* TCP ports --
    online-probing 65k ports per address is a budget decision the
    operator must make, so it requires an explicit list.
    """
    if dataset.tcp_ports is not None and dataset.tcp_ports:
        proto = "tcp"
        default = sorted(dataset.tcp_ports)
    elif dataset.udp_ports:
        proto = "udp"
        default = sorted(dataset.udp_ports)
    elif dataset.tcp_ports is None:
        proto = "tcp"
        default = None
    else:
        proto = "tcp"
        default = []
    if ports is not None:
        return (sorted(ports), proto)
    if default is None:
        raise ValueError(
            f"dataset {dataset.spec.name} watches all TCP ports; online "
            f"probing needs an explicit --probe-ports list"
        )
    if not default:
        raise ValueError(
            f"dataset {dataset.spec.name} watches no ports; pass "
            f"--probe-ports to probe online"
        )
    return (default, proto)


def build_prober(
    dataset,
    policy_name: str | None,
    rate: float,
    ports,
    seed: int,
    end: float,
) -> ProbeScheduler | None:
    """The scheduler for one stream run, or ``None`` when probing is off.

    Deterministic in its arguments: the engine and the fabric
    supervisor build identical schedulers from the same
    :class:`~repro.stream.engine.StreamConfig`.
    """
    if policy_name is None:
        return None
    from repro.probe.policy import build_policy

    probe_ports, proto = resolve_probe_ports(ports, dataset)
    policy = build_policy(
        policy_name,
        dataset.probe_target_array,
        probe_ports,
        rate,
        seed,
        dataset.calendar,
        end,
    )
    return ProbeScheduler(dataset.population, policy, proto=proto)
