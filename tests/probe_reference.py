"""The scalar online prober: the reference model for differential tests.

This is the probe-at-a-time implementation :mod:`repro.probe` shipped
with before its dispatch became an array pipeline, kept as the oracle:
policies whose only operation is ``task(k)``, computed with plain
Python arithmetic over a shuffled list of (address, port) tuples, and a
scheduler that asks for one task, resolves it through
``CampusPopulation.occupant_host`` and ``Host.tcp_probe_response`` /
``udp_probe_response``, and folds the outcome into the evidence dicts.

:class:`ReferenceScheduler` inherits everything that is *not* dispatch
(``state_dict``, ``restore_state``, ``view``, sweep completion) from
the production scheduler, so a test comparing the two compares exactly
the code that was replaced.
"""

from __future__ import annotations

import random

from repro.active.schedule import scan_start_times
from repro.campus.host import ProbeOutcome, UdpProbeOutcome
from repro.probe import SWEEP_SECONDS, ProbeScheduler
from repro.simkernel.rng import derive_seed
from repro.telemetry.tracing import tracer


class ReferencePeriodicPolicy:
    name = "periodic"

    def __init__(self, targets, ports, rate, calendar, end) -> None:
        self.targets = list(targets)
        self.ports = list(ports)
        self.rate = float(rate)
        self.sweep_size = len(self.targets) * len(self.ports)
        starts: list[float] = []
        duration = 0.0
        if self.rate > 0 and self.sweep_size:
            duration = max(SWEEP_SECONDS, self.sweep_size / self.rate)
            previous_end = None
            for scheduled in scan_start_times(calendar, 0.0, end):
                start = scheduled
                if previous_end is not None and start < previous_end:
                    start = previous_end
                if start >= end:
                    break
                starts.append(start)
                previous_end = start + duration
        self.duration = duration
        self.starts = starts

    @property
    def total_tasks(self) -> int:
        return len(self.starts) * self.sweep_size

    def task(self, k: int):
        if k >= self.total_tasks:
            return None
        sweep, within = divmod(k, self.sweep_size)
        address_index, port_index = divmod(within, len(self.ports))
        step = self.duration / len(self.targets)
        when = self.starts[sweep] + address_index * step
        return (when, self.targets[address_index], self.ports[port_index])

    def sweep_of(self, k: int) -> int:
        return k // self.sweep_size

    def sweep_count(self) -> int:
        return len(self.starts)

    def sweep_bounds(self, sweep: int) -> tuple[float, float]:
        start = self.starts[sweep]
        return (start, start + self.duration)


class ReferenceHeartbeatPolicy:
    name = "heartbeat"

    def __init__(self, targets, ports, rate, seed, end) -> None:
        self.targets = list(targets)
        pairs = [(address, port) for address in targets for port in ports]
        random.Random(derive_seed(seed, "probe.heartbeat")).shuffle(pairs)
        self.pairs = pairs
        self.rate = float(rate)
        self.end = float(end)
        self.sweep_size = len(pairs)

    def task(self, k: int):
        if self.rate <= 0 or not self.pairs:
            return None
        when = (k + 1) / self.rate
        if when > self.end:
            return None
        address, port = self.pairs[k % self.sweep_size]
        return (when, address, port)

    @property
    def total_tasks(self) -> int:
        """How many tasks ``task`` yields, counted against ``task`` itself."""
        if self.rate <= 0 or not self.pairs:
            return 0
        k = max(int(self.end * self.rate) - 2, 0)
        while self.task(k) is not None:
            k += 1
        return k

    def sweep_of(self, k: int) -> int:
        return k // self.sweep_size

    def sweep_count(self) -> int:
        return self.total_tasks // self.sweep_size if self.sweep_size else 0

    def sweep_bounds(self, sweep: int) -> tuple[float, float]:
        start = (sweep * self.sweep_size + 1) / self.rate
        return (start, ((sweep + 1) * self.sweep_size) / self.rate)


def build_reference_policy(name, targets, ports, rate, seed, calendar, end):
    if name == "periodic":
        return ReferencePeriodicPolicy(targets, ports, rate, calendar, end)
    return ReferenceHeartbeatPolicy(targets, ports, rate, seed, end)


class ReferenceScheduler(ProbeScheduler):
    """``ProbeScheduler`` with the one-probe-at-a-time dispatch loop.

    It keeps ``last_probed`` as the dict it writes probe by probe; the
    production scheduler derives that dict from its cursor, only for
    views and checkpoints.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.last_probed: dict[int, float] = {}

    def _last_probed(self) -> dict[int, float]:
        return dict(self.last_probed)

    def restore_state(self, state: dict) -> None:
        self.last_probed = dict(state["last_probed"])
        super().restore_state(state)

    def advance(self, now: float) -> int:
        policy = self.policy
        occupant = self.population.occupant_host
        issued_before = self.issued
        while not self.exhausted:
            task = policy.task(self.cursor)
            if task is None:
                self.exhausted = True
                break
            when, address, port = task
            if when > now:
                break
            self._dispatch_one(when, address, port, occupant)
            self.cursor += 1
            if self.cursor % policy.sweep_size == 0:
                self._complete_sweep(policy.sweep_of(self.cursor - 1), tracer())
        return self.issued - issued_before

    def _dispatch_one(self, when, address, port, occupant) -> None:
        self.issued += 1
        self.last_probed[address] = when
        host = occupant(address, when)
        opened = False
        if host is None:
            self.silent += 1
        elif self.proto == "udp":
            outcome = host.udp_probe_response(port, when, internal=True)
            if outcome is UdpProbeOutcome.REPLY:
                self.udp_replies += 1
                opened = True
            elif outcome is UdpProbeOutcome.ICMP_UNREACHABLE:
                self.udp_unreachable += 1
            else:
                self.silent += 1
        else:
            outcome = host.tcp_probe_response(port, when, internal=True)
            if outcome is ProbeOutcome.SYNACK:
                self.synacks += 1
                opened = True
            elif outcome is ProbeOutcome.RST:
                self.rsts += 1
            else:
                self.silent += 1
        if opened:
            key = (address, port)
            if key not in self.first_open:
                self.first_open[key] = when
                if address not in self.last_open:
                    self.open_events.append((when, address))
            if self.last_open.get(address, -1.0) < when:
                self.last_open[address] = when
            self._current_sweep_opens.add(address)
