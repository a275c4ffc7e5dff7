"""Probe scheduling policies: when to probe which (address, port).

A policy is a pure function of an integer task index: probe *k* fires
at a time, address and port that depend on nothing but *k*.  That shape
is what makes online probing checkpointable with one integer -- the
scheduler persists its cursor, and a resumed run replays the identical
tail of the schedule because nothing about a task depends on when the
engine happened to call for it.

Every policy walks the same layout sweep after sweep: in-sweep
position ``j`` probes ``targets[pair_address[j]]`` on
``ports[pair_port[j]]``, and task ``k`` is position ``k % sweep_size``
of sweep ``k // sweep_size``.  What tells policies apart is that layout
and one time function, ``times(k)``.  The scheduler reads the layout
directly, plus ``count_until(now)``, the number of tasks due at or
before an instant (the cursor bound).  ``window(lo, hi)`` -- the tasks
``lo <= k < hi`` as parallel ``(when, address_index, port_index)``
arrays -- and its scalar read ``task(k)`` are built from the two.

Two policies, the two sides of the trade-off this repo measures:

* :class:`PeriodicSweepPolicy` -- the paper's every-12-hours Nmap
  sweep, run online.  Sweep start times come from
  :func:`repro.active.schedule.scan_start_times` (11:00 and 23:00);
  each sweep walks the target list once at a linear pace.
* :class:`HeartbeatPolicy` -- Beverly & Allman's "Internet Heartbeat"
  prober: the same probe budget spread uniformly in time, one probe
  every ``1/rate`` seconds, walking a seeded random permutation of the
  (address, port) space.  One full pass over the permutation is one
  coverage "sweep".

Both policies treat ``rate <= 0`` as a null budget: no probes are ever
scheduled, so an online run at rate 0 is byte-identical to the passive
path.
"""

from __future__ import annotations

import bisect
import random
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.active.schedule import scan_start_times
from repro.simkernel.clock import Calendar, hours
from repro.simkernel.rng import derive_seed

#: Nominal length of one online periodic sweep -- the paper's 90-120
#: minute runs (the same figure as the build-time scanner's
#: ``SCAN_SWEEP_SECONDS``; duplicated so ``repro.probe`` does not pull
#: in the dataset builder at import time).
SWEEP_SECONDS = hours(1.75)

#: One scheduled probe: (dataset time, address, TCP/UDP port).
ProbeTask = tuple[float, int, int]

#: One window of the schedule: parallel (when, address_index,
#: port_index) arrays over consecutive task indices.
ProbeWindow = tuple[np.ndarray, np.ndarray, np.ndarray]

#: Policy names the CLI accepts, in help order.
POLICY_NAMES = ("periodic", "heartbeat")


class _SchedulePolicy:
    """What both policies share: the target columns and the sweep layout.

    Subclasses set ``rate``, ``total_tasks`` (the exact number of
    probes the schedule holds) and the layout ``pair_address`` /
    ``pair_port``, and implement ``count_until`` and ``times``.
    """

    rate: float
    total_tasks: int
    #: Per in-sweep position, the index of its target and of its port:
    #: every (target, port) pair exactly once.
    pair_address: np.ndarray
    pair_port: np.ndarray

    def __init__(self, targets: Sequence[int], ports: Sequence[int]) -> None:
        #: Probed addresses and ports; windows index into these.
        self.targets = np.asarray(targets, dtype=np.int64)
        self.ports = np.asarray(ports, dtype=np.int64)
        self.sweep_size = len(self.targets) * len(self.ports)

    def window(self, lo: int, hi: int) -> ProbeWindow:
        """Tasks ``lo <= k < hi`` as ``(when, address_index, port_index)``."""
        k = np.arange(lo, hi)
        position = k % self.sweep_size
        return self.times(k), self.pair_address[position], self.pair_port[position]

    def task(self, k: int) -> ProbeTask | None:
        """The *k*-th probe, or ``None`` past the end of the schedule."""
        if k >= self.total_tasks:
            return None
        when, address_index, port_index = self.window(k, k + 1)
        return (
            float(when[0]),
            int(self.targets[address_index[0]]),
            int(self.ports[port_index[0]]),
        )

    def sweep_of(self, k: int) -> int:
        return k // self.sweep_size

    def sweep_count(self) -> int:
        """Whole sweeps the schedule completes before the stream ends."""
        return self.total_tasks // self.sweep_size if self.sweep_size else 0


class PeriodicSweepPolicy(_SchedulePolicy):
    """The paper's every-12-hours sweep, scheduled online.

    Sweeps begin at the scheduled 11:00/23:00 times; within a sweep,
    address ``i`` is probed at ``start + i * (duration / targets)``
    with every port probed at that instant (one scanning machine, the
    simplest deterministic walk).  The nominal 105-minute sweep is
    stretched when the probe budget demands it -- ``duration =
    max(nominal, probes / rate)``, the scanner's polite-timing rule --
    and a stretched sweep that overruns the next scheduled start pushes
    that sweep back to its own end: sweeps run back to back, never
    concurrently.
    """

    name = "periodic"

    def __init__(
        self,
        targets: Sequence[int],
        ports: Sequence[int],
        rate: float,
        calendar: Calendar,
        end: float,
    ) -> None:
        super().__init__(targets, ports)
        self.rate = float(rate)
        self.pair_address, self.pair_port = np.divmod(
            np.arange(self.sweep_size), max(len(self.ports), 1)
        )
        starts: list[float] = []
        duration = 0.0
        if self.rate > 0 and self.sweep_size:
            duration = max(SWEEP_SECONDS, self.sweep_size / self.rate)
            previous_end: float | None = None
            for scheduled in scan_start_times(calendar, 0.0, end):
                start = scheduled
                if previous_end is not None and start < previous_end:
                    start = previous_end
                if start >= end:
                    # Pushed past the stream: this sweep (and every
                    # later one) would never begin.
                    break
                starts.append(start)
                previous_end = start + duration
        self.duration = duration
        self.starts = starts
        self.total_tasks = len(starts) * self.sweep_size
        #: Pace of the walk: seconds between consecutive addresses.
        self.step = duration / len(self.targets) if starts else 0.0
        self._starts = np.asarray(starts, dtype=np.float64)

    def count_until(self, now: float) -> int:
        """Tasks scheduled at or before *now*.

        Probe times never decrease with the task index, so every sweep
        that started before the one containing *now* is wholly due, and
        within that sweep the due addresses are a prefix -- found by
        estimate, then settled with the same ``start + i * step``
        arithmetic ``times`` uses.
        """
        sweep = bisect.bisect_right(self.starts, now) - 1
        if sweep < 0:
            return 0
        start, step, count = self.starts[sweep], self.step, len(self.targets)
        due = int(min(max((now - start) / step, 0.0), count))
        while due < count and start + due * step <= now:
            due += 1
        while due > 0 and start + (due - 1) * step > now:
            due -= 1
        return sweep * self.sweep_size + due * len(self.ports)

    def times(self, k: np.ndarray) -> np.ndarray:
        sweep, within = np.divmod(k, self.sweep_size)
        # Two separate ufuncs: a fused multiply-add would round once
        # where the scalar ``start + i * step`` rounds twice.
        when = (within // len(self.ports)) * self.step
        when += self._starts[sweep]
        return when

    def sweep_bounds(self, sweep: int) -> tuple[float, float]:
        """(start, nominal end) of one sweep."""
        start = self.starts[sweep]
        return (start, start + self.duration)


@lru_cache(maxsize=8)
def _heartbeat_order(seed: int, size: int) -> np.ndarray:
    """The seeded permutation of ``range(size)`` a heartbeat walks.

    ``random.shuffle`` swaps by position, so shuffling the indices
    yields the order shuffling the (address, port) pairs themselves
    would.  Memoised (read-only) because every engine, supervisor and
    experiment row over one dataset and seed walks the same order.
    """
    order = list(range(size))
    random.Random(derive_seed(seed, "probe.heartbeat")).shuffle(order)
    permutation = np.asarray(order, dtype=np.int64)
    permutation.setflags(write=False)
    return permutation


class HeartbeatPolicy(_SchedulePolicy):
    """A continuous low-rate prober (Beverly & Allman's heartbeat).

    Spreads the probe budget uniformly in time: probe ``k`` fires at
    ``(k + 1) / rate``, walking a seeded random permutation of the
    (address, port) pairs and wrapping around indefinitely.  A full
    pass over the permutation is one coverage "sweep" -- the moment
    every pair has been probed at least once more, which is the
    heartbeat's analogue of a completed Nmap run (and what negative
    liveness evidence keys on).
    """

    name = "heartbeat"

    def __init__(
        self,
        targets: Sequence[int],
        ports: Sequence[int],
        rate: float,
        seed: int,
        end: float,
    ) -> None:
        super().__init__(targets, ports)
        self.rate = float(rate)
        self.end = float(end)
        # Pair ``a * len(ports) + p`` is (targets[a], ports[p]): the
        # address-major order the permutation is drawn over.
        self.pair_address, self.pair_port = np.divmod(
            _heartbeat_order(seed, self.sweep_size), max(len(self.ports), 1)
        )
        self.total_tasks = self._ticks(self.end) if self.sweep_size else 0

    def _ticks(self, now: float) -> int:
        """The largest ``n >= 0`` with ``n / rate <= now``.

        Settled with the division ``window`` computes probe times by,
        so the bound agrees with them to the last bit.
        """
        rate = self.rate
        if rate <= 0:
            return 0
        n = max(int(now * rate), 0)
        while (n + 1) / rate <= now:
            n += 1
        while n > 0 and n / rate > now:
            n -= 1
        return n

    def count_until(self, now: float) -> int:
        """Tasks scheduled at or before *now*."""
        return self._ticks(min(now, self.end)) if self.sweep_size else 0

    def times(self, k: np.ndarray) -> np.ndarray:
        return (k + 1) / self.rate

    @property
    def pairs(self) -> list[tuple[int, int]]:
        """One coverage pass as (address, port) pairs, in probe order."""
        return list(zip(
            self.targets[self.pair_address].tolist(),
            self.ports[self.pair_port].tolist(),
        ))

    def sweep_bounds(self, sweep: int) -> tuple[float, float]:
        """(first probe time, last probe time) of one coverage pass."""
        start = (sweep * self.sweep_size + 1) / self.rate
        return (start, ((sweep + 1) * self.sweep_size) / self.rate)


def build_policy(
    name: str,
    targets: Sequence[int],
    ports: Sequence[int],
    rate: float,
    seed: int,
    calendar: Calendar,
    end: float,
):
    """Construct the named policy (the CLI/engine entry point)."""
    if name == "periodic":
        return PeriodicSweepPolicy(targets, ports, rate, calendar, end)
    if name == "heartbeat":
        return HeartbeatPolicy(targets, ports, rate, seed, end)
    raise ValueError(
        f"unknown probe policy {name!r}; expected one of {POLICY_NAMES}"
    )
