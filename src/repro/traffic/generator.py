"""Composition of all traffic sources into the border capture.

:func:`border_column_batches` is what dataset builders hand to passive
observers: one pass over every packet a tap at the campus border would
capture during ``[start, end)``, as :class:`RecordColumns` batches.  It
is deterministic in ``(population, mix, seed)``, so a dataset can be
replayed as many times as the analyses need, and it is a stream: the
capture is generated a *window* of simulated time at a time, each
window about :data:`~repro.trace.columnar.DEFAULT_BATCH_RECORDS`
records, so a pass holds a window, the sweeps in progress and the
services' client pools -- never the capture.

**Order.**  The capture is *approximately* time-ordered: the order a
tap would deliver if each source (the client flows, every sweep, the
outbound noise) wrote its packets as it scheduled them -- a flow's
SYN, SYN-ACK and ACK back to back, although the next flow may start
before the SYN-ACK is due -- and the sources were merged on packet
time (``heapq.merge``; ``tests/traffic_reference.py`` is that
definition, record by record).  Such a merge emits an item whose time
is below its predecessor's in the same source *immediately* (every
other source's head is already at or past the predecessor), so it is
exactly a stable sort of the sources' concatenation by each source's
*running maximum* of time, ties to the earlier source.  That key is
what the generator sorts by, and because it never decreases within a
source, cutting it into half-open windows and sorting each window
yields the same capture whatever the cuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable, Generator, Iterable, Iterator

import numpy as np

from repro.campus.population import CampusPopulation
from repro.simkernel.clock import Calendar
from repro.simkernel.rng import RngStreams
from repro.simkernel.schedule import DiurnalProfile
from repro.telemetry.metrics import registry as _telemetry_registry
from repro.trace.columnar import COLUMN_FIELDS, DEFAULT_BATCH_RECORDS, RecordColumns
from repro.traffic.clients import _client_flows
from repro.traffic.noise import _outbound_noise
from repro.traffic.scans import ScanPlan, ScanSweep, _sweep_packets

#: Version stamp of the generated stream.  Bump whenever a change makes
#: :func:`border_column_batches` emit different records for the same
#: ``(population, mix, seed)`` -- it keys the record-once trace cache,
#: so stale recordings are invalidated automatically.
GENERATOR_VERSION = 1


@dataclass(frozen=True)
class TrafficMix:
    """Everything that shapes a dataset's border traffic.

    Attributes
    ----------
    scan_plan:
        The realised external scan schedule (may be empty).
    diurnal:
        Day/night modulation for client arrivals; None disables it.
    academic_fraction:
        Probability that a legitimate client routes via Internet2.
    outbound_noise_flows_per_day:
        Rate of campus-as-client browse flows.
    """

    scan_plan: ScanPlan
    diurnal: DiurnalProfile | None = None
    academic_fraction: float = 0.0
    outbound_noise_flows_per_day: float = 0.0

    @classmethod
    def quiet(cls) -> "TrafficMix":
        """A mix with no scans and no noise (unit tests)."""
        return cls(scan_plan=ScanPlan(sweeps=()))


def default_diurnal(calendar: Calendar) -> DiurnalProfile:
    """The standard campus diurnal profile used by all datasets."""
    return DiurnalProfile(calendar=calendar)


#: Simulated seconds the first window spans, before any has been
#: measured, and how fast a window may grow on the last one's evidence
#: (a near-empty window says little about the next one's rate).
_FIRST_WINDOW_SECONDS = 60.0
_WINDOW_GROWTH = 4.0


def _concat(parts: list[RecordColumns]) -> RecordColumns:
    return RecordColumns(*(
        np.concatenate([getattr(part, name) for part in parts])
        for name, _ in COLUMN_FIELDS
    ))


class _Leaf:
    """One source of the merge, as columns: its packets in the order it
    writes them, keyed by the running maximum of their times.

    *feed(bound)* returns the packets of everything the source starts
    below *bound* and has not returned yet (or None).  Packets due at
    or past a bound -- a reply across the boundary -- wait here for
    the window they belong to.
    """

    def __init__(
        self, category: str, feed: Callable[[float], RecordColumns | None]
    ) -> None:
        self.category = category
        #: Rows handed to the merge so far.
        self.emitted = 0
        self._feed = feed
        self._rows: RecordColumns | None = None
        self._keys: np.ndarray | None = None
        self._high = -inf

    def below(self, bound: float) -> tuple[RecordColumns, np.ndarray] | None:
        """Detach the rows whose key is below *bound*, with their keys.

        The key never decreases, so they are a prefix.
        """
        fresh = self._feed(bound)
        if fresh is not None and len(fresh):
            keys = np.maximum.accumulate(fresh.time)
            np.maximum(keys, self._high, out=keys)
            self._high = keys[-1]
            if self._rows is not None:
                fresh = _concat([self._rows, fresh])
                keys = np.concatenate([self._keys, keys])
            self._rows, self._keys = fresh, keys
        if self._rows is None:
            return None
        rows, keys = self._rows, self._keys
        cut = int(np.searchsorted(keys, bound, side="left"))
        if cut == 0:
            return None
        if cut == len(keys):
            # Nothing waits: let go of the arrays (a finished sweep's).
            self._rows = self._keys = None
        else:
            self._rows, self._keys = rows.slice(cut), keys[cut:]
        self.emitted += cut
        return rows.slice(0, cut), keys[:cut]


def _sweep_feed(
    population: CampusPopulation, sweep: ScanSweep, streams: RngStreams, end: float
) -> Callable[[float], RecordColumns | None]:
    """A sweep's packets, all at once in the window it starts in: its
    arrays exist only from then until the merge has taken the last.  A
    sweep due at or past *end* never starts (and never samples)."""
    started = False

    def feed(bound: float) -> RecordColumns | None:
        nonlocal started
        if started or sweep.start >= min(bound, end):
            return None
        started = True
        return _sweep_packets(population, sweep, streams, end)

    return feed


def _paced_bounds(
    start: float, end: float, sweeps: Iterable[ScanSweep], space_size: int
) -> Generator[float, int, None]:
    """Window bounds that keep a window near ``DEFAULT_BATCH_RECORDS`` rows.

    Sent the row count of the window it just bounded, it sizes the next
    one by the rate that implies.  What no measurement predicts is a
    sweep big enough to fill windows by itself (tens to hundreds of
    probes a second for minutes, against a background of well under one
    a second): a window ends where such a sweep starts, and the sweep's
    own probe rate caps the windows from there.  Smaller sweeps ride in
    whatever window they start in.  The last bound is ``inf``.
    """
    heavy = sorted(
        (sweep.start, sweep.rate) for sweep in sweeps
        if sweep.coverage * space_size >= DEFAULT_BATCH_RECORDS
    )
    span, low, nxt = _FIRST_WINDOW_SECONDS, start, 0
    while True:
        while nxt < len(heavy) and heavy[nxt][0] <= low:
            span = min(span, DEFAULT_BATCH_RECORDS / heavy[nxt][1])
            nxt += 1
        high = low + span
        if nxt < len(heavy):
            high = min(high, heavy[nxt][0])
        if high >= end:
            yield inf
            return
        rows = yield high
        span = min(
            _WINDOW_GROWTH * span,
            (high - low) * DEFAULT_BATCH_RECORDS / max(rows, 1),
        )
        low = high


def _merged_windows(
    leaves: list[_Leaf], pacing: Generator[float, int, None]
) -> Iterator[RecordColumns]:
    """Merge *leaves* (in tie-breaking order) one window at a time.

    A window is the rows whose key lies below the next bound *pacing*
    yields (ascending, ending with ``inf``; it is sent the rows the
    last window held), each leaf's share concatenated in leaf order and
    sorted stably by key.
    """
    bound = next(pacing)
    while True:
        parts = [
            part for leaf in leaves
            if (part := leaf.below(bound)) is not None
        ]
        rows = 0
        if parts:
            keys = np.concatenate([keys for _, keys in parts])
            window = _concat([columns for columns, _ in parts]).take(
                np.argsort(keys, kind="stable")
            )
            rows = len(window)
            yield window
        if bound == inf:
            return
        bound = pacing.send(rows)


def _border_windows(
    population: CampusPopulation,
    mix: TrafficMix,
    seed: int,
    start: float,
    end: float,
    bounds: Iterable[float] | None = None,
) -> Iterator[RecordColumns]:
    """The capture, one window of the merge key at a time.

    *bounds* (ascending; tests only) replaces the paced bounds: the
    capture does not depend on where the windows are cut.  The last
    window is unbounded either way -- replies to the flows that start
    just before *end* fall past it.
    """
    streams = RngStreams(seed)
    clients = _client_flows(
        population, streams, mix.diurnal, start, end, mix.academic_fraction
    )
    sweeps = mix.scan_plan.sweeps
    # Merge order: clients, each sweep in plan order, noise.
    leaves = [_Leaf("client", clients)]
    leaves += [
        _Leaf("scan", _sweep_feed(population, sweep, streams, end))
        for sweep in sweeps
    ]
    if mix.outbound_noise_flows_per_day > 0:
        leaves.append(_Leaf("noise", _outbound_noise(
            population, streams, mix.outbound_noise_flows_per_day, start, end
        )))
    pacing = (
        _paced_bounds(start, end, sweeps, population.topology.space.size)
        if bounds is None
        else (bound for bound in (*bounds, inf))
    )
    try:
        yield from _merged_windows(leaves, pacing)
    finally:
        # Once per pass, however it ends: run out, closed early by
        # ``stop_after_records`` or by an observer's exception.
        reg = _telemetry_registry()
        reg.counter(
            "repro_traffic_flows_total",
            "Traffic flows generated, by source category.",
            category="client",
        ).inc(clients.log.flows)
        totals: dict[str, int] = {}
        for leaf in leaves:
            totals[leaf.category] = totals.get(leaf.category, 0) + leaf.emitted
        for category, count in totals.items():
            reg.counter(
                "repro_traffic_records_total",
                "Packet records generated, by source category.",
                category=category,
            ).inc(count)


def border_column_batches(
    population: CampusPopulation,
    mix: TrafficMix,
    seed: int,
    start: float,
    end: float,
    batch_records: int = DEFAULT_BATCH_RECORDS,
    skip: int = 0,
) -> Iterator[RecordColumns]:
    """One pass over the border capture for ``[start, end)``, as batches.

    The three sources -- client flows (expanded to their SYN / SYN-ACK /
    ACK or request / reply packets), external scan sweeps, and outbound
    noise -- merged on packet time (module docstring).  Every batch but
    the last holds exactly *batch_records* rows, counted from row
    *skip* on: the rows before it are generated (there is nothing to
    seek in) and dropped.
    """
    if batch_records <= 0:
        raise ValueError("batch_records must be positive")
    if skip < 0:
        raise ValueError("skip must be >= 0")
    windows = _border_windows(population, mix, seed, start, end)
    held: list[RecordColumns] = []
    count = 0
    try:
        for window in windows:
            if skip:
                dropped = min(skip, len(window))
                skip -= dropped
                window = window.slice(dropped)
            held.append(window)
            count += len(window)
            if count >= batch_records:
                rows = _concat(held)
                whole = count - count % batch_records
                for low in range(0, whole, batch_records):
                    yield rows.slice(low, low + batch_records)
                held = [rows.slice(whole)] if whole < count else []
                count -= whole
        if count:
            yield _concat(held)
    finally:
        windows.close()
