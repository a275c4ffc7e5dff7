"""The per-record passive observers: the reference model for differential tests.

Every pass reaches an observer through ``observe_columns`` alone.  The
record-at-a-time rules each observer was defined by live here, as
subclasses that add ``observe`` (or ``keep`` / ``keep_record``) and
inherit everything else -- construction, queries, the columnar entry
point -- so a test comparing the two compares exactly the code that
was replaced.  :meth:`PassiveServiceTable.observe` itself stays in
``repro`` (the benchmark times the record tier through it), so the
tables here are the production ones.
"""

from __future__ import annotations

import bisect
import hashlib

from repro.faults.capture import CaptureFilter
from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.passive.sampling import (
    CountBudgetSampler,
    ProbabilisticSampler,
    SamplingTable,
)
from repro.passive.scandetect import ExternalScanDetector
from repro.passive.taps import LinkTap, MultiLinkMonitor
from repro.passive.windows import WindowActivityObserver
from repro.simkernel.clock import minutes
from repro.telemetry.tap import ReplayTap


def replay(stream, *observers, faults=None) -> int:
    """Push every record of *stream* into all *observers*; return count.

    The per-record definition of a pass, which ``replay_columnar`` must
    equal under any batch cuts.  *faults* (a
    :class:`ReferenceCaptureFilter`) drops records before every
    observer; the count is what the observers saw.
    """
    if faults is not None:
        stream = (record for record in stream if faults.keep(record))
    count = 0
    observe_methods = [observer.observe for observer in observers]
    for record in stream:
        for observe in observe_methods:
            observe(record)
        count += 1
    return count


# ---- capture faults ------------------------------------------------------


class ReferenceCaptureFilter(CaptureFilter):
    """:class:`CaptureFilter` deciding one record at a time."""

    def keep(self, record) -> bool:
        """Whether the monitors see *record*; advances the loss state."""
        return self._keep(record.link, record.time)

    def _keep(self, link: str, time: float) -> bool:
        """The decision core: pure function of the (link, time) stream."""
        state = self._state(link)
        starts, ends = state.outage_bounds
        index = bisect.bisect_right(starts, time) - 1
        if self._has_outages and index >= 0 and time < ends[index]:
            # The monitor is off: the record never reaches the capture
            # stack, so it does not advance the loss process either.
            self.stats.dropped_outage += 1
            return False
        if state.burst_remaining > 0:
            state.burst_remaining -= 1
            self.stats.dropped_loss += 1
            return False
        rng_random = state.rng.random
        if self._burst > 0.0 and rng_random() < self._burst:
            # Enter a bad state: this record and a geometric run of
            # followers are lost.  Mean run length = burst_mean_length.
            length = 1
            while rng_random() < self._burst_continue:
                length += 1
            state.burst_remaining = length - 1
            self.stats.dropped_loss += 1
            return False
        if self._loss > 0.0 and rng_random() < self._loss:
            self.stats.dropped_loss += 1
            return False
        self.stats.kept += 1
        return True


def capture_filter(plan, duration: float) -> ReferenceCaptureFilter | None:
    """``plan.capture_filter(duration)`` with the per-record ``keep``."""
    if not plan.has_capture_faults:
        return None
    return ReferenceCaptureFilter(plan=plan, duration=duration)


# ---- taps ----------------------------------------------------------------


class ReferenceLinkTap(LinkTap):
    def observe(self, record) -> None:
        if (
            self.faults is not None
            and record.link == self.link
            and not self.faults.keep(record)
        ):
            return
        self.table.observe(record)


class ReferenceMultiLinkMonitor(MultiLinkMonitor):
    def observe(self, record) -> None:
        if self.faults is not None and not self.faults.keep(record):
            return
        self.combined.observe(record)
        tap = self.taps.get(record.link)
        if tap is not None:
            ReferenceLinkTap.observe(tap, record)


class ReferenceWindowActivityObserver(WindowActivityObserver):
    def _window_of(self, t: float) -> int | None:
        index = bisect.bisect_right(self._starts, t) - 1
        if index < 0:
            return None
        start, end = self.windows[index]
        return index if start <= t < end else None

    def observe(self, record) -> None:
        if record.proto == PROTO_TCP:
            if not record.flags.is_synack:
                return
            port = record.sport
            if self.tcp_ports is not None and port not in self.tcp_ports:
                return
        elif record.proto == PROTO_UDP:
            if record.sport not in self.udp_ports:
                return
        else:
            return
        if not self.is_campus(record.src) or self.is_campus(record.dst):
            return
        window = self._window_of(record.time)
        if window is None:
            return
        self.hits.setdefault(record.src, set()).add(window)


class ReferenceScanDetector(ExternalScanDetector):
    def observe(self, record) -> None:
        if record.proto != PROTO_TCP:
            return
        window = int(record.time // self.config.window_seconds)
        if record.flags.is_syn:
            if self.is_campus(record.src) or not self.is_campus(record.dst):
                return
            self._note(self._targets, (record.src, window), record.dst)
        elif record.flags.is_rst:
            if not self.is_campus(record.src) or self.is_campus(record.dst):
                return
            self._note(self._rst_sources, (record.dst, window), record.src)


class ReferenceReplayTap(ReplayTap):
    __slots__ = ()

    def observe(self, record) -> None:
        self.records += 1
        link = record.link
        self.by_link[link] = self.by_link.get(link, 0) + 1
        proto = record.proto
        self.by_proto[proto] = self.by_proto.get(proto, 0) + 1
        if proto == PROTO_TCP and record.flags._value_ & 0x12 == 0x12:
            self.synacks += 1


# ---- sampling ------------------------------------------------------------


class ReferenceProbabilisticSampler(ProbabilisticSampler):
    def keep_record(self, record) -> bool:
        digest = hashlib.blake2b(
            f"{self.salt}:{record.time}:{record.src}:{record.dst}:"
            f"{record.sport}:{record.dport}".encode("ascii"),
            digest_size=8,
        ).digest()
        return int.from_bytes(digest, "big") / 2**64 < self.probability


class ReferenceCountBudgetSampler(CountBudgetSampler):
    def keep_record(self, record) -> bool:
        period = minutes(self.period_minutes)
        index = int((record.time - self.anchor) // period)
        if index != self._window_index:
            self._window_index = index
            self._taken = 0
        if self._taken < self.budget_per_period:
            self._taken += 1
            return True
        return False


class ReferenceSamplingTable(SamplingTable):
    """Needs a reference sampler (one with ``keep_record``)."""

    def observe(self, record) -> None:
        if self.sampler.keep_record(record):
            self.kept += 1
            self.table.observe(record)
        else:
            self.dropped += 1
