"""The per-record passive observers: the reference model for differential tests.

Every pass reaches an observer through ``observe_columns`` alone.  The
record-at-a-time rules each observer was defined by live here, as
subclasses that add ``observe`` (or ``keep`` / ``keep_record``; the
fixed-period sampler also has its ``fraction`` and ``windows_in``) and inherit
everything else -- construction, queries, the columnar entry point --
so a test comparing the two compares exactly the code that was
replaced.  :meth:`PassiveServiceTable.observe` itself stays in
``repro`` (the benchmark times the record tier through it), so the
tables here are the production ones.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import random

from repro.faults.capture import CaptureFilter, _numpy_state, _python_state
from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.passive.sampling import (
    PERIOD_SECONDS,
    CountBudgetSampler,
    FixedPeriodSampler,
    ProbabilisticSampler,
    SamplingTable,
)
from repro.passive.scandetect import WINDOW_SECONDS, ExternalScanDetector
from repro.passive.taps import MultiLinkMonitor
from repro.passive.windows import WindowActivityObserver
from repro.simkernel.clock import minutes
from repro.simkernel.rng import derive_seed
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
    """:class:`CaptureFilter` deciding one record at a time.

    Each link draws from its own ``random.Random``, never from the
    production link state's numpy generator, so the differential holds
    ``keep_mask``'s bulk draws to Python's generator.  Those streams
    are the filter's state whichever entry point advanced them: a
    batch through :meth:`keep_mask` runs the production path on them.
    """

    def __init__(self, plan, duration: float) -> None:
        super().__init__(plan, duration)
        self._rngs: dict[str, random.Random] = {}

    def _rng(self, link: str) -> random.Random:
        rng = self._rngs.get(link)
        if rng is None:
            seed = derive_seed(self.plan.seed, f"faults.capture.{link}")
            rng = self._rngs[link] = random.Random(seed)
        return rng

    def state_dict(self) -> dict:
        return {
            "stats": dataclasses.asdict(self.stats),
            "links": {
                link: {
                    "rng_state": self._rng(link).getstate(),
                    "burst_remaining": state.burst_remaining,
                }
                for link, state in self._links.items()
            },
        }

    def restore_state(self, payload: dict) -> None:
        super().restore_state(payload)
        self._rngs.clear()
        for link, saved in payload.get("links", {}).items():
            self._rng(link).setstate(saved["rng_state"])

    def keep_mask(self, times, link_indices, link_names):
        for link, state in self._links.items():
            state.rng.set_state(_numpy_state(self._rng(link).getstate()))
        mask = super().keep_mask(times, link_indices, link_names)
        for link, state in self._links.items():
            self._rng(link).setstate(_python_state(state.rng))
        return mask

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
        rng_random = self._rng(link).random
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


# ---- per-link tables -----------------------------------------------------


class ReferenceMultiLinkMonitor(MultiLinkMonitor):
    def observe(self, record) -> None:
        self.combined.observe(record)
        tap = self.taps.get(record.link)
        if tap is not None:
            tap.observe(record)


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
        window = int(record.time // WINDOW_SECONDS)
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


class ReferenceFixedPeriodSampler(FixedPeriodSampler):
    @property
    def fraction(self) -> float:
        """Fraction of time the sampler keeps (e.g. 0.5 for 30-of-60)."""
        return minutes(self.sample_minutes) / PERIOD_SECONDS

    def keep_record(self, record) -> bool:
        return record.time % PERIOD_SECONDS < minutes(self.sample_minutes)

    def windows_in(self, start: float, end: float) -> list[tuple[float, float]]:
        """The concrete sample windows intersecting ``[start, end)``."""
        width = minutes(self.sample_minutes)
        out: list[tuple[float, float]] = []
        index = int(start // PERIOD_SECONDS)
        while True:
            w_start = index * PERIOD_SECONDS
            if w_start >= end:
                break
            lo, hi = max(w_start, start), min(w_start + width, end)
            if lo < hi:
                out.append((lo, hi))
            index += 1
        return out


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
        index = int(record.time // PERIOD_SECONDS)
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
