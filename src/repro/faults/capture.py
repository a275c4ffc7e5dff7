"""Capture loss and monitor outages at the border taps.

A :class:`CaptureFilter` decides, record by record, whether the
monitoring infrastructure actually *saw* a captured header.  Three
failure modes compose, checked in order:

1. **Scheduled outages** -- the link's monitor is down for maintenance;
   every record on that link inside an outage window is invisible.
   Pure function of ``(plan seed, link, time)``.
2. **Loss bursts** -- a Gilbert-style bad state entered with
   ``burst_loss_rate`` per record and lasting a geometric number of
   records (buffer overruns swallow runs of packets, not singletons).
3. **i.i.d. loss** -- independent per-record drops at
   ``capture_loss_rate`` (steady-state overload).

Loss state is kept *per link* and advanced only by records on that
link, so the drop pattern a link experiences is a pure function of the
sequence of records crossing it -- identical whether the pass is
generated fresh, streamed from the trace cache, consumed record by
record or in batches, or replayed in a different worker process.

A filter instance is single-pass: it must see each record of the pass
exactly once.  Build a fresh one per pass
(:meth:`repro.faults.plan.FaultPlan.capture_filter`).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass

from repro.net.packet import PacketRecord
from repro.simkernel.rng import derive_seed


class _LinkState:
    """Loss-process state for one link."""

    __slots__ = ("rng", "burst_remaining", "outage_starts", "outage_ends")

    def __init__(
        self,
        seed: int,
        link: str,
        windows: tuple[tuple[float, float], ...],
    ) -> None:
        self.rng = random.Random(derive_seed(seed, f"faults.capture.{link}"))
        self.burst_remaining = 0
        self.outage_starts = [start for start, _ in windows]
        self.outage_ends = [end for _, end in windows]

    def in_outage(self, t: float) -> bool:
        index = bisect_right(self.outage_starts, t) - 1
        return index >= 0 and t < self.outage_ends[index]


@dataclass
class CaptureStats:
    """What one pass's filter did, for degradation reporting."""

    kept: int = 0
    dropped_loss: int = 0
    dropped_outage: int = 0

    @property
    def seen(self) -> int:
        return self.kept + self.dropped_loss + self.dropped_outage

    @property
    def dropped(self) -> int:
        return self.dropped_loss + self.dropped_outage

    @property
    def drop_fraction(self) -> float:
        seen = self.seen
        return self.dropped / seen if seen else 0.0


class CaptureFilter:
    """Single-pass, per-link record filter for one replay.

    Parameters
    ----------
    plan:
        The fault plan supplying rates and the seed.
    duration:
        Length of the observation; outage windows are laid out over
        ``[0, duration)``.
    """

    def __init__(self, plan, duration: float) -> None:
        self.plan = plan
        self.duration = duration
        self.stats = CaptureStats()
        self._links: dict[str, _LinkState] = {}
        # Hoisted rates: keep() sits on the per-record hot path.
        self._loss = plan.capture_loss_rate
        self._burst = plan.burst_loss_rate
        self._burst_continue = (
            1.0 - 1.0 / plan.burst_mean_length if self._burst > 0.0 else 0.0
        )
        self._has_outages = plan.outage_fraction > 0.0

    def _state(self, link: str) -> _LinkState:
        state = self._links.get(link)
        if state is None:
            windows = self.plan.outage_windows(link, self.duration)
            state = _LinkState(self.plan.seed, link, windows)
            self._links[link] = state
        return state

    def outage_windows_for(self, link: str) -> tuple[tuple[float, float], ...]:
        """The maintenance windows this filter applies to *link*."""
        return self.plan.outage_windows(link, self.duration)

    def keep(self, record: PacketRecord) -> bool:
        """Whether the monitors see *record*; advances the loss state."""
        return self._keep(record.link, record.time)

    def _keep(self, link: str, time: float) -> bool:
        """The decision core: pure function of the (link, time) stream."""
        state = self._state(link)
        if self._has_outages and state.in_outage(time):
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

    def keep_mask(self, times: list[float], link_indices: list[int],
                  link_names: tuple[str, ...]):
        """Columnar counterpart of :meth:`keep`: a boolean keep mask.

        *times* and *link_indices* are parallel per-record sequences
        (a :class:`repro.trace.columnar.RecordColumns` batch's ``time``
        and ``link`` columns, as lists); *link_names* decodes the
        indices.  The decision loop is the exact scalar core --
        per-link RNG streams advance record by record in stream order
        -- so the drop pattern is bit-identical to filtering the same
        records through :meth:`keep`, without materialising a single
        ``PacketRecord``.
        """
        import numpy as np

        keep = self._keep
        return np.fromiter(
            (keep(link_names[index], time)
             for time, index in zip(times, link_indices)),
            dtype=bool, count=len(times),
        )

    def filter_columns(self, cols):
        """The records of a ``RecordColumns`` batch the monitors see.

        The one home of the mask-then-compress step every batch
        consumer applies; returns *cols* itself when nothing dropped.
        """
        mask = self.keep_mask(
            cols.time.tolist(), cols.link.tolist(), cols.link_names
        )
        return cols if mask.all() else cols.compress(mask)

    # ---- checkpoint support -------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of the filter's mutable state (picklable plain data).

        A filter is single-pass, so a resumed stream run cannot build a
        fresh one -- it must continue the *same* per-link loss processes
        (RNG position, any in-progress burst) or the post-resume drop
        pattern would diverge from an uninterrupted run.  Outage windows
        are pure functions of the plan and are not stored.
        """
        return {
            "stats": {
                "kept": self.stats.kept,
                "dropped_loss": self.stats.dropped_loss,
                "dropped_outage": self.stats.dropped_outage,
            },
            "links": {
                link: {
                    "rng_state": state.rng.getstate(),
                    "burst_remaining": state.burst_remaining,
                }
                for link, state in self._links.items()
            },
        }

    def restore_state(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto a fresh filter.

        The filter must have been built from the same plan and duration
        the snapshot was taken under; per-link states not present in
        the snapshot stay lazily initialised as usual.
        """
        stats = payload.get("stats", {})
        self.stats.kept = int(stats.get("kept", 0))
        self.stats.dropped_loss = int(stats.get("dropped_loss", 0))
        self.stats.dropped_outage = int(stats.get("dropped_outage", 0))
        self._links.clear()
        for link, saved in payload.get("links", {}).items():
            state = self._state(link)
            state.rng.setstate(saved["rng_state"])
            state.burst_remaining = int(saved["burst_remaining"])
