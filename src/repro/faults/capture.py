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

The entry point, :meth:`CaptureFilter.keep_mask`, is array code that
reproduces the record-at-a-time definition (``tests/passive_reference.py``)
bit for bit by drawing from the *same* Mersenne Twister stream in bulk:
``numpy.random.RandomState.random_sample`` computes the identical
53-bit double from the identical MT19937 state as
``random.Random.random``, and each class of record consumes a fixed
number of uniforms -- outage: 0; inside a burst: 0; burst entry: 1 plus
the continuation draws; otherwise 1 per enabled test (burst, then
i.i.d.).  ``random.Random.getstate()`` stays the state of record, so
checkpoints keep their format.

A filter instance is single-pass: it must see each record of the pass
exactly once.  Build a fresh one per pass
(:meth:`repro.faults.plan.FaultPlan.capture_filter`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.simkernel.rng import derive_seed


class _LinkState:
    """Loss-process state for one link."""

    __slots__ = ("rng", "burst_remaining", "outage_bounds")

    def __init__(
        self,
        seed: int,
        link: str,
        windows: tuple[tuple[float, float], ...],
    ) -> None:
        self.rng = random.Random(derive_seed(seed, f"faults.capture.{link}"))
        self.burst_remaining = 0
        #: The outage windows as (starts, ends) arrays.
        self.outage_bounds = tuple(
            np.array(windows, dtype=np.float64).reshape(-1, 2).T.copy()
        )


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
        self._loss = plan.capture_loss_rate
        self._burst = plan.burst_loss_rate
        self._burst_continue = (
            1.0 - 1.0 / plan.burst_mean_length if self._burst > 0.0 else 0.0
        )
        self._has_outages = plan.outage_fraction > 0.0
        #: numpy front end onto the per-link MT19937 streams (keep_mask).
        self._bulk = np.random.RandomState(0)

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

    def keep_mask(self, times, link_indices, link_names: tuple[str, ...]):
        """Whether the monitors see each record: a boolean keep mask.

        *times* and *link_indices* are parallel per-record sequences
        (a :class:`repro.trace.columnar.RecordColumns` batch's ``time``
        and ``link`` columns, or plain lists); *link_names* decodes the
        indices.  Each link's records are decided together, in stream
        order: outage windows by ``searchsorted``, then the loss
        process from bulk draws of the link's own Mersenne Twister
        stream (see the module docstring).  Mask, ``stats`` and
        :meth:`state_dict` come out exactly as if every record had been
        decided one at a time, in stream order.
        """
        times = np.asarray(times, dtype=np.float64)
        links = np.asarray(link_indices)
        mask = np.empty(len(times), dtype=bool)
        per_link = []
        for index, name in enumerate(link_names):
            rows = np.flatnonzero(links == index)
            if rows.size:
                per_link.append((name, rows))
        if sum(rows.size for _, rows in per_link) != len(times):
            raise IndexError("link index outside link_names")
        # First-appearance order: link states are created lazily, and
        # state_dict() lists them in creation order.
        per_link.sort(key=lambda item: item[1][0])
        for name, rows in per_link:
            mask[rows] = self._link_mask(self._state(name), times[rows])
        return mask

    def _link_mask(self, state: _LinkState, times: np.ndarray) -> np.ndarray:
        """Keep decisions for one link's records, in stream order."""
        starts, ends = state.outage_bounds
        if self._has_outages and starts.size:
            # Most batches fall between maintenance windows: the first
            # window still open at the earliest record starts after the
            # latest one, and nothing below applies.
            first = np.searchsorted(ends, times.min(), side="right")
            if first < starts.size and starts[first] <= times.max():
                window = np.searchsorted(starts, times, side="right") - 1
                outage = (window >= 0) & (times < ends[window])
                self.stats.dropped_outage += int(np.count_nonzero(outage))
                # Records inside an outage never reach the capture
                # stack, so the loss process runs over the others alone.
                lit = np.flatnonzero(~outage)
                keep = np.zeros(len(times), dtype=bool)
                keep[lit] = self._loss_mask(state, lit.size)
                return keep
        return self._loss_mask(state, len(times))

    def _loss_mask(self, state: _LinkState, count: int) -> np.ndarray:
        """The loss process over a link's next *count* non-outage records."""
        keep = np.ones(count, dtype=bool)
        carried = min(state.burst_remaining, count)
        if carried:
            state.burst_remaining -= carried
            keep[:carried] = False
        if carried < count:
            if self._burst > 0.0:
                self._burst_walk(state, keep, carried)
            elif self._loss > 0.0:
                # One uniform per record, so the draw count is exact.
                self._bulk_load(state.rng)
                drawn = self._bulk.random_sample(count - carried)
                keep[carried:] = drawn >= self._loss
                self._bulk_store(state.rng)
        kept = int(np.count_nonzero(keep))
        self.stats.kept += kept
        self.stats.dropped_loss += count - kept
        return keep

    def _burst_walk(self, state: _LinkState, keep: np.ndarray, record: int) -> None:
        """Bursts plus i.i.d. loss over ``keep[record:]`` (all True on entry).

        How many uniforms the records consume depends on where bursts
        fire, so a block is drawn speculatively -- enough for every
        remaining record to take the no-burst path -- and only the
        burst *events* are walked in Python: each one shifts the
        stream offset of everything after it.  Afterwards the stream
        is rewound and exactly the consumed count is discarded.
        """
        burst, go_on, loss = self._burst, self._burst_continue, self._loss
        stride = 2 if loss > 0.0 else 1  # uniforms per no-burst record
        origin = self._bulk_load(state.rng)
        count = len(keep)
        block = entries = stops = np.empty(0)
        position = 0  # stream offset of *record*'s burst-entry test
        want = 0
        while record < count:
            reach = position + stride * (count - record)
            want = max(want, reach)
            if want > block.size:
                fresh = self._bulk.random_sample(want - block.size + 64)
                block = np.concatenate((block, fresh))
                entries = np.flatnonzero(block < burst)
                stops = np.flatnonzero(block >= go_on)
            # The next burst entry is the first in-phase offset whose
            # uniform is under the entry rate (out-of-phase offsets
            # hold i.i.d. tests).
            entry = reach
            for offset in entries[np.searchsorted(entries, position):]:
                if offset >= reach:
                    break
                if (offset - position) % stride == 0:
                    entry = int(offset)
                    break
            quiet = (entry - position) // stride
            if stride == 2:
                keep[record:record + quiet] = block[position + 1:entry:2] >= loss
            record += quiet
            position = entry
            if record == count:
                break
            # Continuation draws run up to the first uniform that ends
            # the run; ``length`` of them are consumed.
            stop = np.searchsorted(stops, entry + 1)
            if stop == stops.size:
                want = 2 * block.size
                continue
            length = int(stops[stop]) - entry
            skipped = min(length - 1, count - record - 1)
            keep[record:record + 1 + skipped] = False
            state.burst_remaining = length - 1 - skipped
            record += 1 + skipped
            position = entry + 1 + length
        self._bulk.set_state(origin)
        self._bulk.random_sample(position)
        self._bulk_store(state.rng)

    # The bridge between the two Mersenne Twister front ends.  Python's
    # ``getstate()`` is (version, 624 key words + position, gauss_next);
    # numpy's legacy state is ("MT19937", key, position, ...).

    def _bulk_load(self, rng: random.Random) -> tuple:
        """Point the bulk generator at *rng*'s place in its stream."""
        internal = rng.getstate()[1]
        origin = (
            "MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1]
        )
        self._bulk.set_state(origin)
        return origin

    def _bulk_store(self, rng: random.Random) -> None:
        """Write the bulk generator's place in the stream back to *rng*."""
        version, _, gauss_next = rng.getstate()
        _, key, position = self._bulk.get_state()[:3]
        rng.setstate((version, (*key.tolist(), position), gauss_next))

    def filter_columns(self, cols):
        """The records of a ``RecordColumns`` batch the monitors see.

        The one home of the mask-then-compress step every batch
        consumer applies; returns *cols* itself when nothing dropped.
        """
        mask = self.keep_mask(cols.time, cols.link, cols.link_names)
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
