"""A binary-heap event queue, its clock and a small event-loop runner.

Nothing in ``repro`` schedules callbacks: the traffic generator and the
online prober are array code over time-ordered columns.  The queue and
clock that ``repro.simkernel`` once shipped for the control plane live
here, with ``tests/test_simkernel_events.py`` and
``tests/test_simkernel_clock.py``, until those tests are retired.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable



class SimClock:
    """A monotonically advancing simulation clock.

    It only remembers "now" and refuses to move backwards; the event
    loop advances it.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def advance_to(self, t: float) -> None:
        """Move the clock forward to time *t*; rewinding raises."""
        if t < self._now:
            raise ValueError(
                f"cannot move clock backwards: now={self._now}, requested={t}"
            )
        self._now = t

    def advance_by(self, dt: float) -> None:
        """Move the clock forward by *dt* seconds (*dt* must be >= 0)."""
        if dt < 0:
            raise ValueError(f"cannot advance by a negative duration: {dt}")
        self._now += dt


@dataclass(frozen=True, order=True)
class Event:
    """A scheduled callback.

    Events order by ``(time, sequence)``; the sequence number makes the
    ordering of simultaneous events deterministic (insertion order).
    """

    time: float
    sequence: int
    action: Callable[..., None] = field(compare=False)
    payload: Any = field(default=None, compare=False)
    label: str = field(default="", compare=False)

    def fire(self) -> None:
        """Invoke the event's action with its payload (if any)."""
        if self.payload is None:
            self.action()
        else:
            self.action(self.payload)


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        #: Total events ever scheduled.
        self.scheduled = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def schedule(
        self,
        time: float,
        action: Callable[..., None],
        payload: Any = None,
        label: str = "",
    ) -> Event:
        """Add an event at *time*; returns the Event (useful for tests)."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        event = Event(
            time=time,
            sequence=next(self._counter),
            action=action,
            payload=payload,
            label=label,
        )
        heapq.heappush(self._heap, event)
        self.scheduled += 1
        return event

    def peek_time(self) -> float | None:
        """Return the time of the next event, or None when empty."""
        if not self._heap:
            return None
        return self._heap[0].time

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("pop from an empty EventQueue")
        return heapq.heappop(self._heap)


class EventLoop:
    """Drives an :class:`EventQueue` against a :class:`SimClock`.

    The loop is re-entrant in the common DES sense: actions may schedule
    further events, including at the current time (they run after all
    previously queued events at that time).
    """

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.queue = EventQueue()
        self._fired = 0

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._fired

    def schedule(
        self,
        time: float,
        action: Callable[..., None],
        payload: Any = None,
        label: str = "",
    ) -> Event:
        """Schedule an event; *time* must not be in the loop's past."""
        if time < self.clock.now:
            raise ValueError(
                f"cannot schedule event in the past: now={self.clock.now}, "
                f"requested={time}"
            )
        return self.queue.schedule(time, action, payload, label)

    def schedule_after(
        self,
        delay: float,
        action: Callable[..., None],
        payload: Any = None,
        label: str = "",
    ) -> Event:
        """Schedule an event *delay* seconds from the current time."""
        return self.schedule(self.clock.now + delay, action, payload, label)

    def run_until(self, end_time: float) -> int:
        """Execute all events with ``time <= end_time``; return the count.

        The clock is left at *end_time* even if the queue drains early,
        so periodic sources can resume from a well-defined "now".
        """
        fired = 0
        while self.queue:
            next_time = self.queue.peek_time()
            assert next_time is not None
            if next_time > end_time:
                break
            event = self.queue.pop()
            self.clock.advance_to(event.time)
            event.fire()
            fired += 1
        self.clock.advance_to(max(self.clock.now, end_time))
        self._fired += fired
        return fired

    def run_all(self, safety_limit: int = 10_000_000) -> int:
        """Execute every queued event (events may enqueue more).

        *safety_limit* guards against runaway self-scheduling loops.
        """
        fired = 0
        while self.queue:
            if fired >= safety_limit:
                raise RuntimeError(
                    f"event loop exceeded safety limit of {safety_limit} events"
                )
            event = self.queue.pop()
            self.clock.advance_to(event.time)
            event.fire()
            fired += 1
        self._fired += fired
        return fired
