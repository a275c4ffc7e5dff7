"""Tests for the reference event queue and loop."""

import pytest

from repro.simkernel.clock import SimClock
from tests.events_reference import Event, EventLoop, EventQueue


class TestEventQueue:
    def test_empty(self):
        queue = EventQueue()
        assert len(queue) == 0
        assert not queue
        assert queue.peek_time() is None

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_orders_by_time(self):
        queue = EventQueue()
        queue.schedule(5.0, lambda: None, label="late")
        queue.schedule(1.0, lambda: None, label="early")
        assert queue.pop().label == "early"
        assert queue.pop().label == "late"

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None, label="first")
        queue.schedule(1.0, lambda: None, label="second")
        assert queue.pop().label == "first"
        assert queue.pop().label == "second"

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(-1.0, lambda: None)

    def test_payload_passed_to_action(self):
        got = []
        event = Event(time=0.0, sequence=0, action=got.append, payload="data")
        event.fire()
        assert got == ["data"]

    def test_no_payload_calls_without_args(self):
        fired = []
        event = Event(time=0.0, sequence=0, action=lambda: fired.append(1))
        event.fire()
        assert fired == [1]


class TestEventLoop:
    def test_run_until_advances_clock(self):
        loop = EventLoop()
        loop.run_until(10.0)
        assert loop.clock.now == 10.0

    def test_executes_in_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(2.0, lambda: order.append("b"))
        loop.schedule(1.0, lambda: order.append("a"))
        loop.run_until(5.0)
        assert order == ["a", "b"]

    def test_events_after_deadline_stay_queued(self):
        loop = EventLoop()
        fired = []
        loop.schedule(7.0, lambda: fired.append(1))
        count = loop.run_until(5.0)
        assert count == 0
        assert not fired
        loop.run_until(10.0)
        assert fired == [1]

    def test_cannot_schedule_in_past(self):
        loop = EventLoop(SimClock(10.0))
        with pytest.raises(ValueError):
            loop.schedule(5.0, lambda: None)

    def test_actions_may_schedule_more(self):
        loop = EventLoop()
        order = []

        def chain():
            order.append("first")
            loop.schedule_after(1.0, lambda: order.append("second"))

        loop.schedule(1.0, chain)
        loop.run_until(10.0)
        assert order == ["first", "second"]

    def test_run_all_executes_everything(self):
        loop = EventLoop()
        fired = []
        for t in (3.0, 1.0, 2.0):
            loop.schedule(t, fired.append, payload=t)
        assert loop.run_all() == 3
        assert fired == [1.0, 2.0, 3.0]

    def test_run_all_safety_limit(self):
        loop = EventLoop()

        def reschedule():
            loop.schedule_after(1.0, reschedule)

        loop.schedule(0.0, reschedule)
        with pytest.raises(RuntimeError):
            loop.run_all(safety_limit=100)

    def test_events_fired_counter(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        loop.run_until(10.0)
        assert loop.events_fired == 2
