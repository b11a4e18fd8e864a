"""Tests for the deterministic event queue."""

import pytest

from repro.errors import SimulationError
from repro.sim import Event, EventQueue, NetworkTopology, ProtocolNode, Simulator


class TestEventQueue:
    def test_time_ordering(self):
        queue = EventQueue()
        fired = []
        queue.schedule(2.0, lambda: fired.append("late"))
        queue.schedule(1.0, lambda: fired.append("early"))
        for event in queue.drain():
            event.callback()
        assert fired == ["early", "late"]

    def test_fifo_tie_break(self):
        queue = EventQueue()
        fired = []
        for i in range(5):
            queue.schedule(1.0, lambda i=i: fired.append(i))
        for event in queue.drain():
            event.callback()
        assert fired == [0, 1, 2, 3, 4]

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError, match="negative"):
            EventQueue().schedule(-1.0, lambda: None)

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError, match="empty"):
            EventQueue().pop()

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.schedule(3.5, lambda: None)
        queue.schedule(1.5, lambda: None)
        assert queue.peek_time() == 1.5

    def test_counters(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        assert queue.pending == 2
        assert len(queue) == 2
        queue.pop()
        assert queue.dispatched == 1
        assert bool(queue)
        queue.pop()
        assert not queue

    def test_labels_preserved(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None, label="hello")
        assert queue.pop().label == "hello"


class Uncomparable:
    """A callback stand-in that refuses every ordering comparison."""

    def __lt__(self, other):
        raise AssertionError("callbacks must never be compared")

    __gt__ = __le__ = __ge__ = __lt__

    def __call__(self):
        pass


class TestEventTuples:
    def test_schedule_returns_an_event_tuple(self):
        event = EventQueue().schedule(1.0, lambda: None, label="x")
        assert isinstance(event, Event) and isinstance(event, tuple)
        assert (event.time, event.seq, event.label) == (1.0, 0, "x")

    def test_order_is_time_then_seq_without_touching_callbacks(self):
        queue = EventQueue()
        times = [3.0, 1.0, 2.0, 1.0, 3.0, 1.0, 2.0]
        for time in times:
            queue.schedule(time, Uncomparable(), label=f"t{time}")
        popped = [(e.time, e.seq) for e in queue.drain()]
        assert popped == sorted((t, i) for i, t in enumerate(times))

    def test_events_are_immutable(self):
        event = EventQueue().schedule(1.0, lambda: None)
        with pytest.raises(AttributeError):
            event.time = 0.0


class Quiet(ProtocolNode):
    def on_note(self, message):
        pass


class TestDeliveryLabels:
    """Verbose ``sim.dispatch`` spans read these labels."""

    @staticmethod
    def pair(batch_delivery):
        sim = Simulator(NetworkTopology.from_edges([("a", "b")]), batch_delivery)
        a, b = Quiet("a"), Quiet("b")
        sim.add_node(a)
        sim.add_node(b)
        return sim, a

    def test_batched_label(self):
        sim, a = self.pair(True)
        a.send("b", "note")
        a.send("b", "note")
        assert [e.label for e in sim.queue.drain()] == ["deliver-batch:->b"]

    def test_unbatched_label(self):
        sim, a = self.pair(False)
        a.send("b", "note")
        assert [e.label for e in sim.queue.drain()] == ["deliver:note:a->b"]
