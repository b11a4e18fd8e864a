"""Event queue and delivery batching for the discrete-event simulator.

Events are ordered by ``(time, seq)`` where ``seq`` is a monotonically
increasing tie-breaker, making every simulation fully deterministic for
a given schedule of insertions.  An :class:`Event` is a named tuple, so
the heap compares entries in C; its ``label`` rides along uncompared
for the verbose ``sim.dispatch`` spans.

:class:`DeliveryInbox` is the coalescing structure behind the
simulator's batched delivery mode: all messages arriving at one node at
one simulated instant are accumulated under a single ``(time, node)``
key and dispatched as one event.  The receiving node's
:meth:`~repro.sim.node.ProtocolNode.flush_batch` hook then runs exactly
once per batch, so a flooding round costs each receiver one
recomputation instead of one per message — and, in the faithful
extension, one shared mirror replay per principal batch (see
``docs/architecture.md``).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, Hashable, Iterator, List, NamedTuple, Optional, Tuple

from ..errors import SimulationError


class Event(NamedTuple):
    """A scheduled callback.

    A plain tuple, so heap comparisons run in C.  ``seq`` is unique per
    queue, so ordering is decided by ``(time, seq)`` and the callback
    and label are never compared.
    """

    time: float
    seq: int
    callback: Callable[[], None]
    label: str = ""


_new_event = tuple.__new__


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = itertools.count()
        self._popped = 0

    def schedule(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Insert a callback to fire at simulated ``time``."""
        if time < 0:
            raise SimulationError(f"cannot schedule event at negative time {time}")
        event = _new_event(Event, (time, next(self._seq), callback, label))
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        self._popped += 1
        return heapq.heappop(self._heap)

    def peek_time(self) -> Optional[float]:
        """The time of the earliest pending event, or None if empty."""
        return self._heap[0].time if self._heap else None

    @property
    def pending(self) -> int:
        """Number of events not yet dispatched."""
        return len(self._heap)

    @property
    def dispatched(self) -> int:
        """Number of events popped so far."""
        return self._popped

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def drain(self) -> Iterator[Event]:
        """Pop events until the queue is empty (used in tests)."""
        while self._heap:
            yield self.pop()


#: One pending-delivery slot: simulated arrival instant plus receiver.
InboxKey = Tuple[float, Hashable]


class DeliveryInbox:
    """Same-instant deliveries to one node, coalesced into one batch.

    The simulator's batched delivery mode appends every in-flight
    message to the inbox keyed by ``(arrival time, destination)``.  The
    first message of a slot schedules exactly one queue event; when that
    event fires, :meth:`collect` removes and returns the whole batch in
    send (``seq``) order, preserving per-link FIFO within the batch.
    """

    def __init__(self) -> None:
        self._slots: Dict[InboxKey, List[Any]] = {}

    def add(self, time: float, dst: Hashable, message: Any) -> bool:
        """File a message; True if this opened a new (unscheduled) slot."""
        key = (time, dst)
        slot = self._slots.get(key)
        if slot is None:
            self._slots[key] = [message]
            return True
        slot.append(message)
        return False

    def collect(self, time: float, dst: Hashable) -> Tuple[Any, ...]:
        """Remove and return one slot's batch (raises if absent)."""
        try:
            return tuple(self._slots.pop((time, dst)))
        except KeyError:
            raise SimulationError(
                f"no pending delivery batch for {dst!r} at t={time}"
            ) from None

    @property
    def pending(self) -> int:
        """Messages filed but not yet collected."""
        return sum(len(slot) for slot in self._slots.values())

    def __bool__(self) -> bool:
        return bool(self._slots)
