"""Protocol node base class.

A :class:`ProtocolNode` is an event-driven process: the simulator calls
:meth:`ProtocolNode.start` once at time zero and :meth:`deliver_batch`
for the messages arriving at one instant (a batch of one when delivery
is unbatched).  Handlers are discovered by naming convention: a message
of kind ``"rt-update"`` is dispatched to ``on_rt_update``.

Two filter hooks, :meth:`outbound` and :meth:`inbound`, exist so that
failure adapters (:mod:`repro.sim.failures`) and rational manipulation
strategies (:mod:`repro.faithful.manipulations`) can intercept traffic
without rewriting protocol logic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from ..errors import ProtocolError, SimulationError
from .messages import Message, NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .simulator import Simulator


class ProtocolNode:
    """Base class for all simulated protocol participants."""

    def __init__(self, node_id: NodeId) -> None:
        self.node_id = node_id
        self._sim: Optional["Simulator"] = None
        self._handlers: Dict[str, Callable[[Message], None]] = {}

    # ------------------------------------------------------------------
    # simulator wiring
    # ------------------------------------------------------------------

    def attach(self, simulator: "Simulator") -> None:
        """Called by the simulator when the node is registered."""
        if self._sim is not None:
            raise SimulationError(f"node {self.node_id!r} already attached")
        self._sim = simulator

    @property
    def sim(self) -> "Simulator":
        """The owning simulator (raises if not yet attached)."""
        if self._sim is None:
            raise SimulationError(f"node {self.node_id!r} is not attached")
        return self._sim

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.sim.now

    @property
    def neighbors(self) -> Tuple[NodeId, ...]:
        """This node's neighbours in the topology."""
        return self.sim.topology.neighbors(self.node_id)

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Invoked once at simulation start; override to kick off."""

    def outbound(self, message: Message) -> Optional[Message]:
        """Filter applied to every message this node sends.

        Return the (possibly replaced) message, or None to drop it.
        The faithful base implementation is the identity.
        """
        return message

    def inbound(self, message: Message) -> Optional[Message]:
        """Filter applied to every message delivered to this node."""
        return message

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def send(self, dst: NodeId, kind: str, **payload: Any) -> Optional[Message]:
        """Construct and transmit a fresh message to ``dst``."""
        return self.send_message(Message(self.node_id, dst, kind, payload))

    def send_message(self, message: Message) -> Optional[Message]:
        """Transmit a pre-built message through the outbound filter."""
        filtered = self.outbound(message)
        if filtered is None:
            self.sim.note_drop(self.node_id)
            return None
        self.sim.transmit(filtered)
        return filtered

    def forward(self, message: Message, dst: NodeId) -> Optional[Message]:
        """Relay a received message to ``dst`` (message-passing action)."""
        return self.send_message(message.forwarded(self.node_id, dst))

    def broadcast(self, kind: str, **payload: Any) -> None:
        """Send the same fresh message to every neighbour."""
        self.multicast(self.neighbors, kind, **payload)

    def multicast(
        self, targets, kind: str, size_hint: Optional[int] = None, **payload: Any
    ) -> None:
        """Send one payload to several nodes, sizing it only once.

        The copies share one payload dict and one computed
        :attr:`Message.size` — broadcast vectors can hold thousands of
        rows, so per-copy re-counting would dominate the send path.
        ``size_hint`` lets a caller that already knows the payload's
        scalar count (e.g. from encoding it) skip the counting walk.
        """
        size = size_hint
        src = self.node_id
        for dst in targets:
            message = Message(src, dst, kind, payload)
            if size is not None:
                message.seed_size(size)
            self.send_message(message)
            if size is None:
                size = message.size

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------

    def deliver_batch(self, messages: Tuple[Message, ...]) -> None:
        """Process the messages arriving at this node at one instant.

        The simulator's only way in: the batch is in send order, one
        message long when delivery is unbatched.  The batch's receipts
        are counted at once; each message is then passed through
        :meth:`inbound` and dispatched to its handler in turn, and the
        :meth:`flush_batch` hook runs once at the batch boundary.
        Protocol nodes that maintain derived state override *the
        hook*, not this method: their handlers only ingest, and the
        hook settles the recomputation.
        """
        sim = self.sim
        sim.metrics.record_receive(self.node_id, len(messages))
        for message in messages:
            filtered = self.inbound(message)
            if filtered is None:
                sim.note_drop(self.node_id)
            else:
                self.dispatch(filtered)
        self.flush_batch()

    def flush_batch(self) -> None:
        """Batch-boundary hook; the base implementation does nothing.

        Runs once after every delivery batch.  Override to settle state
        whose recomputation the handlers left to the boundary.
        """

    def dispatch(self, message: Message) -> None:
        """Route a message to its ``on_<kind>`` handler."""
        handler = self._handlers.get(message.kind)
        if handler is None:
            handler_name = "on_" + message.kind.replace("-", "_")
            handler = getattr(self, handler_name, None)
            if handler is None:
                raise ProtocolError(
                    f"node {self.node_id!r} has no handler {handler_name!r} "
                    f"for message kind {message.kind!r}"
                )
            self._handlers[message.kind] = handler
        handler(message)

    def schedule(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> None:
        """Schedule a local (internal-action) callback after ``delay``."""
        self.sim.schedule_local(self.node_id, delay, callback, label=label)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.node_id!r})"
