"""The discrete-event simulator.

Couples a :class:`~repro.sim.network.NetworkTopology`, a set of
:class:`~repro.sim.node.ProtocolNode` processes, an event queue, a
trace, and a metrics registry.  ``run_until_quiescent`` drives the
system to a fixed point — the "network quiescence point" at which the
paper's bank performs its BANK1/BANK2 checks.

Batched delivery
----------------
By default the simulator coalesces every message arriving at one node
at one simulated instant into a single delivery event
(:class:`~repro.sim.events.DeliveryInbox`).  Messages are still handed
to the node one by one in send order — per-link FIFO is preserved — but
the node learns the batch boundary through
:meth:`~repro.sim.node.ProtocolNode.deliver_batch`, which protocol
implementations exploit to recompute derived state once per batch
instead of once per message (see :mod:`repro.routing.fpss`).  Passing
``batch_delivery=False`` restores the seed's one-event-per-message
behaviour; both modes are deterministic and converge to the same fixed
point.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..errors import ConvergenceError, SimulationError
from ..obs.events import BUS
from ..obs.trace import emit_counters, span
from .events import DeliveryInbox, EventQueue
from .messages import Message, NodeId
from .metrics import MetricsRegistry
from .network import NetworkTopology
from .node import ProtocolNode
from .trace import Trace, TraceKind


class Simulator:
    """Deterministic discrete-event simulation of a node network.

    Parameters
    ----------
    topology:
        The static network.  Messages may only flow along its links,
        except for nodes registered as *well-known* (the bank), which
        every node can reach directly — modelling the paper's signed
        out-of-band bank channel.
    trace_enabled:
        Record a full event trace (disable for large sweeps).
    batch_delivery:
        Coalesce same-instant deliveries to one node into one event
        (the default).  ``False`` restores per-message delivery events.
    """

    def __init__(
        self,
        topology: NetworkTopology,
        trace_enabled: bool = True,
        batch_delivery: bool = True,
    ) -> None:
        self.topology = topology
        self.queue = EventQueue()
        self.trace = Trace(enabled=trace_enabled)
        self.metrics = MetricsRegistry()
        self.batch_delivery = batch_delivery
        self._inbox = DeliveryInbox()
        self._nodes: Dict[NodeId, ProtocolNode] = {}
        self._well_known: set = set()
        self._now: float = 0.0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def add_node(self, node: ProtocolNode, well_known: bool = False) -> None:
        """Register a protocol node occupying a topology vertex.

        ``well_known=True`` marks the node as reachable by every other
        node without a topology link (used for the bank; the paper
        assumes signed communication between every node and the bank).
        """
        if node.node_id in self._nodes:
            raise SimulationError(f"duplicate node id {node.node_id!r}")
        if node.node_id not in self.topology and not well_known:
            raise SimulationError(
                f"node {node.node_id!r} is not a vertex of the topology"
            )
        self._nodes[node.node_id] = node
        if well_known:
            self._well_known.add(node.node_id)
        node.attach(self)

    def node(self, node_id: NodeId) -> ProtocolNode:
        """Look up a registered node."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise SimulationError(f"unknown node {node_id!r}") from None

    @property
    def nodes(self) -> Dict[NodeId, ProtocolNode]:
        """All registered nodes keyed by id (copy)."""
        return dict(self._nodes)

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------

    def transmit(self, message: Message) -> None:
        """Accept a message from a node and schedule its delivery.

        One link lookup both checks that the endpoints are neighbours
        (the bank, reachable by all, excepted) and reads the delay.  In
        batched mode the message joins the receiver's inbox slot for
        its arrival instant; only the slot's first message costs a
        queue event.
        """
        src = message.src
        dst = message.dst
        if src in self._well_known or dst in self._well_known:
            delay = 1.0
        else:
            link = self.topology.link(src, dst)
            if link is None:
                raise SimulationError(
                    f"{src!r} cannot send to non-neighbour {dst!r}; "
                    "only the bank is reachable without a link"
                )
            delay = link.delay
        if dst not in self._nodes:
            raise SimulationError(f"message to unknown node {dst!r}")
        self.metrics.record_send(src, payload_units=message.size, kind=message.kind)
        self.trace.record(self._now, TraceKind.SEND, src, message)
        arrival = self._now + delay
        if self.batch_delivery:
            if self._inbox.add(arrival, dst, message):
                self.queue.schedule(
                    arrival,
                    lambda time=arrival, dst=dst: self._deliver_batch(time, dst),
                    label=f"deliver-batch:->{dst}",
                )
        else:
            self.queue.schedule(
                arrival,
                lambda: self._deliver(message),
                label=f"deliver:{message.kind}:{src}->{dst}",
            )

    def _deliver(self, message: Message) -> None:
        self.metrics.record_receive(message.dst)
        self.trace.record(self._now, TraceKind.DELIVER, message.dst, message)
        self._nodes[message.dst].deliver(message)

    def _deliver_batch(self, time: float, dst: NodeId) -> None:
        messages = self._inbox.collect(time, dst)
        self._nodes[dst].deliver_batch(messages)

    def deliver_now(self, message: Message) -> None:
        """Account for and process one message of a delivery batch.

        Called back by :meth:`ProtocolNode.deliver_batch` loops so that
        per-message metrics and trace entries interleave with handler
        effects exactly as they do in unbatched mode.
        """
        self._deliver(message)

    def note_drop(self, node_id: NodeId, message: Message, reason: str) -> None:
        """Record that a filter suppressed a message."""
        self.trace.record(self._now, TraceKind.DROP, node_id, message, reason=reason)

    def schedule_local(
        self, node_id: NodeId, delay: float, callback, label: str = ""
    ) -> None:
        """Schedule a node-local callback (internal action)."""
        if delay < 0:
            raise SimulationError("negative delay")
        self.queue.schedule(self._now + delay, callback, label=f"{node_id}:{label}")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def start(self, nodes: Optional[Iterable[NodeId]] = None) -> None:
        """Invoke ``start()`` on nodes (all of them by default).

        Safe to call again for later phases; each call simply schedules
        another round of start hooks at the current time.
        """
        targets = list(nodes) if nodes is not None else sorted(self._nodes, key=repr)
        for node_id in targets:
            node = self.node(node_id)
            self.queue.schedule(self._now, node.start, label=f"start:{node_id}")

    def step(self) -> bool:
        """Dispatch one event; returns False if the queue was empty."""
        if not self.queue:
            return False
        event = self.queue.pop()
        if event.time < self._now:
            raise SimulationError("event queue went backwards in time")
        self._now = event.time
        self.metrics.events_processed += 1
        if BUS.verbose:
            # Per-event dispatch spans are opt-in even with a sink
            # attached: one pair of records per event is debugging
            # granularity, not feed granularity.
            with span("sim.dispatch", sim_time=event.time, label=event.label):
                event.callback()
            return True
        event.callback()
        return True

    def run_until_quiescent(self, max_events: int = 1_000_000) -> int:
        """Dispatch events until none remain; returns events processed.

        When a telemetry sink is attached, the drain is wrapped in a
        ``sim.quiesce`` span and followed by one ``sim.metrics``
        counter record holding the *delta* of the metrics summary over
        this drain (a simulator quiesces several times per run — once
        per phase — so deltas, not cumulative totals, are what sum
        correctly per scenario).

        Raises
        ------
        ConvergenceError
            If the budget is exhausted, which for a static-topology
            Bellman-Ford style protocol indicates a livelock bug or a
            deviation that prevents convergence.
        """
        if not BUS.enabled:
            return self._drain(max_events)
        before = self.metrics.summary()
        with span("sim.quiesce", sim_time=self._now) as quiesce:
            processed = self._drain(max_events)
            quiesce.note(events=processed, sim_time=self._now)
        after = self.metrics.summary()
        emit_counters(
            "sim.metrics",
            {key: after[key] - before.get(key, 0) for key in after},
            sim_time=self._now,
        )
        return processed

    def _drain(self, max_events: int) -> int:
        processed = 0
        while self.queue:
            if processed >= max_events:
                raise ConvergenceError(
                    f"simulation did not quiesce within {max_events} events"
                )
            self.step()
            processed += 1
        return processed

    def is_quiescent(self) -> bool:
        """True when no events are pending."""
        return not self.queue
