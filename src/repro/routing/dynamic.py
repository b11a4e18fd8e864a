"""Dynamic topology engine: churn, failures, and reconvergence.

Drives a converged plain-FPSS network through a
:class:`~repro.sim.churn.ChurnSchedule`: each epoch applies a batch of
topology events at network quiescence, kicks every node's incremental
relaxation, lets the resulting withdrawal/update storm reconverge, and
then routes traffic on the new fixed point.

Quiesce-per-epoch model
-----------------------
Events are applied *synchronously at quiescence* — no messages are in
flight when the topology mutates.  This is the discrete-event analogue
of routesim2's ``link_has_been_updated`` callbacks (where a link change
interrupts the node between message deliveries): the affected kernels
ingest the topology delta out of band (detached neighbours, DATA1
changes flooded in compressed form), and everything downstream —
withdrawal rows on the wire, incremental re-relaxation, delta
broadcasts — flows through the ordinary message machinery of
:mod:`repro.routing.fpss`.

The epoch-equivalence oracle
----------------------------
:func:`verify_epoch_equivalence` is the correctness contract of the
whole subsystem: after every reconvergence epoch, each surviving node's
DATA1/DATA2/DATA3* digests must be *bit-identical* to the fixed point
of the post-event graph.  Incremental reconvergence from stale state
must therefore be indistinguishable from never having seen the old
topology at all — including withdrawals of unreachable destinations
(partitions leave no stale entries) and retraction of departed nodes'
declarations.

The expected digests come from
:func:`~repro.routing.engine.fixed_point_digests`, which derives the
tables, identity tags included, from Dijkstra trees.  It shares no
code with the replay kernel, so a kernel bug — a wrong tie-break, a
dropped tag supplier — fails the check instead of being reproduced by
it.  It is also several times cheaper than iterating the kernel to its
fixed point, which keeps the check affordable inside every epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from ..errors import ConvergenceError, RoutingError
from ..obs.trace import emit_counters, emit_marker
from ..sim.churn import ChurnEvent, ChurnSchedule, apply_churn_event
from ..sim.simulator import Simulator
from .convergence import (
    ConvergenceStats,
    build_network,
    link_delay,
    run_construction_phases,
)
from .fpss import FPSSNode
from .graph import ASGraph, Cost, NodeId
from .engine import fixed_point_digests

__all__ = [
    "ChurnEvent",
    "ChurnSchedule",
    "DynamicTopologyEngine",
    "EpochReport",
    "ChurnRunResult",
    "run_dynamic_fpss",
    "verify_epoch_equivalence",
]

#: Traffic matrices map ordered ``(origin, destination)`` pairs to a
#: packet volume; a callable derives one from the current graph.
TrafficMatrix = Mapping[Tuple[NodeId, NodeId], float]
TrafficSource = Callable[[ASGraph], TrafficMatrix]


def verify_epoch_equivalence(
    graph: ASGraph, nodes: Mapping[NodeId, FPSSNode]
) -> None:
    """Assert every node's tables match a fresh fixed point on ``graph``.

    Digest-exact across all three tables: DATA1 (so departed nodes'
    declarations are retracted everywhere, not stale), DATA2 (so
    unreachable destinations are withdrawn, not retained), and DATA3*
    (prices *and* identity tags).  The expected digests come from
    :func:`~repro.routing.engine.fixed_point_digests`, not from the
    replay kernel under test.

    Raises
    ------
    ConvergenceError
        For a graph node with no computation, or on the first digest
        disagreement.
    """
    for node_id, expected in fixed_point_digests(graph).items():
        node = nodes.get(node_id)
        comp = node.comp if node is not None else None
        if comp is None:
            raise ConvergenceError(
                f"{node_id!r} is in the post-event graph but has no computation"
            )
        for table, digest in (
            ("DATA1", "cost_digest"),
            ("DATA2", "routing_digest"),
            ("DATA3*", "pricing_digest"),
        ):
            if getattr(comp, digest)() != getattr(expected, digest):
                raise ConvergenceError(
                    f"{node_id!r}: {table} digest differs from the fresh "
                    f"fixed point on the post-event graph"
                )


@dataclass
class EpochReport:
    """What one reconvergence epoch did and cost."""

    epoch: int
    events: Tuple[ChurnEvent, ...]
    graph: ASGraph
    reconvergence_events: int
    reconvergence_messages: int
    reconvergence_time: float
    routed_flows: int = 0
    unroutable_flows: int = 0
    payments_total: float = 0.0

    @property
    def availability(self) -> float:
        """Fraction of attempted flows the network could route."""
        attempted = self.routed_flows + self.unroutable_flows
        return self.routed_flows / attempted if attempted else 1.0


@dataclass
class ChurnRunResult:
    """A full dynamic run: initial convergence plus every epoch."""

    simulator: Simulator
    nodes: Dict[NodeId, FPSSNode]
    graph: ASGraph
    initial_stats: ConvergenceStats
    initial_messages: int
    epochs: List[EpochReport] = field(default_factory=list)

    @property
    def message_amplification(self) -> float:
        """Total reconvergence messages relative to initial construction."""
        if not self.initial_messages:
            return 0.0
        total = sum(report.reconvergence_messages for report in self.epochs)
        return total / self.initial_messages

    @property
    def availability(self) -> float:
        """Flow availability across all epochs."""
        routed = sum(report.routed_flows for report in self.epochs)
        attempted = routed + sum(report.unroutable_flows for report in self.epochs)
        return routed / attempted if attempted else 1.0


class DynamicTopologyEngine:
    """Owns one network's lifecycle across reconvergence epochs.

    Build, :meth:`converge`, then :meth:`run_epoch` per event batch (or
    :meth:`run` for a whole schedule).  ``verify=True`` (the default)
    runs the epoch-equivalence oracle after initial convergence and
    after every epoch.
    """

    def __init__(
        self,
        graph: ASGraph,
        node_factory: Optional[Callable[[NodeId, Cost], FPSSNode]] = None,
        link_delays=1.0,
        batch_delivery: bool = True,
        verify: bool = True,
        max_events: int = 2_000_000,
    ) -> None:
        self.graph = graph
        self.verify = verify
        self.max_events = max_events
        self._link_delays = link_delays
        self._factory = node_factory or FPSSNode
        self.simulator, self.nodes = build_network(
            graph, self._factory, link_delays, batch_delivery
        )
        self.active: Set[NodeId] = set(graph.nodes)
        self.epoch = 0
        self.reports: List[EpochReport] = []
        self.initial_stats: Optional[ConvergenceStats] = None
        self.initial_messages = 0
        self._pending_resends: List[Tuple[NodeId, NodeId]] = []
        self._pending_joins: List[NodeId] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def converge(self) -> ConvergenceStats:
        """Run both construction phases on the initial graph (epoch 0)."""
        self.initial_stats = run_construction_phases(
            self.simulator, self.nodes, max_events=self.max_events
        )
        self.initial_messages = self.simulator.metrics.total_messages
        if self.verify:
            self.verify_equivalence()
        return self.initial_stats

    def run_epoch(self, events: Tuple[ChurnEvent, ...]) -> EpochReport:
        """Apply one epoch's events at quiescence and reconverge."""
        if self.initial_stats is None:
            raise ConvergenceError("converge() must run before the first epoch")
        if not self.simulator.is_quiescent():
            raise ConvergenceError("topology events require network quiescence")
        self.epoch += 1
        for event in events:
            self.graph = apply_churn_event(self.graph, event)
            self._apply_event(event)
        messages_before = self.simulator.metrics.total_messages
        time_before = self.simulator.now
        self._kick()
        processed = self.simulator.run_until_quiescent(max_events=self.max_events)
        if self.verify:
            self.verify_equivalence()
        report = EpochReport(
            epoch=self.epoch,
            events=tuple(events),
            graph=self.graph,
            reconvergence_events=processed,
            reconvergence_messages=(
                self.simulator.metrics.total_messages - messages_before
            ),
            reconvergence_time=self.simulator.now - time_before,
        )
        self.reports.append(report)
        emit_marker(
            "churn.epoch",
            sim_time=self.simulator.now,
            epoch=self.epoch,
            events=[event.describe() for event in events],
            reconvergence_events=processed,
            reconvergence_messages=report.reconvergence_messages,
        )
        emit_counters(
            "churn",
            {
                "epochs": 1,
                "events": len(events),
                "reconvergence_events": processed,
                "reconvergence_messages": report.reconvergence_messages,
            },
            sim_time=self.simulator.now,
        )
        return report

    def run(
        self,
        schedule: ChurnSchedule,
        traffic: Optional[object] = None,
    ) -> ChurnRunResult:
        """Converge, then run every epoch with traffic in between.

        ``traffic`` is a matrix ``{(origin, dest): volume}``, a callable
        deriving one from the current graph, or ``None``.  Traffic is
        routed after initial convergence and again after every epoch, so
        the run alternates construction and execution exactly as the
        paper's phases do.
        """
        if self.initial_stats is None:
            self.converge()
        self._route(self._matrix(traffic))  # epoch-0 traffic, not reported
        result = ChurnRunResult(
            simulator=self.simulator,
            nodes=self.nodes,
            graph=self.graph,
            initial_stats=self.initial_stats,  # type: ignore[arg-type]
            initial_messages=self.initial_messages,
        )
        for events in schedule.epochs:
            report = self.run_epoch(events)
            routed, unroutable, payments = self._route(self._matrix(traffic))
            report.routed_flows = routed
            report.unroutable_flows = unroutable
            report.payments_total = payments
            result.epochs.append(report)
        result.graph = self.graph
        return result

    def verify_equivalence(self) -> None:
        """Run the epoch-equivalence oracle on the current graph."""
        verify_epoch_equivalence(self.graph, self.nodes)

    # ------------------------------------------------------------------
    # event application (synchronous, at quiescence)
    # ------------------------------------------------------------------

    def _sorted_active(self) -> List[NodeId]:
        return sorted(self.active, key=repr)

    def _comp(self, node_id: NodeId):
        """The node's live kernel, or ``None`` before its join kick.

        Nodes joining this epoch have no computation yet — they
        bootstrap at kick time from the final post-epoch topology and
        cost map, so kernel-level deltas for them are skipped here.
        """
        return self.nodes[node_id].comp

    def _apply_event(self, event: ChurnEvent) -> None:
        topology = self.simulator.topology
        if event.kind == "cost":
            node_id = event.node
            new_cost = float(event.cost)  # type: ignore[arg-type]
            self.nodes[node_id].true_cost = new_cost
            # The compressed equivalent of re-flooding phase 1: every
            # active kernel learns the new declaration directly.
            for member in self._sorted_active():
                comp = self._comp(member)
                if comp is None:
                    continue
                if member == node_id:
                    comp.change_own_cost(new_cost)
                else:
                    comp.note_cost_declaration(node_id, new_cost)
        elif event.kind == "link-down":
            a, b = event.link  # type: ignore[misc]
            topology.remove_link(a, b)
            for end, peer in ((a, b), (b, a)):
                comp = self._comp(end)
                if comp is not None:
                    comp.detach_neighbor(peer)
        elif event.kind == "link-up":
            a, b = event.link  # type: ignore[misc]
            topology.add_link(a, b, delay=link_delay(self._link_delays, a, b))
            for end, peer in ((a, b), (b, a)):
                comp = self._comp(end)
                if comp is not None:
                    comp.attach_neighbor(peer)
            # Delta streams assume shared history: both endpoints
            # exchange full tables once across the fresh link.
            self._pending_resends.append((a, b))
            self._pending_resends.append((b, a))
        elif event.kind == "leave":
            node_id = event.node
            for peer in topology.neighbors(node_id):
                comp = self._comp(peer)
                if comp is not None:
                    comp.detach_neighbor(node_id)
            topology.remove_node(node_id)
            self.active.discard(node_id)
            self.nodes[node_id].phase = "left"
            for member in self._sorted_active():
                comp = self._comp(member)
                if comp is not None:
                    comp.retract_cost_declaration(node_id)
        else:  # join
            node_id = event.node
            new_cost = float(event.cost)  # type: ignore[arg-type]
            topology.add_node(node_id)
            node = self._factory(node_id, new_cost)
            self.nodes[node_id] = node
            self.simulator.add_node(node)
            peers = []
            for pair in event.links:
                peer = pair[1] if pair[0] == node_id else pair[0]
                topology.add_link(
                    node_id, peer, delay=link_delay(self._link_delays, node_id, peer)
                )
                peers.append(peer)
            for member in self._sorted_active():
                comp = self._comp(member)
                if comp is not None:
                    comp.note_cost_declaration(node_id, new_cost)
            for peer in sorted(set(peers), key=repr):
                comp = self._comp(peer)
                if comp is not None:
                    comp.attach_neighbor(node_id)
                self._pending_resends.append((peer, node_id))
            self.active.add(node_id)
            self._pending_joins.append(node_id)

    def _kick(self) -> None:
        """Schedule the epoch's local actions in deterministic order.

        Full-table resends across fresh links go first (they carry the
        *pre-settle* tables; the subsequent reaction deltas then apply
        on top, so new neighbours end bit-identical to old ones), then
        joining nodes bootstrap, then every surviving node settles and
        broadcasts its topology-delta fallout.
        """
        resends, self._pending_resends = self._pending_resends, []
        joins, self._pending_joins = self._pending_joins, []
        joined = set(joins)
        topology = self.simulator.topology
        scheduled = set()
        for sender, receiver in resends:
            if sender not in self.active or receiver not in self.active:
                continue
            if sender in joined:
                # A joiner's bootstrap force-announces full tables to
                # every current neighbour; a separate resend would
                # arrive before its kernel exists.
                continue
            if not topology.has_link(sender, receiver):
                continue  # the fresh link failed again within the epoch
            if (sender, receiver) in scheduled:
                continue
            scheduled.add((sender, receiver))
            self.simulator.schedule_local(
                sender,
                0.0,
                partial(self.nodes[sender].resend_full_tables, receiver),
                label=f"churn-resend:->{receiver}",
            )
        known = self.graph.costs
        for node_id in joins:
            if node_id not in self.active:
                continue  # joined and left within one epoch
            self.simulator.schedule_local(
                node_id,
                0.0,
                partial(self.nodes[node_id].join_network, known),
                label="churn-join",
            )
        for node_id in self._sorted_active():
            if node_id in joined:
                continue
            self.simulator.schedule_local(
                node_id,
                0.0,
                self.nodes[node_id].react_to_topology_change,
                label="churn-react",
            )

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------

    def _matrix(self, traffic: Optional[object]) -> TrafficMatrix:
        if traffic is None:
            return {}
        if callable(traffic):
            return traffic(self.graph)
        return traffic  # type: ignore[return-value]

    def _route(self, matrix: TrafficMatrix) -> Tuple[int, int, float]:
        """Route one traffic matrix; returns (routed, unroutable, payments).

        Flows whose endpoints left the network are skipped outright;
        flows between live nodes that the current tables cannot carry
        (partitions) count as unroutable — the availability metric's
        denominator.  Payments are the DATA4 charges accrued by this
        matrix alone.
        """
        flows = [
            (origin, destination, volume)
            for (origin, destination), volume in sorted(
                matrix.items(),
                key=lambda kv: (repr(kv[0][0]), repr(kv[0][1])),
            )
            if origin != destination
            and origin in self.active
            and destination in self.active
        ]
        if not flows:
            return 0, 0, 0.0
        before = {
            node_id: self.nodes[node_id].data4.total
            for node_id in self._sorted_active()
        }
        counts = {"routed": 0, "unroutable": 0}

        def originate(origin: NodeId, destination: NodeId, volume: float) -> None:
            try:
                self.nodes[origin].originate_flow(destination, volume)
            except RoutingError:
                counts["unroutable"] += 1
            else:
                counts["routed"] += 1

        for origin, destination, volume in flows:
            self.simulator.schedule_local(
                origin,
                0.0,
                partial(originate, origin, destination, volume),
                label=f"churn-flow:->{destination}",
            )
        self.simulator.run_until_quiescent(max_events=self.max_events)
        payments = sum(
            self.nodes[node_id].data4.total - before[node_id]
            for node_id in self._sorted_active()
        )
        if counts["unroutable"]:
            emit_counters(
                "churn",
                {"unroutable_flows": counts["unroutable"]},
                sim_time=self.simulator.now,
            )
        return counts["routed"], counts["unroutable"], payments


def run_dynamic_fpss(
    graph: ASGraph,
    schedule: ChurnSchedule,
    traffic: Optional[object] = None,
    node_factory: Optional[Callable[[NodeId, Cost], FPSSNode]] = None,
    link_delays=1.0,
    batch_delivery: bool = True,
    verify: bool = True,
    max_events: int = 2_000_000,
) -> ChurnRunResult:
    """Run a whole churn scenario: converge, then every epoch + traffic."""
    engine = DynamicTopologyEngine(
        graph,
        node_factory=node_factory,
        link_delays=link_delays,
        batch_delivery=batch_delivery,
        verify=verify,
        max_events=max_events,
    )
    return engine.run(schedule, traffic=traffic)
