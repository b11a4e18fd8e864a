"""Dynamic topology engine: churn, failures, and reconvergence.

Drives a converged FPSS network through a
:class:`~repro.sim.churn.ChurnSchedule`, one epoch per event batch.
It is the one churn driver: the checked runner
(:func:`~repro.faithful.epochs.run_checked_churn`) runs the same epoch
step and differs only in where each kernel's view of the epoch comes
from.

Quiesce-per-epoch model
-----------------------
Events are applied *synchronously at quiescence* — no messages are in
flight when the topology mutates.  As in routesim2's
``link_has_been_updated``, every topology change goes through one
entry point, which updates neighbour state, recomputes once and
broadcasts.  An epoch (1) edits the graph and the topology, (2) finds
the fresh links (graph neighbours missing from a kernel), (3) moves
every live kernel onto the new topology through one boundary op,
:meth:`~repro.routing.fpss.FPSSNode.reanchor` (new neighbour set, own
cost, the other DATA1 changes, ``None`` retracting a departed node),
settled at once and held, (4) resends full tables across the fresh
links in ``repr`` order, (5) starts the joiners, (6) kicks every
re-anchored node to announce its held deltas and reconverges, and (7)
reports, emits telemetry and routes traffic.  The plain engine derives
step 3's view out of band, from the epoch's graph diff; the checked
runner from each node's own held cost flood.

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
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import ConvergenceError, SimulationError
from ..obs.trace import emit_counters, emit_marker
from ..sim.churn import ChurnEvent, ChurnSchedule, apply_churn_epoch
from ..sim.simulator import Simulator
from .convergence import (
    ConvergenceStats,
    build_network,
    link_delay,
    originating_flows,
    run_construction_phases,
    run_execution,
)
from .engine import fixed_point_digests
from .fpss import FPSSNode
from .graph import ASGraph, Cost, NodeId
from .tables import RouteEntry

__all__ = [
    "ChurnEvent",
    "ChurnSchedule",
    "DynamicTopologyEngine",
    "EpochReport",
    "ChurnRunResult",
    "run_dynamic_fpss",
    "verify_epoch_equivalence",
]


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
    """What one epoch did and cost: the initial construction (0), then
    one per event batch."""

    epoch: int
    events: Tuple[ChurnEvent, ...]
    graph: ASGraph
    reconvergence_events: int
    #: Messages sent and simulated time elapsed from the epoch's events
    #: to its quiescence checkpoint (the whole construction for epoch
    #: 0), before any traffic.
    reconvergence_messages: int
    reconvergence_time: float
    #: Execution-phase results (zeros unless traffic was supplied).
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
    #: Epoch 0: the construction, and the traffic routed on it.
    initial: EpochReport
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
    after every epoch.  A subclass changes where an epoch's re-anchor
    view comes from (:meth:`_reanchor`), how epoch 0 is built
    (:meth:`_construct`), and what a report and a checkpoint hold.
    """

    report_type = EpochReport

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
        self.epoch = 0
        self.initial: Optional[EpochReport] = None
        self.initial_stats: Optional[ConvergenceStats] = None
        self.initial_messages = 0

    @property
    def active(self) -> Tuple[NodeId, ...]:
        """The live nodes (the current graph's), in ``repr`` order."""
        return self.graph.nodes

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def converge(self) -> ConvergenceStats:
        """Run both construction phases on the initial graph (epoch 0)."""
        self.initial = self._run_to_checkpoint((), self._construct)
        self.initial_messages = self.simulator.metrics.total_messages
        assert self.initial_stats is not None
        return self.initial_stats

    def run_epoch(self, events: Tuple[ChurnEvent, ...]) -> EpochReport:
        """Apply one epoch's events at quiescence and reconverge."""
        if self.initial is None:
            raise ConvergenceError("converge() must run before the first epoch")
        if not self.simulator.is_quiescent():
            raise ConvergenceError("topology events require network quiescence")
        self.epoch += 1
        events = tuple(events)
        report = self._run_to_checkpoint(events, partial(self._repair, events))
        emit_marker(
            "churn.epoch",
            sim_time=self.simulator.now,
            epoch=self.epoch,
            events=[event.describe() for event in events],
            reconvergence_events=report.reconvergence_events,
            reconvergence_messages=report.reconvergence_messages,
        )
        emit_counters("churn", self._counters(report), sim_time=self.simulator.now)
        return report

    def run(
        self,
        schedule: ChurnSchedule,
        traffic: Optional[object] = None,
    ) -> ChurnRunResult:
        """Converge, then run every epoch with traffic in between.

        ``traffic`` is a matrix ``{(origin, dest): volume}``, a callable
        deriving one from the current graph, or ``None``.  Traffic is
        routed after initial convergence (onto the ``initial`` report)
        and again after every epoch, so the run alternates construction
        and execution exactly as the paper's phases do.
        """
        if self.initial is None:
            self.converge()
        assert self.initial is not None
        fixed = None if callable(traffic) else originating_flows(traffic or {})

        def flows() -> List[Tuple[NodeId, NodeId, float]]:
            if fixed is not None:
                return fixed
            return originating_flows(traffic(self.graph))  # type: ignore[operator]

        self._route(self.initial, flows())
        result = self._result()
        for events in schedule.epochs:
            report = self.run_epoch(events)
            self._route(report, flows())
            result.epochs.append(report)
        result.graph = self.graph
        return result

    def verify_equivalence(self) -> None:
        """Run the epoch-equivalence oracle on the current graph."""
        verify_epoch_equivalence(self.graph, self.nodes)

    # ------------------------------------------------------------------
    # the epoch step
    # ------------------------------------------------------------------

    def _run_to_checkpoint(
        self, events: Tuple[ChurnEvent, ...], step: Callable[[], Tuple[int, int]]
    ) -> EpochReport:
        """Run one epoch's ``step`` to quiescence, report and check it.

        ``step`` returns the events its boundary processed and the
        events of the reconvergence after it.
        """
        messages_before = self.simulator.metrics.total_messages
        time_before = self.simulator.now
        boundary_events, settle_events = step()
        report = self.report_type(
            epoch=self.epoch,
            events=events,
            graph=self.graph,
            reconvergence_events=boundary_events + settle_events,
            reconvergence_messages=(
                self.simulator.metrics.total_messages - messages_before
            ),
            reconvergence_time=self.simulator.now - time_before,
        )
        self._checkpoint(report, boundary_events, settle_events)
        return report

    def _checkpoint(
        self, report: EpochReport, boundary_events: int, settle_events: int
    ) -> None:
        """The quiescence checkpoint: the oracle, with ``verify``."""
        if self.verify:
            self.verify_equivalence()

    def _construct(self) -> Tuple[int, int]:
        """Epoch 0: both construction phases on the initial graph."""
        stats = run_construction_phases(
            self.simulator, self.nodes, max_events=self.max_events
        )
        self.initial_stats = stats
        return stats.phase1_events, stats.phase2_events

    def _repair(self, events: Tuple[ChurnEvent, ...]) -> Tuple[int, int]:
        """One epoch at quiescence: steps 1-6 of the module docstring."""
        previous = self.graph
        self._edit(events)
        nodes = self.nodes
        live = self.active
        joiners = {node_id for node_id in live if nodes[node_id].comp is None}
        fresh = [
            (node_id, peer)
            for node_id in live
            if node_id not in joiners
            for peer in self.graph.neighbors(node_id)
            if peer not in nodes[node_id].comp.neighbors  # type: ignore[union-attr]
        ]
        boundary_events = self._reanchor(events, previous, fresh)
        simulator = self.simulator
        # Fresh-link resends go first; the kicks' deltas apply on top.
        for sender, receiver in fresh:
            simulator.schedule_local(
                sender, 0.0, partial(nodes[sender].resend_full_tables, receiver),
                label=f"churn-resend:->{receiver}",
            )
        for node_id in sorted(joiners, key=repr):
            simulator.schedule_local(
                node_id, 0.0, partial(nodes[node_id].join_network, self.graph.costs),
                label="churn-join",
            )
        for node_id in live:
            if node_id not in joiners:
                simulator.schedule_local(
                    node_id, 0.0, nodes[node_id].react_to_topology_change,
                    label="churn-react",
                )
        return boundary_events, simulator.run_until_quiescent(
            max_events=self.max_events
        )

    def _edit(self, events: Tuple[ChurnEvent, ...]) -> None:
        """Step 1: apply the events to the graph and the topology.

        Kernels are untouched; a joiner gets a node without one.
        """
        self.graph = apply_churn_epoch(self.graph, events)
        topology = self.simulator.topology
        left = set()
        for event in events:
            if event.kind == "cost":
                self.nodes[event.node].true_cost = float(event.cost)  # type: ignore[arg-type]
            elif event.kind == "link-down":
                topology.remove_link(*event.link)  # type: ignore[misc]
            elif event.kind == "link-up":
                a, b = event.link  # type: ignore[misc]
                topology.add_link(a, b, delay=link_delay(self._link_delays, a, b))
            elif event.kind == "leave":
                topology.remove_node(event.node)
                self.nodes[event.node].phase = "left"
                left.add(event.node)
            else:  # join
                node_id = event.node
                if node_id in left:
                    # The graph diff would read the rejoin as a node
                    # that never left, and its peers would keep the
                    # departed node's offers.
                    raise SimulationError(
                        f"{node_id!r} rejoins in the epoch it left; "
                        f"schedule the join in a later epoch"
                    )
                topology.add_node(node_id)
                node = self._factory(node_id, float(event.cost))  # type: ignore[arg-type]
                self.nodes[node_id] = node
                self.simulator.add_node(node)
                for pair in event.links:
                    peer = pair[1] if pair[0] == node_id else pair[0]
                    topology.add_link(
                        node_id, peer,
                        delay=link_delay(self._link_delays, node_id, peer),
                    )

    def _reanchor(
        self,
        events: Tuple[ChurnEvent, ...],
        previous: ASGraph,
        fresh: List[Tuple[NodeId, NodeId]],
    ) -> int:
        """Step 3: every live kernel takes the epoch as one re-anchor op.

        The plain view comes out of band, from the epoch's graph diff:
        the new neighbour set, the node's new cost (its kernel's own
        cost if it did not change), and every other changed, joined or
        departed (``None``) declaration.  Returns the events the
        boundary processed (none: nothing is sent).
        """
        costs, before = self.graph.costs, previous.costs
        diff = sorted(
            [(node, cost) for node, cost in costs.items() if before.get(node) != cost]
            + [(node, None) for node in before if node not in costs],
            key=lambda kv: repr(kv[0]),
        )
        changed = dict(diff)
        for node_id in self.active:
            node = self.nodes[node_id]
            if node.comp is None:
                continue  # a joiner bootstraps at step 5
            node.reanchor(
                self.graph.neighbors(node_id),
                changed.get(node_id, node.comp.own_cost),
                tuple(change for change in diff if change[0] != node_id),
            )
        return 0

    def _counters(self, report: EpochReport) -> Dict[str, int]:
        """The epoch's ``churn`` counter record."""
        return {
            "epochs": 1,
            "events": len(report.events),
            "reconvergence_events": report.reconvergence_events,
            "reconvergence_messages": report.reconvergence_messages,
        }

    def _result(self) -> ChurnRunResult:
        assert self.initial_stats is not None and self.initial is not None
        return ChurnRunResult(
            simulator=self.simulator,
            nodes=self.nodes,
            graph=self.graph,
            initial_stats=self.initial_stats,
            initial_messages=self.initial_messages,
            initial=self.initial,
        )

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------

    def _route(
        self, report: EpochReport, flows: List[Tuple[NodeId, NodeId, float]]
    ) -> List[RouteEntry]:
        """Route ``flows`` on the settled tables into ``report``.

        Flows whose endpoints left the network are skipped outright;
        flows between live nodes that the current tables cannot carry
        (partitions) count as unroutable — the availability metric's
        denominator.  Payments are the DATA4 charges accrued by these
        flows alone.  Returns the routed flows' routes.
        """
        live = self.active
        alive = set(live)
        flows = [flow for flow in flows if flow[0] in alive and flow[1] in alive]
        if not flows:
            return []
        nodes = self.nodes
        before = sum(nodes[node_id].data4.total for node_id in live)
        routable, routes = [], []
        for source, destination, volume in flows:
            entry = nodes[source].comp.routing.entry(destination)  # type: ignore[union-attr]
            if entry is None:
                report.unroutable_flows += 1
            else:
                routable.append((source, destination, volume))
                routes.append(entry)
        report.routed_flows = len(routable)
        run_execution(
            self.simulator,
            {node_id: nodes[node_id] for node_id in live},
            routable,
            self.max_events,
        )
        report.payments_total = (
            sum(nodes[node_id].data4.total for node_id in live) - before
        )
        if report.unroutable_flows:
            emit_counters(
                "churn",
                {"unroutable_flows": report.unroutable_flows},
                sim_time=self.simulator.now,
            )
        return routes


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
