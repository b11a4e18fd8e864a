"""One network builder and one phase step for every FPSS driver.

Every run has the same shape (Section 4): phase 1 floods DATA1, phase 2
relaxes DATA2/DATA3*, each to quiescence.  :func:`build_network` builds
the simulator for an :class:`~repro.routing.graph.ASGraph` (per-link
delays from :func:`link_delay`, same-instant arrivals coalesced into
one delivery batch or each delivered as a batch of one) and
:func:`run_phase` runs one phase; every driver — the plain helpers
here, :mod:`repro.faithful.protocol`, :mod:`repro.faithful.epochs` and
:mod:`repro.routing.dynamic` — goes through both, so one graph gives
every driver the same events in the same order; every driver with
traffic routes it through :func:`run_execution`.  The default
configuration (batched delivery plus the incremental relaxations of
:mod:`repro.routing.fpss`) is what the convergence sweep probe and the
benchmarks measure; the knobs exist so the equivalence tests can run
the same graph in every mode and compare fixed points.

Oracles
-------
Both checks of a converged network read :mod:`repro.routing.engine`,
never the replay kernel they check.  :func:`verify_against_oracle`
compares routes and VCG prices entry by entry, with a float tolerance,
and names the first wrong entry; a source's routes are all checked
before its prices, which come from one payment sweep per source.
:func:`~repro.routing.dynamic.verify_epoch_equivalence` compares the
DATA1/DATA2/DATA3* digests, identity tags included, bit for bit against
:func:`~repro.routing.engine.fixed_point_digests`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import ConvergenceError
from ..obs.trace import emit_marker
from ..sim.network import NetworkTopology
from ..sim.node import ProtocolNode
from ..sim.simulator import Simulator
from .engine import engine_for
from .fpss import FPSSNode
from .graph import ASGraph, Cost, NodeId
from .vcg_payments import _source_payments

#: (source, destination) -> packet volume.
TrafficMatrix = Mapping[Tuple[NodeId, NodeId], float]


def link_delay(delays, a: NodeId, b: NodeId) -> float:
    """Link ``a``-``b``'s delay under ``delays``, as a float.

    ``delays`` is a constant, a callable ``delays(a, b)``, or a mapping
    ``frozenset({a, b}) -> delay`` that gives every link it does not
    name the unit delay.  Heterogeneous delays make the network
    asynchronous; the faithful extension only relies on per-link FIFO.
    """
    if callable(delays):
        return float(delays(a, b))
    if isinstance(delays, Mapping):
        return float(delays.get(frozenset((a, b)), 1.0))
    return float(delays)


def topology_from_graph(graph: ASGraph, delay=1.0) -> NetworkTopology:
    """A simulator topology mirroring the AS graph's links.

    ``delay`` is resolved per link by :func:`link_delay`.
    """
    topology = NetworkTopology()
    for node in graph.nodes:
        topology.add_node(node)
    for a, b in graph.edges:
        topology.add_link(a, b, delay=link_delay(delay, a, b))
    return topology


def build_network(
    graph: ASGraph,
    make_node: Callable[[NodeId, Cost], ProtocolNode],
    link_delays=1.0,
    batch_delivery: bool = True,
) -> Tuple[Simulator, Dict[NodeId, ProtocolNode]]:
    """A simulator with one ``make_node(node_id, cost)`` node per vertex.

    Nodes are made and added in graph order.  ``batch_delivery=False``
    turns off same-instant delivery coalescing: every message is a
    batch of one, so nodes recompute per message instead of per
    same-instant batch (same fixed point either way).
    """
    simulator = Simulator(
        topology_from_graph(graph, delay=link_delays),
        batch_delivery=batch_delivery,
    )
    nodes: Dict[NodeId, ProtocolNode] = {}
    for node_id in graph.nodes:
        node = make_node(node_id, graph.cost(node_id))
        nodes[node_id] = node
        simulator.add_node(node)
    return simulator, nodes


def run_phase(
    simulator: Simulator,
    nodes: Mapping[NodeId, FPSSNode],
    phase: str,
    max_events: int,
) -> int:
    """Start ``phase`` on every node and run it to quiescence.

    Schedules each node's ``start_<phase>`` now, in ``repr`` order of
    node ids, then drains the queue; returns the events processed.
    """
    for node_id in sorted(nodes, key=repr):
        simulator.schedule_local(
            node_id, 0.0, getattr(nodes[node_id], "start_" + phase), label=phase
        )
    return simulator.run_until_quiescent(max_events=max_events)


def originating_flows(
    traffic: TrafficMatrix,
) -> List[Tuple[NodeId, NodeId, float]]:
    """The flows of positive volume between distinct nodes, in ``repr`` order."""
    return [
        (source, destination, volume)
        for (source, destination), volume in sorted(traffic.items(), key=repr)
        if volume > 0 and source != destination
    ]


def run_execution(
    simulator: Simulator,
    nodes: Mapping[NodeId, FPSSNode],
    flows: List[Tuple[NodeId, NodeId, float]],
    max_events: int,
) -> None:
    """Start the execution phase, originate ``flows``, and quiesce."""
    emit_marker("protocol.phase", sim_time=simulator.now, phase="execution")
    for node_id in sorted(nodes, key=repr):
        nodes[node_id].start_execution()
    for source, destination, volume in flows:
        simulator.schedule_local(
            source,
            0.0,
            partial(nodes[source].originate_flow, destination, volume),
            label="originate",
        )
    simulator.run_until_quiescent(max_events=max_events)


@dataclass
class ConvergenceStats:
    """How much work the construction phases took."""

    phase1_events: int
    phase2_events: int
    total_messages: int
    total_computations: int

    @property
    def total_events(self) -> int:
        """Events across both construction phases."""
        return self.phase1_events + self.phase2_events


def run_construction_phases(
    simulator: Simulator,
    nodes: Mapping[NodeId, FPSSNode],
    max_events: int = 2_000_000,
) -> ConvergenceStats:
    """Drive phase 1 then phase 2 to quiescence."""
    phase1_events = run_phase(simulator, nodes, "phase1", max_events)
    phase2_events = run_phase(simulator, nodes, "phase2", max_events)
    return ConvergenceStats(
        phase1_events=phase1_events,
        phase2_events=phase2_events,
        total_messages=simulator.metrics.total_messages,
        total_computations=simulator.metrics.total_computations,
    )


def run_plain_fpss(
    graph: ASGraph,
    node_factory: Optional[Callable[[NodeId, Cost], FPSSNode]] = None,
    link_delays=1.0,
    max_events: int = 2_000_000,
    batch_delivery: bool = True,
) -> Tuple[Simulator, Dict[NodeId, FPSSNode], ConvergenceStats]:
    """Build, run, and return a converged plain-FPSS network.

    Parameters
    ----------
    graph:
        The AS graph (true transit costs; biconnected for pricing).
    node_factory:
        Optional ``(node_id, cost) -> FPSSNode`` substitution hook for
        manipulation subclasses; obedient :class:`FPSSNode` otherwise.
    link_delays:
        Per-link delays, resolved by :func:`link_delay`;
        heterogeneous values make the run asynchronous across links.
    max_events:
        Event budget per construction phase before a
        :class:`~repro.errors.ConvergenceError` is raised.
    batch_delivery:
        Coalesce same-instant deliveries (the incremental engine's
        default); ``False`` delivers each message as a batch of one.

    Returns
    -------
    ``(simulator, nodes, stats)`` — the quiesced simulator, the node
    map, and the per-phase :class:`ConvergenceStats` work counters.
    """
    simulator, nodes = build_network(
        graph, node_factory or FPSSNode, link_delays, batch_delivery
    )
    stats = run_construction_phases(simulator, nodes, max_events=max_events)
    return simulator, nodes, stats


def measure_convergence(
    graph: ASGraph,
    link_delays=1.0,
    verify: bool = True,
    check_prices: bool = False,
    max_events: int = 2_000_000,
    batch_delivery: bool = True,
) -> ConvergenceStats:
    """One self-contained convergence measurement for a scenario.

    Builds a fresh simulator, drives both construction phases to
    quiescence (under ``link_delays``, forwarded to
    :func:`run_plain_fpss` together with ``max_events`` and
    ``batch_delivery``), optionally cross-checks the fixed point
    against the centralized oracle (``verify`` — routes always,
    ``check_prices`` adds the VCG pricing tables), and returns the
    work counters.  Nothing is shared between calls, so this is safe
    to invoke from sweep workers (one process may run many scenarios
    back to back).
    """
    _, nodes, stats = run_plain_fpss(
        graph,
        link_delays=link_delays,
        max_events=max_events,
        batch_delivery=batch_delivery,
    )
    if verify:
        verify_against_oracle(graph, nodes, check_prices=check_prices)
    return stats


def verify_against_oracle(
    graph: ASGraph, nodes: Mapping[NodeId, FPSSNode], check_prices: bool = True
) -> None:
    """Assert the converged tables equal the centralized computation.

    Raises
    ------
    ConvergenceError
        For a graph node that is missing from ``nodes`` or never
        started, or on the first routing or pricing disagreement found.
    """
    engine = engine_for(graph)
    for source in graph.nodes:
        node = nodes.get(source)
        if node is None:
            raise ConvergenceError(f"{source!r} is in the graph but has no node")
        if node.comp is None:
            raise ConvergenceError(f"{source!r} never started construction")
        routing = node.routing_table()
        pricing = node.pricing_table()
        tree = engine.tree(source)
        destinations = [other for other in graph.nodes if other != source]
        for destination in destinations:
            oracle = tree.get(destination)
            entry = routing.entry(destination)
            if entry is None or oracle is None:
                raise ConvergenceError(
                    f"{source!r} has no route to {destination!r}"
                )
            # Costs may differ by float accumulation order between the
            # hop-by-hop relaxation and the oracle's Dijkstra.
            if entry.path != oracle.path or abs(entry.cost - oracle.cost) > 1e-9:
                raise ConvergenceError(
                    f"route {source!r}->{destination!r}: protocol said "
                    f"{entry.path} @ {entry.cost}, oracle said "
                    f"{oracle.path} @ {oracle.cost}"
                )
        if not check_prices:
            continue
        priced = _source_payments(engine, source, destinations)
        for destination in destinations:
            for transit, expected in priced[destination].payments.items():
                actual = pricing.price(destination, transit)
                if abs(expected - actual) > 1e-9:
                    raise ConvergenceError(
                        f"price {source!r}->{destination!r} via {transit!r}: "
                        f"protocol said {actual}, oracle said {expected}"
                    )
