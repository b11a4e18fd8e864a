"""Helpers to run the plain FPSS protocol to convergence.

Builds a simulator from an :class:`~repro.routing.graph.ASGraph` —
with homogeneous or per-link (``link_delays``) delays, and batched or
per-message delivery — drives the two construction phases to
quiescence, and cross-checks the distributed fixed point against the
centralized oracle.  The default configuration (batched delivery plus
the incremental relaxations of :mod:`repro.routing.fpss`) is what the
convergence sweep probe and the benchmarks measure; the knobs exist so
the equivalence tests can run the same graph in every mode and compare
fixed points.

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
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..errors import ConvergenceError
from ..sim.network import NetworkTopology
from ..sim.simulator import Simulator
from .engine import engine_for
from .fpss import FPSSNode
from .graph import ASGraph, Cost, NodeId
from .vcg_payments import _source_payments


def topology_from_graph(graph: ASGraph, delay=1.0) -> NetworkTopology:
    """A simulator topology mirroring the AS graph's links.

    Parameters
    ----------
    delay:
        Either a constant, a mapping ``frozenset({a, b}) -> delay``, or
        a callable ``delay(a, b) -> float``.  Heterogeneous delays make
        the network asynchronous across links; the faithful extension
        only relies on per-link FIFO, which any fixed per-link delay
        preserves.
    """
    topology = NetworkTopology()
    for node in graph.nodes:
        topology.add_node(node)
    for a, b in graph.edges:
        if callable(delay):
            link_delay = delay(a, b)
        elif isinstance(delay, dict):
            link_delay = delay[frozenset((a, b))]
        else:
            link_delay = delay
        topology.add_link(a, b, delay=link_delay)
    return topology


def build_plain_network(
    graph: ASGraph,
    node_factory: Optional[Callable[[NodeId, Cost], FPSSNode]] = None,
    trace_enabled: bool = False,
    link_delays=1.0,
    batch_delivery: bool = True,
) -> Tuple[Simulator, Dict[NodeId, FPSSNode]]:
    """A simulator populated with (possibly customised) FPSS nodes.

    ``node_factory`` lets callers substitute manipulation subclasses
    for chosen nodes; the default builds obedient :class:`FPSSNode`.
    ``link_delays`` is forwarded to :func:`topology_from_graph`, so
    heterogeneous (per-link) delays model asynchrony.
    ``batch_delivery=False`` turns off the simulator's same-instant
    delivery coalescing (one recomputation per message instead of one
    per batch; same fixed point either way).
    """
    factory = node_factory or (lambda node_id, cost: FPSSNode(node_id, cost))
    simulator = Simulator(
        topology_from_graph(graph, delay=link_delays),
        trace_enabled=trace_enabled,
        batch_delivery=batch_delivery,
    )
    nodes: Dict[NodeId, FPSSNode] = {}
    for node_id in graph.nodes:
        node = factory(node_id, graph.cost(node_id))
        nodes[node_id] = node
        simulator.add_node(node)
    return simulator, nodes


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
    for node_id in sorted(nodes, key=repr):
        simulator.schedule_local(
            node_id, 0.0, nodes[node_id].start_phase1, label="start-phase1"
        )
    phase1_events = simulator.run_until_quiescent(max_events=max_events)

    for node_id in sorted(nodes, key=repr):
        simulator.schedule_local(
            node_id, 0.0, nodes[node_id].start_phase2, label="start-phase2"
        )
    phase2_events = simulator.run_until_quiescent(max_events=max_events)

    return ConvergenceStats(
        phase1_events=phase1_events,
        phase2_events=phase2_events,
        total_messages=simulator.metrics.total_messages,
        total_computations=simulator.metrics.total_computations,
    )


def run_plain_fpss(
    graph: ASGraph,
    node_factory: Optional[Callable[[NodeId, Cost], FPSSNode]] = None,
    trace_enabled: bool = False,
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
    trace_enabled:
        Record a full simulator trace (off by default — large runs).
    link_delays:
        Constant, ``frozenset({a, b}) -> delay`` mapping, or callable
        ``delay(a, b)`` giving per-link delays; heterogeneous values
        make the run asynchronous across links.
    max_events:
        Event budget per construction phase before a
        :class:`~repro.errors.ConvergenceError` is raised.
    batch_delivery:
        Coalesce same-instant deliveries (the incremental engine's
        default); ``False`` restores per-message delivery events.

    Returns
    -------
    ``(simulator, nodes, stats)`` — the quiesced simulator, the node
    map, and the per-phase :class:`ConvergenceStats` work counters.
    """
    simulator, nodes = build_plain_network(
        graph,
        node_factory=node_factory,
        trace_enabled=trace_enabled,
        link_delays=link_delays,
        batch_delivery=batch_delivery,
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
