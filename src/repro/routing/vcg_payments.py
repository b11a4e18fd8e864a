"""FPSS/VCG transit payments (centralized reference).

FPSS pays each transit node based on the utility it brings to the
routing system plus its declared cost: for a packet from ``i`` to ``j``
whose LCP passes through transit node ``k``,

    p^{ij}_k = c_k + cost(LCP_{-k}(i, j)) - cost(LCP(i, j))

where ``LCP_{-k}`` is the lowest-cost path avoiding ``k``.  Nodes not
on the LCP receive nothing.  Biconnectivity guarantees ``LCP_{-k}``
exists, so every payment is well-defined.

Every payment here comes from one helper, :func:`_source_payments`:
one LCP tree per source for the routes and one
:meth:`~repro.routing.engine.RoutingEngine.source_detour_labels`
repair sweep per source for every ``LCP_{-k}`` cost.  Both sum path
costs left to right from the source, so each payment is bit-equal to
the formula above evaluated on the seed oracle's paths.

This module is the centralized oracle; the distributed protocol in
:mod:`repro.routing.fpss` must converge to the same values, and the
strategyproofness benchmark (experiment E3) sweeps misreports against
these payments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Tuple

from ..errors import RoutingError
from .engine import RoutingEngine, engine_for
from .graph import ASGraph, Cost, NodeId, PathCost


@dataclass(frozen=True)
class RoutePayments:
    """The LCP for one (source, destination) pair and its payments."""

    source: NodeId
    destination: NodeId
    route: PathCost
    payments: Mapping[NodeId, Cost]

    @property
    def total_payment(self) -> Cost:
        """Sum paid by the source for one packet on this route."""
        return sum(self.payments.values())


def vcg_transit_payment(
    graph: ASGraph, source: NodeId, destination: NodeId, transit: NodeId
) -> Cost:
    """The per-packet VCG payment to one transit node.

    Returns 0 for nodes not on the LCP (their marginal contribution is
    nil).  Raises :class:`RoutingError` if ``transit`` is an endpoint,
    or, as :func:`route_payments` does, if any transit node of the LCP
    cuts the pair off.
    """
    if transit in (source, destination):
        raise RoutingError(f"{transit!r} is an endpoint, not a transit node")
    return route_payments(graph, source, destination).payments.get(transit, 0.0)


def _source_payments(
    engine: RoutingEngine, source: NodeId, destinations: Iterable[NodeId]
) -> Dict[NodeId, RoutePayments]:
    """Route and transit payments from one source to each destination.

    The source's cached tree gives every route and one repair sweep
    gives every ``LCP_{-k}`` cost, so pairs sharing a source share
    both.  Raises :class:`RoutingError` when a requested pair is
    disconnected, or when one of its transit nodes cuts it off (the
    graph is then not biconnected); cut pairs that were not requested
    do not matter.
    """
    base = engine.tree(source)
    detours = engine.source_detour_labels(source)
    # Transit costs straight from the engine's arrays: a transit of a
    # tree route is always a graph node.
    index = engine._index
    costs = engine._costs
    result: Dict[NodeId, RoutePayments] = {}
    for destination in destinations:
        route = base.get(destination)
        if route is None:
            # The trivial pair, an unknown node or a disconnected pair.
            route = engine.path(source, destination)
        payments: Dict[NodeId, Cost] = {}
        for transit in route.transit_nodes:
            without_k = detours[transit].get(destination)
            if without_k is None:
                raise RoutingError(
                    f"no path from {source!r} to {destination!r} "
                    f"avoiding {transit!r}"
                )
            payments[transit] = costs[index[transit]] + without_k - route.cost
        result[destination] = RoutePayments(
            source=source, destination=destination, route=route, payments=payments
        )
    return result


def route_payments(
    graph: ASGraph, source: NodeId, destination: NodeId
) -> RoutePayments:
    """LCP and all transit payments for one ordered pair."""
    return _source_payments(engine_for(graph), source, (destination,))[destination]


def all_pairs_payments(
    graph: ASGraph,
) -> Dict[Tuple[NodeId, NodeId], RoutePayments]:
    """Route payments for every ordered pair (requires biconnectivity)."""
    graph.require_biconnected()
    engine = engine_for(graph)
    result: Dict[Tuple[NodeId, NodeId], RoutePayments] = {}
    nodes = graph.nodes
    for source in nodes:
        others = [node for node in nodes if node != source]
        for destination, bundle in _source_payments(engine, source, others).items():
            result[(source, destination)] = bundle
    return result


@dataclass
class NodeEconomics:
    """One node's cash flows and true costs under a traffic matrix."""

    received: Cost = 0.0
    paid: Cost = 0.0
    true_transit_cost: Cost = 0.0
    penalties: Cost = 0.0
    #: Extra terms (e.g. non-progress penalty) applied by experiments.
    adjustments: Cost = 0.0
    detail: Dict[str, Cost] = field(default_factory=dict)

    @property
    def utility(self) -> Cost:
        """Quasi-linear utility: income minus expenditure and cost."""
        return (
            self.received
            - self.paid
            - self.true_transit_cost
            - self.penalties
            + self.adjustments
        )


def economics_under_traffic(
    declared_graph: ASGraph,
    true_graph: ASGraph,
    traffic: Mapping[Tuple[NodeId, NodeId], float],
    payment_rule: str = "vcg",
) -> Dict[NodeId, NodeEconomics]:
    """Per-node economics when routes/payments follow declared costs.

    Parameters
    ----------
    declared_graph:
        Topology with the costs nodes *declared*; routing and payments
        are computed from these.
    true_graph:
        Same topology with *true* costs; real transit expenses come
        from these.
    traffic:
        Mapping (source, destination) -> packet volume.  Under
        ``"vcg"`` the flows are priced per source (one tree and one
        repair sweep each); amounts accumulate in ``repr`` order of
        the flows, so the totals do not depend on the mapping's order.
    payment_rule:
        ``"vcg"`` for the FPSS payment above, or ``"declared-cost"``
        for the naive scheme that simply reimburses each transit node
        its declared cost — the scheme Example 1 shows is manipulable.

    Returns
    -------
    dict
        Economics for every node of the graph (zeroed if untouched).
    """
    if payment_rule not in ("vcg", "declared-cost"):
        raise RoutingError(f"unknown payment rule {payment_rule!r}")
    economics: Dict[NodeId, NodeEconomics] = {
        node: NodeEconomics() for node in declared_graph.nodes
    }
    engine = engine_for(declared_graph)
    flows = []
    wanted: Dict[NodeId, List[NodeId]] = {}
    for (source, destination), volume in sorted(traffic.items(), key=repr):
        if volume == 0:
            continue
        if volume < 0:
            raise RoutingError(f"negative traffic volume for {(source, destination)}")
        flows.append((source, destination, volume))
        wanted.setdefault(source, []).append(destination)
    if payment_rule == "vcg":
        priced = {
            source: _source_payments(engine, source, destinations)
            for source, destinations in wanted.items()
        }
    for source, destination, volume in flows:
        if payment_rule == "vcg":
            pair_payments = priced[source][destination].payments
        else:
            pair_payments = {
                transit: declared_graph.cost(transit)
                for transit in engine.path(source, destination).transit_nodes
            }
        for transit, payment in pair_payments.items():
            economics[source].paid += volume * payment
            economics[transit].received += volume * payment
            economics[transit].true_transit_cost += volume * true_graph.cost(transit)
    return economics


def utility_of_misreport(
    true_graph: ASGraph,
    node: NodeId,
    declared_cost: Cost,
    traffic: Mapping[Tuple[NodeId, NodeId], float],
    payment_rule: str = "vcg",
) -> Tuple[Cost, Cost]:
    """(truthful utility, misreport utility) for one node's cost lie.

    All other nodes declare truthfully.  Under ``"vcg"`` the second
    component never exceeds the first (strategyproofness, Definition
    5); under ``"declared-cost"`` it can, reproducing Example 1.
    """
    truthful = economics_under_traffic(
        true_graph, true_graph, traffic, payment_rule=payment_rule
    )[node].utility
    lied_graph = true_graph.with_costs({node: declared_cost})
    lied = economics_under_traffic(
        lied_graph, true_graph, traffic, payment_rule=payment_rule
    )[node].utility
    return truthful, lied
