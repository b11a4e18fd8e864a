"""DATA3* identity tags against the neighbour scan they replaced.

Reproduces: the DATA3* identity tags of Shneidman & Parkes (PODC'04)
Section 4.3 — each pricing cell names the node that supplied its
``d^{-k}`` value, and BANK2 hashes the tags with the prices.

The kernel reads a cell's tag in O(1) from the avoidance key's reigning
supplier (``routing/kernel.py::_tag_of``).  :func:`reference_tag` is
the rule the tag used to come from: scan every neighbour's candidate
under the sparse wire's case split and take the union of the argmin
ties.  On every pricing cell the two must agree, and the tag must be a
singleton — every neighbour offers a path that starts with itself, so
two suppliers never tie on the full (cost, hops, lex) order.  The
graphs are tie-heavy (unit, zero and 1-2 costs), where a wrong argmin
would show first.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import (
    DynamicTopologyEngine,
    FPSSComputation,
    RouteEntry,
    kernel_fixed_point,
    run_plain_fpss,
)
from repro.routing.fpss import encode_avoid_delta, encode_route_delta
from repro.sim.churn import random_churn_schedule
from repro.workloads import random_biconnected_graph

TIE_COSTS = ("unit", "zero", "one-two")


def tie_heavy_graph(size, seed, costs):
    """A random biconnected graph whose costs make most paths tie."""
    rng = random.Random(seed)
    low, high = {"unit": (1.0, 1.0), "zero": (0.0, 0.0)}.get(costs, (1.0, 1.0))
    graph = random_biconnected_graph(
        size, rng, extra_edge_prob=0.3, cost_range=(low, high)
    )
    if costs == "one-two":
        graph = graph.with_costs(
            {node: float(rng.randint(1, 2)) for node in sorted(graph.nodes)}
        )
    return graph


def reference_tag(kernel, destination, avoided):
    """Argmin suppliers of one avoidance key, union on ties.

    Reads only the kernel's stored inputs (neighbour offers and DATA1),
    never its relaxation state, and orders candidates by (cost, hops,
    repr of every path node) as the engine oracle does.
    """
    owner = kernel.owner
    did = kernel._node_ids.get(destination)
    key = (destination, avoided)
    candidates = []
    for neighbor in kernel.neighbors:
        if neighbor == avoided:
            continue
        if neighbor == destination:
            candidates.append(((0.0, 1, (repr(destination),)), neighbor))
            continue
        route = kernel._route_offers.get(neighbor, {}).get(did)
        ncost = kernel.costs.get(neighbor)
        if route is None or ncost is None:
            continue
        cost, path = route[1], route[2]
        if avoided in path:
            offer = kernel._avoid_offers.get(neighbor, {}).get(key)
            if offer is None:
                continue
            cost, path = offer[2], offer[3]
        if owner in path or avoided in path:
            continue
        order = (ncost + cost, len(path), tuple(repr(node) for node in path))
        candidates.append((order, neighbor))
    if not candidates:
        return frozenset()
    best = min(order for order, _ in candidates)
    return frozenset(neighbor for order, neighbor in candidates if order == best)


def assert_tags_match_reference(kernels):
    """Every pricing cell's tag is the reference scan's singleton;
    returns the number of cells checked."""
    cells = 0
    for owner, kernel in kernels.items():
        for destination in kernel.pricing.destinations:
            for transit, cell in kernel.pricing.row(destination).items():
                where = (owner, destination, transit)
                assert cell.tag == reference_tag(kernel, destination, transit), where
                assert len(cell.tag) == 1, where
                cells += 1
    return cells


class TestTagsMatchNeighbourScan:
    @settings(max_examples=25, deadline=None)
    @given(
        size=st.integers(min_value=4, max_value=12),
        seed=st.integers(min_value=0, max_value=100_000),
        costs=st.sampled_from(TIE_COSTS),
    )
    def test_fixed_point_and_protocol_tags(self, size, seed, costs):
        graph = tie_heavy_graph(size, seed, costs)
        assert_tags_match_reference(kernel_fixed_point(graph))
        _, nodes, _ = run_plain_fpss(graph)
        assert_tags_match_reference(
            {node_id: node.comp for node_id, node in nodes.items()}
        )

    def test_churned_run(self):
        """Withdrawals, joins and cost changes move suppliers around;
        after every epoch each live node's tags still match."""
        graph = tie_heavy_graph(12, 5, "one-two")
        schedule = random_churn_schedule(
            graph,
            random.Random(5),
            epochs=4,
            events_per_epoch=2,
            kinds=("cost", "link-down", "link-up", "leave", "join"),
            cost_range=(1.0, 2.0),
            seed=5,
        )
        engine = DynamicTopologyEngine(graph)
        engine.converge()
        cells = 0
        for events in schedule.epochs:
            engine.run_epoch(events)
            cells += assert_tags_match_reference(
                {node_id: engine.nodes[node_id].comp for node_id in engine.graph.nodes}
            )
        assert cells > 0


def random_offer_path(rng, nodes, sender, destination, avoided=None):
    """A plausible offered path: sender, up to two others, destination."""
    middle = [n for n in nodes if n not in (sender, destination, avoided)]
    rng.shuffle(middle)
    return (sender,) + tuple(middle[: rng.randint(0, 2)]) + (destination,)


class TestTagsUnderArbitraryOffers:
    """Off the honest path (a deviant neighbour announces anything) the
    reigning supplier must still be the scan's unique argmin."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_delta_stream(self, seed):
        rng = random.Random(seed)
        graph = random_biconnected_graph(
            rng.randint(4, 8), rng, cost_range=(1.0, 1.0)
        )
        nodes = sorted(graph.nodes)
        owner = rng.choice(nodes)
        comp = FPSSComputation(owner, graph.neighbors(owner), graph.cost(owner))
        for node in nodes:
            comp.note_cost_declaration(node, graph.cost(node))
        comp.settle()
        last_routes = {sender: {} for sender in graph.neighbors(owner)}
        last_avoid = {sender: {} for sender in graph.neighbors(owner)}
        for _ in range(8):
            sender = rng.choice(graph.neighbors(owner))
            routes = {}
            avoid = {}
            for destination in nodes:
                if destination == sender or rng.random() < 0.3:
                    continue
                path = random_offer_path(rng, nodes, sender, destination)
                # Small integer costs: equal totals are the common case.
                routes[destination] = RouteEntry(float(rng.randint(0, 3)), path)
                for avoided in path[1:-1]:
                    if rng.random() < 0.7:
                        detour = random_offer_path(
                            rng, nodes, sender, destination, avoided
                        )
                        avoid[(destination, avoided)] = RouteEntry(
                            float(rng.randint(0, 4)), detour
                        )
            comp.apply_route_delta(
                sender, encode_route_delta(routes, last_routes[sender])
            )
            comp.apply_avoid_delta(sender, encode_avoid_delta(avoid, last_avoid[sender]))
            last_routes[sender] = routes
            last_avoid[sender] = avoid
            comp.settle()
            assert_tags_match_reference({owner: comp})
