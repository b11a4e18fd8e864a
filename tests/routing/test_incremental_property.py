"""Property: dirty tracking loses nothing against a full re-relaxation.

The kernel has one relaxation path, which settles only the keys its
ingestion marked dirty (dirty-key tracking, fused monotone adoption,
argmin-supplier invalidation).  Settling the same kernel with every
key marked dirty must be *observably identical*: same tables, same
digests, and the same changed flags after every input.  The semantic
check of the fixed point itself is the engine oracle
(``tests/routing/test_engine_oracle.py``).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import (
    FPSSComputation,
    RouteEntry,
    run_plain_fpss,
    verify_against_oracle,
)
from repro.routing.fpss import encode_avoid_delta, encode_route_delta
from repro.workloads import random_biconnected_graph


def build_computation(graph, owner):
    comp = FPSSComputation(owner, graph.neighbors(owner), graph.cost(owner))
    for node in graph.nodes:
        comp.note_cost_declaration(node, graph.cost(node))
    return comp


def random_route_vector(rng, graph, sender):
    """A plausible routing vector a neighbour might announce."""
    vector = {}
    for destination in graph.nodes:
        if destination == sender or rng.random() < 0.4:
            continue
        intermediate = [
            n for n in graph.nodes if n not in (sender, destination)
        ]
        rng.shuffle(intermediate)
        path = (sender,) + tuple(intermediate[: rng.randint(0, 2)]) + (
            destination,
        )
        vector[destination] = RouteEntry(
            cost=round(rng.uniform(0.0, 20.0), 3), path=path
        )
    return vector


def random_avoid_vector(rng, graph, sender, route_vector):
    """A plausible avoidance vector a neighbour might announce.

    Keys follow the sparse wire: ``(destination, avoided)`` only for
    ``avoided`` interior to the sender's announced route.
    """
    vector = {}
    for destination, route in route_vector.items():
        for avoided in route.path[1:-1]:
            if rng.random() < 0.3:
                continue
            intermediate = [
                n
                for n in graph.nodes
                if n not in (sender, destination, avoided)
            ]
            rng.shuffle(intermediate)
            path = (sender,) + tuple(intermediate[: rng.randint(0, 2)]) + (
                destination,
            )
            vector[(destination, avoided)] = RouteEntry(
                cost=round(rng.uniform(0.0, 20.0), 3), path=path
            )
    return vector


def digests(comp):
    return (comp.routing_digest(), comp.pricing_digest())


def settle_flags(comp):
    return (
        comp.recompute_routes(),
        comp.recompute_avoidance(),
        comp.derive_pricing(),
    )


class TestDeltaPathEquivalence:
    """Wire deltas with fused adoption: dirty set == everything dirty."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_delta_stream_matches_full_rescan(self, seed):
        rng = random.Random(seed)
        graph = random_biconnected_graph(rng.randint(4, 7), rng)
        owner = rng.choice(list(graph.nodes))
        # The reference is the same kernel with every key marked dirty
        # before each settle: a full re-relaxation from stored offers.
        reference = build_computation(graph, owner)
        incremental = build_computation(graph, owner)
        reference._mark_all_dirty()
        assert settle_flags(reference) == settle_flags(incremental)
        assert digests(reference) == digests(incremental)

        neighbors = graph.neighbors(owner)
        last_routes = {sender: {} for sender in neighbors}
        last_avoid = {sender: {} for sender in neighbors}
        for step in range(8):
            sender = rng.choice(neighbors)
            step_rng = random.Random(seed * 1000 + step)
            route_vector = random_route_vector(step_rng, graph, sender)
            avoid_vector = random_avoid_vector(
                step_rng, graph, sender, route_vector
            )
            route_delta = encode_route_delta(route_vector, last_routes[sender])
            avoid_delta = encode_avoid_delta(avoid_vector, last_avoid[sender])
            last_routes[sender] = route_vector
            last_avoid[sender] = avoid_vector

            # Shrinking vectors (withdrawals) exercise the universe
            # reference counts and the rescan fallback.
            for comp in (reference, incremental):
                comp.apply_route_delta(sender, route_delta)
                comp.apply_avoid_delta(sender, avoid_delta)
            reference._mark_all_dirty()
            assert settle_flags(reference) == settle_flags(incremental)
            assert digests(reference) == digests(incremental)


class TestProtocolEquivalence:
    """Whole-protocol runs agree across engine and delivery modes."""

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_converged_tables_identical_across_modes(self, seed):
        rng = random.Random(seed)
        graph = random_biconnected_graph(rng.randint(5, 9), random.Random(seed))
        runs = {
            "batched-incremental": run_plain_fpss(graph),
            "unbatched-incremental": run_plain_fpss(
                graph, batch_delivery=False
            ),
        }
        reference = None
        for mode, (_, nodes, _) in runs.items():
            verify_against_oracle(graph, nodes, check_prices=True)
            tables = {
                node_id: (
                    node.comp.routing_digest(),
                    node.comp.pricing_digest(),
                )
                for node_id, node in nodes.items()
            }
            if reference is None:
                reference = tables
            else:
                assert tables == reference, f"{mode} diverged"

    def test_heterogeneous_delays_still_agree(self):
        """Asynchrony across links does not break mode equivalence."""
        rng = random.Random(7)
        graph = random_biconnected_graph(8, rng)
        delay_rng = random.Random(8)
        delays = {
            frozenset((a, b)): delay_rng.choice((0.5, 1.0, 1.7, 2.3))
            for a, b in graph.edges
        }
        batched = run_plain_fpss(graph, link_delays=delays)[1]
        unbatched = run_plain_fpss(
            graph, link_delays=delays, batch_delivery=False
        )[1]
        verify_against_oracle(graph, batched, check_prices=True)
        verify_against_oracle(graph, unbatched, check_prices=True)
        for node_id in graph.nodes:
            assert (
                batched[node_id].comp.full_digest()
                == unbatched[node_id].comp.full_digest()
            )
