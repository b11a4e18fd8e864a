"""Property: FPSSComputation is a pure function of its message sequence.

This is the invariant the entire checker scheme rests on (Figure 2): a
mirror fed the same inputs in the same order must reproduce the
principal's tables bit-for-bit, and the converged *fixed point* must
not depend on the interleaving of inputs from different neighbours
(confluence), because copies from different neighbours may reach
different checkers in different relative orders between broadcasts.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import FPSSComputation, RouteEntry
from repro.routing.fpss import encode_route_delta
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


def send_vector(comp, last_sent, sender, vector):
    """Deliver a full vector as the wire delta against the last one sent."""
    comp.apply_route_delta(
        sender, encode_route_delta(vector, last_sent.get(sender, {}))
    )
    last_sent[sender] = vector


def apply_sequence(comp, sequence):
    last_sent = {}
    for sender, vector in sequence:
        send_vector(comp, last_sent, sender, vector)
        comp.recompute_routes()
        comp.recompute_avoidance()
        comp.derive_pricing()


class TestReplayDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_identical_sequences_give_identical_digests(self, seed):
        """Bit-for-bit replay: same inputs, same order -> same state."""
        rng = random.Random(seed)
        graph = random_biconnected_graph(rng.randint(4, 7), rng)
        owner = rng.choice(list(graph.nodes))
        sequence = [
            (rng.choice(graph.neighbors(owner)), random_route_vector(rng, graph, s))
            for s in [rng.choice(graph.neighbors(owner)) for _ in range(6)]
        ]
        # Regenerate sender-consistent vectors.
        sequence = [
            (sender, random_route_vector(random.Random(seed + i), graph, sender))
            for i, (sender, _) in enumerate(sequence)
        ]
        principal = build_computation(graph, owner)
        mirror = build_computation(graph, owner)
        apply_sequence(principal, sequence)
        apply_sequence(mirror, sequence)
        assert principal.routing_digest() == mirror.routing_digest()
        assert principal.pricing_digest() == mirror.pricing_digest()
        assert principal.full_digest() == mirror.full_digest()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_fixed_point_is_interleaving_confluent(self, seed):
        """Confluence: the *final* neighbour vectors determine the
        converged tables, regardless of the interleaving of earlier
        updates — which is why mirrors at different checkers agree at
        quiescence even though they saw different prefixes."""
        rng = random.Random(seed)
        graph = random_biconnected_graph(rng.randint(4, 6), rng)
        owner = rng.choice(list(graph.nodes))
        neighbors = graph.neighbors(owner)
        final_vectors = {
            sender: random_route_vector(random.Random(seed + hash(sender) % 97), graph, sender)
            for sender in neighbors
        }

        def stale_version(sender):
            """An earlier, worse announcement from the same sender.

            Protocol announcements are monotone: later vectors cover at
            least the same destinations at no-worse costs (tables only
            gain destinations and improve).  The stale version drops
            some destinations and inflates the costs of the rest.
            """
            stale_rng = random.Random(seed + 7)
            return {
                destination: RouteEntry(
                    cost=entry.cost + stale_rng.uniform(0.5, 5.0),
                    path=entry.path,
                )
                for destination, entry in final_vectors[sender].items()
                if stale_rng.random() < 0.6
            }

        def converge(order, stale_first):
            comp = build_computation(graph, owner)
            last_sent = {}
            if stale_first:
                for sender in order:
                    send_vector(comp, last_sent, sender, stale_version(sender))
                    comp.recompute_routes()
                    comp.recompute_avoidance()
            for sender in order:
                send_vector(comp, last_sent, sender, final_vectors[sender])
            comp.recompute_routes()
            comp.recompute_avoidance()
            comp.derive_pricing()
            return comp

        orders = [list(neighbors), list(reversed(neighbors))]
        digests = set()
        for order in orders:
            for stale_first in (False, True):
                comp = converge(order, stale_first)
                digests.add(
                    (comp.routing_digest(), comp.pricing_digest())
                )
        assert len(digests) == 1
