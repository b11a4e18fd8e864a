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
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import (
    ReplayKernel,
    RouteEntry,
    run_plain_fpss,
    verify_against_oracle,
)
from repro.routing.fpss import encode_avoid_delta, encode_route_delta
from repro.routing.kernel import kernel_fixed_point
from repro.workloads import random_biconnected_graph


def build_computation(graph, owner):
    comp = ReplayKernel(owner, graph.neighbors(owner), graph.cost(owner))
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


def settle_observed(comp):
    """Settle once; the change flags, both digests and both deltas."""
    flags = settle_flags(comp)
    return (
        flags,
        digests(comp),
        comp.consume_route_delta(),
        comp.consume_avoid_delta(),
    )


class EventDriver:
    """Drive a kernel and its full re-relaxation reference in lockstep.

    Both kernels take the same wire deltas and events; the reference is
    marked entirely dirty before every settle, so any key an event fails
    to mark shows as a difference in flags, digests or deltas.
    """

    def __init__(self, graph, owner, rng):
        self.graph = graph
        self.owner = owner
        self.rng = rng
        self.reference = build_computation(graph, owner)
        self.incremental = build_computation(graph, owner)
        self.universe = sorted(graph.nodes, key=repr)
        self.last_routes = {n: {} for n in graph.neighbors(owner)}
        self.last_avoid = {n: {} for n in graph.neighbors(owner)}
        self.fresh = 0

    def both(self, method, *args):
        results = [getattr(c, method)(*args) for c in self.kernels()]
        assert results[0] == results[1]

    def kernels(self):
        return (self.reference, self.incremental)

    def cost(self):
        # Small integers make cost ties (and the lex tie-break) common.
        return float(self.rng.randint(1, 6))

    def others(self):
        return [n for n in self.universe if n != self.owner]

    def wire(self):
        neighbors = self.incremental.neighbors
        if not neighbors:
            return
        sender = self.rng.choice(neighbors)
        graph_view = SimpleNamespace(nodes=self.universe)
        route_vector = random_route_vector(self.rng, graph_view, sender)
        avoid_vector = random_avoid_vector(
            self.rng, graph_view, sender, route_vector
        )
        route_delta = encode_route_delta(route_vector, self.last_routes[sender])
        avoid_delta = encode_avoid_delta(avoid_vector, self.last_avoid[sender])
        self.last_routes[sender] = route_vector
        self.last_avoid[sender] = avoid_vector
        self.both("apply_route_delta", sender, route_delta)
        self.both("apply_avoid_delta", sender, avoid_delta)

    def declare_known(self):
        self.both("note_cost_declaration", self.rng.choice(self.others()), self.cost())

    def declare_new(self):
        node = f"x{self.fresh:02d}"
        self.fresh += 1
        self.universe.append(node)
        self.universe.sort(key=repr)
        self.both("note_cost_declaration", node, self.cost())

    def change_own(self):
        self.both("change_own_cost", self.cost())

    def detach(self):
        neighbors = self.incremental.neighbors
        if neighbors:
            peer = self.rng.choice(neighbors)
            self.both("detach_neighbor", peer)
            del self.last_routes[peer], self.last_avoid[peer]

    def attach(self):
        peers = [n for n in self.others() if n not in self.incremental.neighbors]
        if peers:
            peer = self.rng.choice(peers)
            self.both("attach_neighbor", peer)
            self.last_routes[peer] = {}
            self.last_avoid[peer] = {}

    def retract(self):
        known = [n for n in self.incremental.known_nodes() if n != self.owner]
        if known:
            self.both("retract_cost_declaration", self.rng.choice(known))

    def reanchor(self):
        rng = self.rng
        current = set(self.incremental.neighbors)
        wanted = {n for n in current if rng.random() < 0.8}
        wanted.update(n for n in self.others() if rng.random() < 0.15)
        changes = tuple(
            (node, self.cost())
            for node in self.others()
            if rng.random() < 0.25
        )
        self.both(
            "reanchor", tuple(sorted(wanted, key=repr)), self.cost(), changes
        )
        for peer in current - wanted:
            del self.last_routes[peer], self.last_avoid[peer]
        for peer in wanted - current:
            self.last_routes[peer] = {}
            self.last_avoid[peer] = {}

    def reanchor_retracting(self):
        """A departure as one re-anchor op: the node is detached (if a
        neighbour) and ``(node, None)`` retracts its declaration.  The
        reference takes the same change through ``detach_neighbor`` and
        ``retract_cost_declaration``."""
        known = [n for n in self.incremental.known_nodes() if n != self.owner]
        if not known:
            return
        gone = self.rng.choice(known)
        kept = tuple(n for n in self.incremental.neighbors if n != gone)
        if gone in self.incremental.neighbors:
            self.reference.detach_neighbor(gone)
            del self.last_routes[gone], self.last_avoid[gone]
        self.reference.retract_cost_declaration(gone)
        self.incremental.reanchor(kept, self.incremental.own_cost, ((gone, None),))
        assert self.incremental.known_nodes() == self.reference.known_nodes()

    def settle_and_compare(self):
        self.reference._mark_all_dirty()
        observed = settle_observed(self.incremental)
        assert settle_observed(self.reference) == observed
        return observed


EVENTS = (
    "declare_known", "declare_new", "change_own", "detach", "attach",
    "retract", "reanchor", "reanchor_retracting",
)


class TestEventEquivalence:
    """Events mark only the keys they feed: dirty set == everything dirty.

    Every kernel event (a DATA1 entry noted, new, retracted or the
    owner's own, a link detached or attached, and an epoch's re-anchor,
    including one that retracts a departed node)
    is interleaved with wire deltas; after every step the kernel must
    settle exactly like the same kernel with every key marked dirty.
    """

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_interleaved_events_match_full_rescan(self, seed):
        rng = random.Random(seed)
        graph = random_biconnected_graph(rng.randint(4, 8), rng)
        owner = rng.choice(sorted(graph.nodes, key=repr))
        driver = EventDriver(graph, owner, rng)
        driver.settle_and_compare()
        for _ in range(3):  # seed offers first, so events have work
            driver.wire()
        driver.settle_and_compare()
        for _step in range(12):
            for _op in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    driver.wire()
                else:
                    getattr(driver, rng.choice(EVENTS))()
            driver.settle_and_compare()

    @pytest.mark.parametrize("seed", range(6))
    def test_each_event_after_a_converged_table(self, seed):
        """Each event once, on a kernel holding a converged table."""
        graph = random_biconnected_graph(7, random.Random(seed))
        owner = sorted(graph.nodes, key=repr)[seed % 7]
        for event in EVENTS:
            driver = converged_driver(graph, owner, random.Random(seed))
            getattr(driver, event)()
            driver.settle_and_compare()

    @pytest.mark.parametrize("seed", range(8))
    def test_non_neighbor_transit_cost_change(self, seed):
        """Directed: only a non-neighbour transit's DATA1 entry moves.

        No offer changes, so the only input that moved is the price
        term ``c_x`` of every row whose route crosses ``x``; the settle
        must re-derive exactly those rows.
        """
        graph = random_biconnected_graph(9, random.Random(seed))
        for owner in sorted(graph.nodes, key=repr):
            driver = converged_driver(graph, owner, random.Random(seed))
            kernel = driver.incremental
            transits = sorted(
                {
                    node
                    for dest in kernel.routing.destinations
                    for node in kernel.routing.entry(dest).path[1:-1]
                    if node not in kernel.neighbors
                },
                key=repr,
            )
            if transits:
                break
        else:
            pytest.skip("no route crosses a non-neighbour transit")
        x = transits[0]
        before = digests(kernel)
        work = kernel.stats.as_dict()
        driver.both("note_cost_declaration", x, graph.cost(x) + 1.5)
        flags, after, route_delta, avoid_delta = driver.settle_and_compare()
        assert flags == (False, False, True)
        assert after[0] == before[0] and after[1] != before[1]
        assert route_delta == () and avoid_delta == ()
        assert kernel.stats.as_dict() == work  # nothing relaxed or rescanned


def converged_driver(graph, owner, rng):
    """An :class:`EventDriver` whose two kernels hold ``owner``'s
    converged tables (no wire deltas are driven on them)."""
    driver = EventDriver(graph, owner, rng)
    driver.reference = kernel_fixed_point(graph)[owner]
    driver.incremental = kernel_fixed_point(graph)[owner]
    return driver


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
