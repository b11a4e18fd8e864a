"""Invariants of the sparse avoidance wire.

Reproduces: the pricing case split of Shneidman & Parkes (PODC'04)
Section 4 — node ``i`` prices transit node ``k`` on ``P(i,j)`` with
``d^{-k}(i,j)``, so it keeps and announces avoidance entries only for
``k`` interior to its own route (see :mod:`repro.routing.kernel`).

The contract is pinned at every fixed point (static runs, every churn
epoch, a run with a price-inflating deviant), on the wire (no obedient
node ever announces an off-path row), across fresh links next to a
hooked deviant, and as a counter gate on the work it saves.
"""

import random
from collections import deque

import pytest

from repro.faithful import DEVIATION_CATALOGUE, plain_deviant_factory
from repro.routing import FPSSNode, figure1_graph, run_plain_fpss
from repro.routing.dynamic import DynamicTopologyEngine
from repro.routing.kernel import KIND_PRICE_UPDATE, KIND_RT_UPDATE
from repro.sim.churn import ChurnEvent, random_churn_schedule
from repro.workloads import random_biconnected_graph

#: Kernel rows ingested, summed over all nodes, by a plain run on
#: ``random_biconnected_graph(64, random.Random(1),
#: extra_edge_prob=4/63)`` under the dense wire this replaced (every
#: ``(j, k)`` pair announced).
DENSE_ROWS_64_SEED_1 = 2_089_257


def reachable_avoiding(graph, source, avoided):
    """Nodes reachable from ``source`` in ``graph`` minus ``avoided``."""
    seen = {source}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for peer in graph.neighbors(node):
            if peer != avoided and peer not in seen:
                seen.add(peer)
                queue.append(peer)
    return seen


def assert_sparse_tables(graph, nodes):
    """Every node holds exactly its on-path avoidance entries.

    The expected key set is ``{(j, k) : k interior to P(i,j)}``, less
    the keys with no ``k``-avoiding path at all (a cut vertex ``k``).
    """
    for node_id in sorted(graph.nodes, key=repr):
        comp = nodes[node_id].comp
        expected = set()
        for dest in comp.routing.destinations:
            for transit in comp.routing.entry(dest).path[1:-1]:
                if dest in reachable_avoiding(graph, node_id, transit):
                    expected.add((dest, transit))
        assert set(comp.avoid) == expected, node_id


class WireRecordingNode(FPSSNode):
    """An obedient node checking every avoidance row it sends.

    Tracks the route it has announced from its own routing rows, and
    records each non-withdrawal avoidance row whose avoided node is not
    interior to that route.
    """

    def __init__(self, node_id, true_cost):
        super().__init__(node_id, true_cost)
        self.announced_paths = {}
        self.avoid_rows_sent = 0
        self.off_path_rows = []

    def multicast(self, targets, kind, size_hint=None, **payload):
        rows = payload.get("vector", ())
        if kind == KIND_RT_UPDATE:
            for dest, cost, path in rows:
                if cost is None:
                    self.announced_paths.pop(dest, None)
                else:
                    self.announced_paths[dest] = path
        elif kind == KIND_PRICE_UPDATE:
            for dest, avoided, cost, _path in rows:
                if cost is None:
                    continue
                self.avoid_rows_sent += 1
                if avoided not in self.announced_paths.get(dest, ())[1:-1]:
                    self.off_path_rows.append((dest, avoided))
        super().multicast(targets, kind, size_hint=size_hint, **payload)


def assert_wire_on_path(nodes):
    sent = 0
    for node_id, node in sorted(nodes.items(), key=lambda kv: repr(kv[0])):
        assert node.off_path_rows == [], node_id
        sent += node.avoid_rows_sent
    assert sent > 0


class TestFixedPointKeys:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_static_runs(self, seed):
        graph = random_biconnected_graph(
            14, random.Random(seed), extra_edge_prob=0.25
        )
        _, nodes, _ = run_plain_fpss(graph)
        assert_sparse_tables(graph, nodes)

    def test_figure1(self):
        graph = figure1_graph()
        _, nodes, _ = run_plain_fpss(graph)
        assert_sparse_tables(graph, nodes)

    @pytest.mark.parametrize(
        "kinds,require",
        [
            (("cost", "link-down", "link-up"), "connected"),
            (("cost", "link-down", "link-up", "leave", "join"), "connected"),
            (("link-down", "leave", "cost", "join"), None),
        ],
    )
    def test_every_churn_epoch(self, kinds, require):
        graph = random_biconnected_graph(
            12, random.Random(5), extra_edge_prob=0.15
        )
        schedule = random_churn_schedule(
            graph, random.Random(5), epochs=4, events_per_epoch=2,
            kinds=kinds, require=require, on_exhaustion="skip", seed=5,
        )
        engine = DynamicTopologyEngine(graph)
        engine.converge()
        assert_sparse_tables(engine.graph, engine.nodes)
        for events in schedule.epochs:
            engine.run_epoch(events)  # verifies against the engine oracle
            assert_sparse_tables(engine.graph, engine.nodes)

    def test_false_price_announce_run(self):
        graph = random_biconnected_graph(12, random.Random(2), extra_edge_prob=0.3)
        spec = DEVIATION_CATALOGUE["false-price-announce"]
        deviant = sorted(graph.nodes, key=repr)[3]
        _, nodes, _ = run_plain_fpss(
            graph, node_factory=plain_deviant_factory(spec, deviant)
        )
        assert_sparse_tables(graph, nodes)


class TestWireRows:
    def recording(self, node_id, cost):
        return WireRecordingNode(node_id, cost)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_static_run_announces_only_on_path_rows(self, seed):
        graph = random_biconnected_graph(
            16, random.Random(seed), extra_edge_prob=0.25
        )
        _, nodes, _ = run_plain_fpss(graph, node_factory=self.recording)
        assert_wire_on_path(nodes)

    def test_churn_epochs_announce_only_on_path_rows(self):
        graph = random_biconnected_graph(12, random.Random(9), extra_edge_prob=0.2)
        schedule = random_churn_schedule(
            graph, random.Random(9), epochs=3, events_per_epoch=2,
            kinds=("cost", "link-down", "link-up", "leave", "join"), seed=9,
        )
        engine = DynamicTopologyEngine(graph, node_factory=self.recording)
        engine.converge()
        for events in schedule.epochs:
            engine.run_epoch(events)
        assert_wire_on_path(
            {node_id: engine.nodes[node_id] for node_id in engine.graph.nodes}
        )


def stored_offers(comp, sender):
    """The route and avoidance rows ``comp`` holds from ``sender``."""
    routes = {row[0]: row[1:] for row in comp._route_offers.get(sender, {}).values()}
    avoid = {row[:2]: row[2:] for row in comp._avoid_offers.get(sender, {}).values()}
    return routes, avoid


class TestFreshLinkNextToDeviant:
    """A link-up resends what the deviant's other neighbours hold.

    The resend leaves through the same broadcast seams as every delta,
    so a rewriting deviant resends rewritten rows and a suppressing one
    sends the new neighbour no routes at all.
    """

    @pytest.mark.parametrize(
        "name", ["false-price-announce", "false-route-announce", "route-suppress"]
    )
    def test_new_neighbour_holds_the_announced_tables(self, name):
        graph = random_biconnected_graph(10, random.Random(4), extra_edge_prob=0.2)
        order = sorted(graph.nodes, key=repr)
        deviant = order[0]
        new_peer = next(
            node for node in order[1:] if node not in graph.neighbors(deviant)
        )
        old_peer = sorted(graph.neighbors(deviant), key=repr)[0]
        engine = DynamicTopologyEngine(
            graph,
            node_factory=plain_deviant_factory(DEVIATION_CATALOGUE[name], deviant),
            verify=False,
        )
        engine.converge()
        engine.run_epoch((ChurnEvent("link-up", link=(deviant, new_peer)),))
        fresh = stored_offers(engine.nodes[new_peer].comp, deviant)
        held = stored_offers(engine.nodes[old_peer].comp, deviant)
        assert fresh == held


class TestRowsIngestedGate:
    def test_plain_64_ingests_a_fifteenth_of_the_dense_wire(self):
        graph = random_biconnected_graph(
            64, random.Random(1), extra_edge_prob=4.0 / 63
        )
        _, nodes, _ = run_plain_fpss(graph)
        rows = sum(node.comp.stats.rows_ingested for node in nodes.values())
        assert rows * 15 <= DENSE_ROWS_64_SEED_1, rows
