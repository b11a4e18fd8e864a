"""The topology's neighbour tuples and delay map stay in step with its links.

``NetworkTopology`` keeps each node's ``repr``-sorted neighbour tuple and
a directed ``(src, dst) -> delay`` map as state, so the send path reads
them instead of recomputing.  These tests replay mutation sequences
against a plain edge-set model and require both caches to equal what
the model derives after every step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import NetworkTopology, ProtocolNode, Simulator

NODES = ("a", "b", "c", "d", "e", 1, 2)


def expected_neighbors(nodes, edges):
    """Reference: neighbours from the edge set, sorted by repr."""
    return {
        node: tuple(
            sorted(
                (other for pair in edges if node in pair for other in pair if other != node),
                key=repr,
            )
        )
        for node in nodes
    }


def expected_delays(edges):
    """Reference: both directions of every link."""
    delays = {}
    for pair, delay in edges.items():
        a, b = tuple(pair)
        delays[(a, b)] = delays[(b, a)] = delay
    return delays


def assert_in_step(topo, nodes, edges):
    assert topo.nodes == frozenset(nodes)
    neighbors = expected_neighbors(nodes, edges)
    for node in nodes:
        assert topo.neighbors(node) == neighbors[node]
        assert topo.degree(node) == len(neighbors[node])
    assert dict(topo.delays) == expected_delays(edges)
    for (a, b), delay in expected_delays(edges).items():
        assert topo.has_link(a, b)
        assert topo.link(a, b).delay == delay


def fresh(nodes, edges):
    topo = NetworkTopology()
    for node in nodes:
        topo.add_node(node)
    for pair, delay in edges.items():
        topo.add_link(*sorted(pair, key=repr), delay=delay)
    return topo


operations = st.lists(
    st.tuples(
        st.sampled_from(
            ("add-link",) * 4 + ("remove-link",) * 2 + ("add-node", "remove-node")
        ),
        st.sampled_from(NODES),
        st.sampled_from(NODES),
        st.sampled_from((0.5, 1.0, 2.0, 3.5)),
    ),
    max_size=40,
)


class TestCachesFollowMutations:
    @settings(max_examples=150, deadline=None)
    @given(ops=operations)
    def test_every_mutation_keeps_caches_in_step(self, ops):
        topo = NetworkTopology()
        for node in NODES:
            topo.add_node(node)
        nodes, edges = set(NODES), {}
        for op, x, y, delay in ops:
            pair = frozenset((x, y))
            if op == "add-node":
                topo.add_node(x)
                nodes.add(x)
            elif op == "add-link":
                if x == y or x not in nodes or y not in nodes or pair in edges:
                    continue
                topo.add_link(x, y, delay=delay)
                edges[pair] = delay
            elif op == "remove-link":
                if pair not in edges:
                    with pytest.raises(SimulationError):
                        topo.remove_link(x, y)
                    continue
                topo.remove_link(x, y)
                del edges[pair]
            else:
                if x not in nodes:
                    continue
                topo.remove_node(x)
                nodes.discard(x)
                edges = {p: d for p, d in edges.items() if x not in p}
            assert_in_step(topo, nodes, edges)
            # ... and a topology built from scratch reads the same.
            rebuilt = fresh(nodes, edges)
            assert dict(rebuilt.delays) == dict(topo.delays)
            assert all(rebuilt.neighbors(n) == topo.neighbors(n) for n in nodes)

    def test_removed_node_is_unknown(self):
        topo = NetworkTopology.from_edges([("a", "b"), ("b", "c")])
        topo.remove_node("b")
        with pytest.raises(SimulationError, match="unknown node"):
            topo.neighbors("b")
        assert topo.neighbors("a") == ()
        assert dict(topo.delays) == {}


class Sink(ProtocolNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.got = []

    def on_note(self, message):
        self.got.append((message.src, self.now))


def make_line():
    topo = NetworkTopology.from_edges([("a", "b"), ("b", "c")])
    sim = Simulator(topo)
    nodes = {n: Sink(n) for n in ("a", "b", "c")}
    for node in nodes.values():
        sim.add_node(node)
    return topo, sim, nodes


class TestTransmitReadsTheCaches:
    def test_removed_link_refuses_transmission(self):
        topo, sim, nodes = make_line()
        topo.remove_link("a", "b")
        with pytest.raises(SimulationError, match="non-neighbour"):
            nodes["a"].send("b", "note")
        with pytest.raises(SimulationError, match="non-neighbour"):
            nodes["b"].send("a", "note")
        assert nodes["b"].neighbors == ("c",)

    def test_removed_node_refuses_transmission(self):
        topo, sim, nodes = make_line()
        topo.remove_node("c")
        with pytest.raises(SimulationError, match="non-neighbour"):
            nodes["b"].send("c", "note")

    def test_restored_link_takes_its_new_delay(self):
        topo, sim, nodes = make_line()
        topo.remove_link("a", "b")
        topo.add_link("b", "a", delay=2.5)
        nodes["a"].send("b", "note")
        sim.run_until_quiescent()
        assert nodes["b"].got == [("a", 2.5)]
        assert nodes["a"].neighbors == ("b",)

    def test_bank_reachable_without_a_link(self):
        topo, sim, nodes = make_line()
        bank = Sink("bank")
        sim.add_node(bank, well_known=True)
        topo.remove_link("a", "b")
        nodes["a"].send("bank", "note")
        bank.send("c", "note")
        sim.run_until_quiescent()
        assert bank.got == [("a", 1.0)]
        assert nodes["c"].got == [("bank", 1.0)]
