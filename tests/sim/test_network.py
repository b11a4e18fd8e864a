"""Tests for the static FIFO topology."""

import pytest

from repro.errors import SimulationError
from repro.sim import Link, NetworkTopology


class TestLink:
    def test_rejects_self_loop(self):
        with pytest.raises(SimulationError, match="self-loop"):
            Link(a="x", b="x")

    def test_rejects_non_positive_delay(self):
        with pytest.raises(SimulationError, match="positive"):
            Link(a="x", b="y", delay=0.0)

    def test_endpoints_orderless(self):
        assert Link("a", "b").endpoints == Link("b", "a").endpoints


class TestTopology:
    def test_add_node_idempotent(self):
        topo = NetworkTopology()
        topo.add_node("a")
        topo.add_node("a")
        assert len(topo) == 1

    def test_link_requires_registered_nodes(self):
        topo = NetworkTopology()
        topo.add_node("a")
        with pytest.raises(SimulationError, match="unknown node"):
            topo.add_link("a", "ghost")

    def test_duplicate_link_rejected(self):
        topo = NetworkTopology.from_edges([("a", "b")])
        with pytest.raises(SimulationError, match="already exists"):
            topo.add_link("b", "a")

    def test_neighbors_sorted(self):
        topo = NetworkTopology.from_edges([("m", "z"), ("m", "a")])
        assert topo.neighbors("m") == ("a", "z")

    def test_degree_counts_checkers(self):
        topo = NetworkTopology.from_edges([("p", "c1"), ("p", "c2"), ("p", "c3")])
        assert topo.degree("p") == 3

    def test_link_lookup(self):
        topo = NetworkTopology()
        topo.add_node("a")
        topo.add_node("b")
        link = topo.add_link("a", "b", delay=2.5)
        assert topo.link("b", "a") is link
        assert link.delay == 2.5
        assert topo.link("a", "a") is None

    def test_connectivity(self):
        topo = NetworkTopology.from_edges([("a", "b"), ("c", "d")])
        assert not topo.is_connected()
        topo.add_link("b", "c")
        assert topo.is_connected()

    def test_empty_topology_connected(self):
        assert NetworkTopology().is_connected()

    def test_iteration_deterministic(self):
        topo = NetworkTopology.from_edges([("b", "c"), ("a", "b")])
        assert list(topo) == ["a", "b", "c"]

    def test_unknown_neighbor_query(self):
        with pytest.raises(SimulationError):
            NetworkTopology().neighbors("ghost")
