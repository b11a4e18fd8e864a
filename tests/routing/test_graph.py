"""Tests for AS graphs, biconnectivity, and the Figure 1 network."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, NotBiconnectedError
from repro.routing import ASGraph, figure1_graph


class TestConstruction:
    def test_negative_cost_rejected(self):
        with pytest.raises(GraphError, match="negative"):
            ASGraph({"a": -1.0}, [])

    @pytest.mark.parametrize("cost", [float("inf"), float("nan")])
    def test_non_finite_cost_rejected(self, cost):
        # Before the check, a faithful run on such a graph died inside
        # the DATA1 digest (OverflowError on inf, ValueError on nan).
        with pytest.raises(GraphError, match="not finite"):
            ASGraph({"a": 1.0, "b": cost}, [("a", "b")])

    def test_with_costs_rejects_non_finite_cost(self):
        graph = ASGraph({"a": 1.0, "b": 2.0}, [("a", "b")])
        with pytest.raises(GraphError, match="not finite"):
            graph.with_costs({"b": float("inf")})

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            ASGraph({"a": 1.0}, [("a", "a")])

    def test_edge_endpoint_needs_cost(self):
        with pytest.raises(GraphError, match="no cost entry"):
            ASGraph({"a": 1.0}, [("a", "b")])

    def test_duplicate_edges_collapse(self):
        graph = ASGraph({"a": 1, "b": 2}, [("a", "b"), ("b", "a")])
        assert len(graph.edges) == 1

    def test_accessors(self):
        graph = figure1_graph()
        assert graph.cost("C") == 1.0
        assert graph.degree("D") == 3
        assert graph.has_edge("X", "D")
        assert not graph.has_edge("X", "Z")
        assert "A" in graph
        assert len(graph) == 6
        with pytest.raises(GraphError):
            graph.cost("ghost")


class TestDerivedGraphs:
    def test_with_costs_overrides(self):
        graph = figure1_graph()
        lied = graph.with_costs({"C": 5.0})
        assert lied.cost("C") == 5.0
        assert graph.cost("C") == 1.0  # original untouched
        assert lied.edges == graph.edges

    def test_with_costs_unknown_node(self):
        with pytest.raises(GraphError, match="unknown node"):
            figure1_graph().with_costs({"ghost": 1.0})

    def test_without_node(self):
        graph = figure1_graph().without_node("C")
        assert "C" not in graph
        assert all("C" not in edge for edge in graph.edges)

    def test_without_unknown_node(self):
        with pytest.raises(GraphError):
            figure1_graph().without_node("ghost")


class TestBiconnectivity:
    def test_figure1_is_biconnected(self):
        assert figure1_graph().is_biconnected()

    def test_path_graph_is_not(self):
        graph = ASGraph(
            {"a": 1, "b": 1, "c": 1}, [("a", "b"), ("b", "c")]
        )
        assert not graph.is_biconnected()
        assert graph.articulation_points() == frozenset({"b"})

    def test_two_nodes_never_biconnected(self):
        graph = ASGraph({"a": 1, "b": 1}, [("a", "b")])
        assert not graph.is_biconnected()

    def test_triangle_is_biconnected(self):
        graph = ASGraph(
            {"a": 1, "b": 1, "c": 1}, [("a", "b"), ("b", "c"), ("c", "a")]
        )
        assert graph.is_biconnected()

    def test_disconnected_graph(self):
        graph = ASGraph({"a": 1, "b": 1, "c": 1, "d": 1}, [("a", "b"), ("c", "d")])
        assert not graph.is_connected()
        assert not graph.is_biconnected()

    def test_require_biconnected_raises(self):
        graph = ASGraph({"a": 1, "b": 1, "c": 1}, [("a", "b"), ("b", "c")])
        with pytest.raises(NotBiconnectedError, match="articulation"):
            graph.require_biconnected()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_articulation_points_match_networkx(self, seed):
        """Property: our Hopcroft-Tarjan agrees with networkx."""
        rng = random.Random(seed)
        n = rng.randint(3, 12)
        names = [f"v{i}" for i in range(n)]
        nxg = nx.Graph()
        nxg.add_nodes_from(names)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    nxg.add_edge(names[i], names[j])
        ours = ASGraph(
            {name: 1.0 for name in names}, list(nxg.edges)
        )
        expected = set(nx.articulation_points(nxg))
        assert set(ours.articulation_points()) == expected


class TestFigure1:
    def test_costs_match_paper(self):
        graph = figure1_graph()
        assert graph.costs == {
            "A": 5.0,
            "B": 1000.0,
            "C": 1.0,
            "D": 1.0,
            "X": 6.0,
            "Z": 100.0,
        }

    def test_node_order_deterministic(self):
        assert figure1_graph().nodes == ("A", "B", "C", "D", "X", "Z")
