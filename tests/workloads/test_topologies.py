"""Tests for topology generators."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.workloads import (
    complete_graph,
    draw_costs,
    node_names,
    random_biconnected_graph,
    ring_graph,
    wheel_graph,
)


class TestNodeNames:
    def test_deterministic_width(self):
        assert node_names(3) == ["n00", "n01", "n02"]
        assert node_names(101)[100] == "n100"

    def test_prefix(self):
        assert node_names(1, prefix="as")[0] == "as00"

    def test_negative_rejected(self):
        with pytest.raises(GraphError):
            node_names(-1)


class TestNamedFamilies:
    def test_ring_structure(self):
        graph = ring_graph(5, random.Random(0))
        assert len(graph) == 5
        assert all(graph.degree(n) == 2 for n in graph.nodes)
        assert graph.is_biconnected()

    def test_ring_minimum_size(self):
        with pytest.raises(GraphError):
            ring_graph(2)

    def test_wheel_structure(self):
        graph = wheel_graph(6, random.Random(0))
        hub = "n00"
        assert graph.degree(hub) == 5
        assert all(graph.degree(n) == 3 for n in graph.nodes if n != hub)
        assert graph.is_biconnected()

    def test_wheel_minimum_size(self):
        with pytest.raises(GraphError):
            wheel_graph(3)

    def test_complete_structure(self):
        graph = complete_graph(4, random.Random(0))
        assert len(graph.edges) == 6
        assert graph.is_biconnected()

    def test_costs_within_range(self):
        graph = ring_graph(4, random.Random(1), cost_range=(2.0, 3.0))
        assert all(2.0 <= c <= 3.0 for c in graph.costs.values())

    def test_invalid_cost_range(self):
        with pytest.raises(GraphError):
            ring_graph(4, random.Random(0), cost_range=(3.0, 2.0))


class TestRandomBiconnected:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=3, max_value=14),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_always_biconnected(self, seed, size, prob):
        graph = random_biconnected_graph(
            size, random.Random(seed), extra_edge_prob=prob
        )
        assert graph.is_biconnected()
        assert len(graph) == size

    def test_reproducible_from_seed(self):
        one = random_biconnected_graph(8, random.Random(42))
        two = random_biconnected_graph(8, random.Random(42))
        assert one.edges == two.edges
        assert one.costs == two.costs

    # Digests of (edges, sorted costs, the rng's next draw), recorded
    # with the frozenset-based generator: a faster chord loop must
    # give the same graphs and consume the same rng.random() draws.
    @pytest.mark.parametrize(
        "count, seed, prob, digest",
        [
            (3, 0, 0.25, "b1507d69c16028c5c78fe3d97f07309a"),
            (5, 1, 0.0, "93b85b613edc1cd1fb1c353ebb5ccf69"),
            (10, 2, 0.5, "daa09406e3cb2c05019b2b4806af9253"),
            (17, 3, 1.0, "ffa8d65081e83685941b60ef6b74bd95"),
            (64, 5, 4.0 / 63, "7ecc40140b846afb1b78c61358d65dbc"),
            (256, 1, 4.0 / 255, "8baedc298d63a3eca0077fb56293c1c7"),
        ],
    )
    def test_golden_graphs(self, count, seed, prob, digest):
        rng = random.Random(seed)
        graph = random_biconnected_graph(count, rng, extra_edge_prob=prob)
        payload = repr((graph.edges, sorted(graph.costs.items()), rng.random()))
        assert hashlib.sha256(payload.encode()).hexdigest()[:32] == digest

    def test_probability_bounds_enforced(self):
        with pytest.raises(GraphError):
            random_biconnected_graph(5, random.Random(0), extra_edge_prob=1.5)

    def test_minimum_size(self):
        with pytest.raises(GraphError):
            random_biconnected_graph(2, random.Random(0))


class TestCostDistributions:
    def test_uniform_default_unchanged(self):
        # The knob must not perturb the seed repository's default draw.
        baseline = random_biconnected_graph(8, random.Random(11))
        explicit = random_biconnected_graph(
            8, random.Random(11), cost_dist="uniform"
        )
        assert baseline.costs == explicit.costs
        assert baseline.edges == explicit.edges

    def test_pareto_costs_anchor_at_low(self):
        graph = random_biconnected_graph(
            10,
            random.Random(3),
            cost_range=(2.0, 10.0),
            cost_dist="pareto",
            cost_param=1.5,
        )
        assert all(c >= 2.0 for c in graph.costs.values())
        assert graph.is_biconnected()

    def test_lognormal_costs_positive(self):
        graph = random_biconnected_graph(
            10,
            random.Random(3),
            cost_range=(1.0, 10.0),
            cost_dist="lognormal",
            cost_param=1.0,
        )
        assert all(c > 0 for c in graph.costs.values())

    def test_heavy_tail_is_heavier(self):
        names = node_names(200)
        uniform = draw_costs(names, random.Random(0), (1.0, 10.0))
        pareto = draw_costs(
            names,
            random.Random(0),
            (1.0, 10.0),
            cost_dist="pareto",
            cost_param=1.05,
        )
        assert max(pareto.values()) > max(uniform.values())

    def test_deterministic_per_seed(self):
        kwargs = dict(cost_dist="lognormal", cost_param=0.8)
        one = random_biconnected_graph(7, random.Random(5), **kwargs)
        two = random_biconnected_graph(7, random.Random(5), **kwargs)
        assert one.costs == two.costs

    def test_unknown_dist_rejected(self):
        with pytest.raises(GraphError):
            random_biconnected_graph(5, random.Random(0), cost_dist="cauchy")

    def test_bad_param_rejected(self):
        with pytest.raises(GraphError):
            random_biconnected_graph(
                5, random.Random(0), cost_dist="pareto", cost_param=0.0
            )

    def test_heavy_tail_needs_positive_anchor(self):
        with pytest.raises(GraphError):
            draw_costs(
                node_names(4),
                random.Random(0),
                (0.0, 5.0),
                cost_dist="pareto",
            )
