"""Tests for FPSS/VCG payments, including strategyproofness properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.routing import (
    all_pairs_payments,
    economics_under_traffic,
    figure1_graph,
    lowest_cost_path,
    route_payments,
    utility_of_misreport,
    vcg_transit_payment,
)
from repro.routing.engine import engine_for
from repro.workloads import random_biconnected_graph, random_pairs, uniform_all_pairs
from test_engine import _cut_vertex_graph, _tie_heavy_graph, pin_payment_seeds


class TestPaymentFormula:
    def test_payment_at_least_declared_cost(self, fig1):
        """p_k = c_k + (d_minus_k - d) >= c_k: transit is profitable."""
        for (s, d), rp in all_pairs_payments(fig1).items():
            for k, payment in rp.payments.items():
                assert payment >= fig1.cost(k) - 1e-9

    def test_off_path_node_gets_zero(self, fig1):
        # LCP(X, Z) = X-D-C-Z; A and B are off-path.
        assert vcg_transit_payment(fig1, "X", "Z", "A") == 0.0
        assert vcg_transit_payment(fig1, "X", "Z", "B") == 0.0

    def test_endpoint_is_not_transit(self, fig1):
        with pytest.raises(RoutingError, match="endpoint"):
            vcg_transit_payment(fig1, "X", "Z", "X")

    def test_figure1_c_payment_for_xz(self, fig1):
        """p_C^{XZ} = c_C + cost(X->Z avoiding C) - cost(X->Z)
        = 1 + 5 - 2 = 4."""
        assert vcg_transit_payment(fig1, "X", "Z", "C") == pytest.approx(4.0)

    def test_figure1_d_payment_for_xz(self, fig1):
        """p_D^{XZ} = 1 + cost(X->Z avoiding D) - 2.
        Avoiding D: X-A-Z with transit cost 5 -> p = 1 + 5 - 2 = 4."""
        assert vcg_transit_payment(fig1, "X", "Z", "D") == pytest.approx(4.0)

    def test_route_payments_totals(self, fig1):
        rp = route_payments(fig1, "X", "Z")
        assert set(rp.payments) == {"C", "D"}
        assert rp.total_payment == pytest.approx(8.0)
        assert rp.route.path == ("X", "D", "C", "Z")

    def test_all_pairs_requires_biconnected(self):
        from repro.errors import NotBiconnectedError
        from repro.routing import ASGraph

        chain = ASGraph({"a": 1, "b": 1, "c": 1}, [("a", "b"), ("b", "c")])
        with pytest.raises(NotBiconnectedError):
            all_pairs_payments(chain)


class TestEconomics:
    def test_transit_profit_non_negative_under_vcg(self, fig1):
        economics = economics_under_traffic(
            fig1, fig1, uniform_all_pairs(fig1), payment_rule="vcg"
        )
        for node, record in economics.items():
            assert record.received - record.true_transit_cost >= -1e-9

    def test_unknown_payment_rule(self, fig1):
        with pytest.raises(RoutingError, match="unknown payment rule"):
            economics_under_traffic(fig1, fig1, {}, payment_rule="flat")

    def test_negative_volume_rejected(self, fig1):
        with pytest.raises(RoutingError, match="negative traffic"):
            economics_under_traffic(fig1, fig1, {("X", "Z"): -1.0})

    def test_zero_volume_ignored(self, fig1):
        economics = economics_under_traffic(fig1, fig1, {("X", "Z"): 0.0})
        assert all(r.utility == 0.0 for r in economics.values())

    def test_utility_is_quasilinear(self, fig1):
        economics = economics_under_traffic(fig1, fig1, {("X", "Z"): 2.0})
        c = economics["C"]
        assert c.utility == pytest.approx(
            c.received - c.paid - c.true_transit_cost
        )

    def test_economics_totals_equal_route_payments(self, fig1):
        """Regression: economics_under_traffic must charge exactly the
        per-pair route_payments bundle (it once re-derived the base LCP
        per transit node via vcg_transit_payment)."""
        traffic = {
            pair: volume
            for pair, volume in uniform_all_pairs(fig1, volume=2.5).items()
        }
        economics = economics_under_traffic(fig1, fig1, traffic)
        expected_paid = {node: 0.0 for node in fig1.nodes}
        expected_received = {node: 0.0 for node in fig1.nodes}
        for (source, destination), volume in traffic.items():
            bundle = route_payments(fig1, source, destination)
            expected_paid[source] += volume * bundle.total_payment
            for transit, payment in bundle.payments.items():
                expected_received[transit] += volume * payment
        for node in fig1.nodes:
            assert economics[node].paid == pytest.approx(expected_paid[node])
            assert economics[node].received == pytest.approx(
                expected_received[node]
            )

    def test_economics_totals_equal_route_payments_random(self):
        """Same regression on a random biconnected graph."""
        rng = random.Random(99)
        graph = random_biconnected_graph(7, rng)
        traffic = uniform_all_pairs(graph)
        economics = economics_under_traffic(graph, graph, traffic)
        for node in graph.nodes:
            expected_received = sum(
                volume * route_payments(graph, s, d).payments.get(node, 0.0)
                for (s, d), volume in traffic.items()
                if node not in (s, d)
            )
            assert economics[node].received == pytest.approx(expected_received)


class TestExample1:
    """Example 1: C's lie helps under naive pricing, never under VCG."""

    def setup_method(self):
        self.graph = figure1_graph()
        # All-pairs traffic so C both carries X-Z and D-Z flows.
        self.traffic = uniform_all_pairs(self.graph)

    def test_lie_profits_under_naive_pricing(self):
        truthful, lied = utility_of_misreport(
            self.graph, "C", 5.0, self.traffic, payment_rule="declared-cost"
        )
        assert lied > truthful

    def test_lie_never_profits_under_vcg(self):
        for declared in (0.0, 0.5, 2.0, 5.0, 50.0):
            truthful, lied = utility_of_misreport(
                self.graph, "C", declared, self.traffic, payment_rule="vcg"
            )
            assert lied <= truthful + 1e-9


class TestStrategyproofnessProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.0, max_value=8.0),
    )
    def test_vcg_misreport_never_profits(self, seed, declared):
        """Property (Def 5 / FPSS Theorem): on random biconnected
        graphs, no unilateral transit-cost misreport raises utility
        under VCG payments."""
        rng = random.Random(seed)
        graph = random_biconnected_graph(rng.randint(4, 8), rng)
        node = rng.choice(list(graph.nodes))
        traffic = uniform_all_pairs(graph)
        truthful, lied = utility_of_misreport(
            graph, node, declared, traffic, payment_rule="vcg"
        )
        assert lied <= truthful + 1e-7

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_naive_pricing_is_manipulable_somewhere(self, seed):
        """Property: overstatement under declared-cost pricing weakly
        dominates while the node keeps its traffic — and the premium
        is strictly profitable whenever the node carries any transit
        traffic that survives the overstatement."""
        rng = random.Random(seed)
        graph = random_biconnected_graph(rng.randint(4, 7), rng)
        traffic = uniform_all_pairs(graph)
        found_strict = False
        for node in graph.nodes:
            truthful, lied = utility_of_misreport(
                graph, node, graph.cost(node) * 1.05, traffic,
                payment_rule="declared-cost",
            )
            if lied > truthful + 1e-9:
                found_strict = True
        # A 5% premium keeps most LCPs unchanged, so on nearly every
        # random instance someone profits; tolerate the rare graph
        # where every overstatement loses its traffic.
        if not found_strict:
            for node in graph.nodes:
                truthful, lied = utility_of_misreport(
                    graph, node, graph.cost(node) * 1.05, traffic,
                    payment_rule="declared-cost",
                )
                assert lied <= truthful + 1e-9


def _expected_bundle(graph, source, destination):
    """The VCG payments of one pair from whole LCP / LCP_{-k} trees."""
    route = lowest_cost_path(graph, source, destination)
    payments = {
        transit: graph.cost(transit)
        + lowest_cost_path(graph, source, destination, avoiding=transit).cost
        - route.cost
        for transit in route.transit_nodes
    }
    return route, payments


def _expected_economics(graph, traffic):
    """``economics_under_traffic``'s sums, re-added in its flow order."""
    received = {node: 0.0 for node in graph.nodes}
    paid = {node: 0.0 for node in graph.nodes}
    for (source, destination), volume in sorted(traffic.items(), key=repr):
        if volume == 0:
            continue
        _, payments = _expected_bundle(graph, source, destination)
        for transit, payment in payments.items():
            paid[source] += volume * payment
            received[transit] += volume * payment
    return received, paid


class TestOnePaymentPath:
    """Every public payment API prices a pair the same way, bit for bit."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    @pin_payment_seeds
    def test_payment_apis_agree_exactly(self, seed):
        graph = _tie_heavy_graph(seed)
        everything = all_pairs_payments(graph)
        for (source, destination), bundle in everything.items():
            # Priced before the reference builds this pair's LCP_{-k}
            # trees, so the APIs cannot lean on them.
            single = route_payments(graph, source, destination)
            per_transit = {
                transit: vcg_transit_payment(graph, source, destination, transit)
                for transit in graph.nodes
                if transit not in (source, destination)
            }
            route, payments = _expected_bundle(graph, source, destination)
            assert bundle.route == single.route == route
            assert bundle.payments == single.payments == payments
            assert per_transit == {
                transit: payments.get(transit, 0.0) for transit in per_transit
            }

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    @pin_payment_seeds
    def test_economics_sums_payments_exactly(self, seed):
        graph = _tie_heavy_graph(seed)
        rng = random.Random(seed ^ 0xC0FFEE)
        for traffic in (
            uniform_all_pairs(graph, volume=1.5),
            random_pairs(graph, rng, rng.randint(1, 2 * len(graph.nodes))),
        ):
            economics = economics_under_traffic(graph, graph, traffic)
            received, paid = _expected_economics(graph, traffic)
            for node in graph.nodes:
                assert economics[node].received == received[node]
                assert economics[node].paid == paid[node]

    def test_cut_vertex_prices_requested_pairs_only(self):
        graph = _cut_vertex_graph()
        square = [
            (s, d) for s in "abcd" for d in "abcd" if s != d
        ]
        economics = economics_under_traffic(
            graph, graph, {pair: 1.0 for pair in square}
        )
        assert economics["b"].received == route_payments(
            graph, "a", "c"
        ).payments["b"] + route_payments(graph, "c", "a").payments["b"]
        assert route_payments(graph, "a", "c").payments == {"b": 2.0}
        assert vcg_transit_payment(graph, "a", "c", "b") == 2.0

    def test_cut_vertex_detour_raises(self):
        graph = _cut_vertex_graph()
        with pytest.raises(RoutingError, match="avoiding 'c'"):
            route_payments(graph, "a", "e")
        with pytest.raises(RoutingError, match="avoiding 'c'"):
            economics_under_traffic(graph, graph, {("a", "c"): 1.0, ("a", "e"): 1.0})
        with pytest.raises(RoutingError, match="avoiding 'c'"):
            vcg_transit_payment(graph, "a", "e", "b")


class TestPerPairSweepMemo:
    """Per-pair payment queries share the source's repair sweep."""

    def test_source_major_loop_sweeps_once_per_source(self):
        graph = random_biconnected_graph(32, random.Random(7))
        engine = engine_for(graph)
        per_pair = {}
        for source in graph.nodes:
            for destination in graph.nodes:
                if destination == source:
                    continue
                bundle = route_payments(graph, source, destination)
                per_pair[(source, destination)] = bundle
                for transit in bundle.payments:
                    assert vcg_transit_payment(
                        graph, source, destination, transit
                    ) == bundle.payments[transit]
        nodes = len(graph.nodes)
        assert engine.sweeps == nodes
        # One base tree per source; the memo adds no Dijkstra run.
        assert engine.runs == nodes
        # A fresh graph (so a fresh engine) prices every pair at once.
        reference = all_pairs_payments(
            random_biconnected_graph(32, random.Random(7))
        )
        assert per_pair == reference

    def test_clear_cache_drops_the_memo(self):
        graph = random_biconnected_graph(8, random.Random(1))
        engine = engine_for(graph)
        source, destination = graph.nodes[0], graph.nodes[4]
        first = route_payments(graph, source, destination)
        route_payments(graph, source, destination)
        assert (engine.sweeps, engine.runs) == (1, 1)
        engine.clear_cache()
        assert route_payments(graph, source, destination) == first
        assert (engine.sweeps, engine.runs) == (2, 2)
