"""Soundness of the faithful protocol on all-obedient networks.

The detector must never flag a faithful run (no false positives), the
construction outcome must equal the plain protocol's and the oracle's,
and the economics must balance.
"""

import random

import pytest

from repro.faithful import (
    DEVIATION_CATALOGUE,
    FaithfulFPSSProtocol,
    PlainFPSSProtocol,
    faithful_deviant_factory,
)
from repro.routing import (
    figure1_graph,
    route_payments,
)
from repro.workloads import (
    random_biconnected_graph,
    ring_graph,
    uniform_all_pairs,
    wheel_graph,
)


class TestFaithfulBaselineFigure1:
    @pytest.fixture(autouse=True)
    def _run(self, fig1, fig1_traffic):
        self.graph = fig1
        self.traffic = fig1_traffic
        self.result = FaithfulFPSSProtocol(fig1, fig1_traffic).run()

    def test_progresses_without_restarts(self):
        assert self.result.progressed
        assert self.result.detection.restarts == 0

    def test_no_flags_raised(self):
        assert self.result.detection.all_flags == []
        assert not self.result.detection.detected_any

    def test_no_penalties(self):
        assert all(p == 0.0 for p in self.result.penalties.values())

    def test_charges_match_vcg_oracle(self):
        """Each source is charged exactly the oracle's VCG payments."""
        for source in self.graph.nodes:
            expected = 0.0
            for destination in self.graph.nodes:
                if destination == source:
                    continue
                expected += route_payments(
                    self.graph, source, destination
                ).total_payment
            assert self.result.charged[source] == pytest.approx(expected)

    def test_money_conservation(self):
        """Every unit charged is received by some transit node."""
        assert sum(self.result.charged.values()) == pytest.approx(
            sum(self.result.received.values())
        )

    def test_transit_profit_non_negative(self):
        """VCG payments cover true transit costs for obedient nodes."""
        for node in self.graph.nodes:
            margin = self.result.received[node] - self.result.incurred[node]
            assert margin >= -1e-9

    def test_utilities_match_components(self):
        for node in self.graph.nodes:
            assert self.result.utilities[node] == pytest.approx(
                self.result.received[node]
                - self.result.charged[node]
                - self.result.penalties[node]
                - self.result.incurred[node]
            )


class TestFaithfulEqualsPlainWhenObedient:
    @pytest.mark.parametrize("size", [4, 5])
    def test_same_utilities_on_rings(self, size):
        graph = ring_graph(size, random.Random(size))
        traffic = uniform_all_pairs(graph)
        faithful = FaithfulFPSSProtocol(graph, traffic).run()
        plain = PlainFPSSProtocol(graph, traffic).run()
        for node in graph.nodes:
            assert faithful.utilities[node] == pytest.approx(
                plain.utilities[node]
            )

    def test_same_utilities_on_wheel(self):
        graph = wheel_graph(5, random.Random(2))
        traffic = uniform_all_pairs(graph)
        faithful = FaithfulFPSSProtocol(graph, traffic).run()
        plain = PlainFPSSProtocol(graph, traffic).run()
        for node in graph.nodes:
            assert faithful.utilities[node] == pytest.approx(
                plain.utilities[node]
            )


class TestOverheadAccounting:
    def test_checker_work_counted(self, fig1, fig1_traffic):
        # One replay per checker, the paper's deployment: nothing is
        # shared, so every checker relaxation runs and is counted.
        faithful = FaithfulFPSSProtocol(
            fig1, fig1_traffic, shared_checking=False
        ).run()
        plain = PlainFPSSProtocol(fig1, fig1_traffic).run()
        assert faithful.metrics["total_checker_computations"] > 0
        assert plain.metrics["total_checker_computations"] == 0
        # Redundancy and copies make the faithful run strictly dearer.
        assert (
            faithful.metrics["total_messages"]
            > plain.metrics["total_messages"]
        )

    def test_shared_checker_work_runs_only_off_a_led_log(
        self, fig1, fig1_traffic
    ):
        """With shared checking an obedient principal leads its
        checkers' log, so an honest run executes no checker relaxation;
        a deviant principal writes a log of its own and its checkers'
        pooled log is advanced by a checker again."""
        honest = FaithfulFPSSProtocol(fig1, fig1_traffic).run()
        assert honest.metrics["total_checker_computations"] == 0
        deviant = FaithfulFPSSProtocol(
            fig1,
            fig1_traffic,
            node_factory=faithful_deviant_factory(
                DEVIATION_CATALOGUE["false-route-announce"], "C"
            ),
        ).run()
        assert deviant.detection.detected_any
        assert deviant.metrics["total_checker_computations"] > 0

    def test_random_graph_baseline_clean(self):
        rng = random.Random(77)
        graph = random_biconnected_graph(5, rng)
        result = FaithfulFPSSProtocol(graph, uniform_all_pairs(graph)).run()
        assert result.progressed
        assert not result.detection.detected_any


class TestPreconditions:
    def test_non_biconnected_graph_rejected(self):
        from repro.errors import NotBiconnectedError
        from repro.routing import ASGraph

        chain = ASGraph({"a": 1, "b": 1, "c": 1}, [("a", "b"), ("b", "c")])
        with pytest.raises(NotBiconnectedError):
            FaithfulFPSSProtocol(chain, {})
        with pytest.raises(NotBiconnectedError):
            PlainFPSSProtocol(chain, {})

    def test_zero_volume_flows_skipped(self, fig1):
        result = FaithfulFPSSProtocol(fig1, {("X", "Z"): 0.0}).run()
        assert result.progressed
        assert all(c == 0.0 for c in result.charged.values())
