"""End-to-end scenarios crossing every library layer."""

import random

import pytest

from repro.faithful import (
    DEVIATION_CATALOGUE,
    FaithfulFPSSProtocol,
    PlainFPSSProtocol,
    FlagKind,
    faithful_deviant_factory,
)
from repro.routing import figure1_graph, lowest_cost_path
from repro.workloads import (
    hotspot,
    random_pairs,
    uniform_all_pairs,
    wheel_graph,
)


class TestTrafficShapes:
    """The protocol handles non-uniform workloads."""

    def test_hotspot_traffic(self, fig1):
        result = FaithfulFPSSProtocol(fig1, hotspot(fig1, "Z", 2.0)).run()
        assert result.progressed
        assert not result.detection.detected_any
        # Only flows toward Z exist: Z pays nothing, earns nothing as
        # a destination.
        assert result.charged["Z"] == 0.0

    def test_random_pairs_traffic(self, fig1, rng):
        traffic = random_pairs(fig1, rng, flow_count=8)
        result = FaithfulFPSSProtocol(fig1, traffic).run()
        assert result.progressed
        assert sum(result.charged.values()) == pytest.approx(
            sum(result.received.values())
        )

    def test_empty_traffic(self, fig1):
        result = FaithfulFPSSProtocol(fig1, {}).run()
        assert result.progressed
        assert all(u == 0.0 for u in result.utilities.values())


class TestMultiplePhaseRestarts:
    def test_restart_budget_exhaustion_counts(self, fig1, fig1_traffic):
        spec = DEVIATION_CATALOGUE["false-route-announce"]
        protocol = FaithfulFPSSProtocol(
            fig1,
            fig1_traffic,
            node_factory=faithful_deviant_factory(spec, "C"),
            max_restarts=3,
        )
        result = protocol.run()
        assert not result.progressed
        # Initial attempt + 3 restarts, all detected at BANK1.
        assert result.detection.restarts == 4

    def test_zero_restart_budget(self, fig1, fig1_traffic):
        spec = DEVIATION_CATALOGUE["pricing-digest-lie"]
        protocol = FaithfulFPSSProtocol(
            fig1,
            fig1_traffic,
            node_factory=faithful_deviant_factory(spec, "D"),
            max_restarts=0,
        )
        result = protocol.run()
        assert not result.progressed
        assert result.detection.restarts == 1


class TestFlagForensics:
    """The right flag kinds surface for the right manipulations."""

    def run_with(self, name, target="C"):
        graph = figure1_graph()
        spec = DEVIATION_CATALOGUE[name]
        return FaithfulFPSSProtocol(
            graph,
            uniform_all_pairs(graph),
            node_factory=faithful_deviant_factory(spec, target),
        ).run()

    def test_false_announce_yields_broadcast_mismatch(self):
        result = self.run_with("false-route-announce")
        kinds = {f.kind for f in result.detection.all_flags}
        assert FlagKind.BROADCAST_MISMATCH in kinds

    def test_suppression_yields_suppressed_update(self):
        result = self.run_with("route-suppress")
        kinds = {f.kind for f in result.detection.all_flags}
        assert FlagKind.SUPPRESSED_UPDATE in kinds

    def test_copy_drop_yields_copy_missing(self):
        result = self.run_with("copy-drop")
        kinds = {f.kind for f in result.detection.all_flags}
        assert FlagKind.COPY_MISSING in kinds

    def test_copy_alter_yields_forgery(self):
        result = self.run_with("copy-alter")
        kinds = {f.kind for f in result.detection.all_flags}
        assert FlagKind.COPY_FORGERY in kinds

    def test_underreport_yields_payment_flag(self):
        result = self.run_with("payment-underreport")
        kinds = {f.kind for f in result.detection.all_flags}
        assert FlagKind.PAYMENT_UNDERREPORT in kinds

    def test_packet_drop_yields_drop_flag(self):
        result = self.run_with("packet-drop")
        kinds = {f.kind for f in result.detection.all_flags}
        assert FlagKind.PACKET_DROP in kinds

    def test_misroute_yields_misroute_flag(self):
        result = self.run_with("misroute", target="X")
        kinds = {f.kind for f in result.detection.all_flags}
        assert FlagKind.MISROUTE in kinds


class TestLargerTopology:
    def test_wheel_with_deviant_rim_node(self):
        """A rim node shades its announced path costs and is caught.

        (The hub would be a no-op deviant here: all its routes are
        zero-cost direct edges, so cost shading changes nothing — an
        unfired deviation is correctly left unflagged.)
        """
        graph = wheel_graph(6, random.Random(4))
        traffic = uniform_all_pairs(graph)
        spec = DEVIATION_CATALOGUE["false-route-announce"]
        result = FaithfulFPSSProtocol(
            graph,
            traffic,
            node_factory=faithful_deviant_factory(spec, "n01"),
        ).run()
        assert result.detection.detected_any

    def test_wheel_hub_shading_is_a_noop(self):
        """Hub routes are all direct (cost 0): shading never fires,
        nothing is flagged, and the run certifies normally."""
        graph = wheel_graph(6, random.Random(4))
        traffic = uniform_all_pairs(graph)
        spec = DEVIATION_CATALOGUE["false-route-announce"]
        result = FaithfulFPSSProtocol(
            graph,
            traffic,
            node_factory=faithful_deviant_factory(spec, "n00"),
        ).run()
        assert result.progressed
        assert not result.detection.detected_any

    def test_wheel_baseline_routes_match_oracle_costs(self):
        graph = wheel_graph(6, random.Random(4))
        traffic = uniform_all_pairs(graph)
        result = FaithfulFPSSProtocol(graph, traffic).run()
        plain = PlainFPSSProtocol(graph, traffic).run()
        assert result.progressed
        for node in graph.nodes:
            assert result.utilities[node] == pytest.approx(
                plain.utilities[node]
            )


class TestPacketPathIntegrity:
    def test_flows_traverse_the_lcp(self, fig1):
        """X->Z packets visit exactly X-D-C-Z."""
        protocol = FaithfulFPSSProtocol(fig1, {("X", "Z"): 1.0})
        result = protocol.run()
        assert result.progressed
        oracle = lowest_cost_path(fig1, "X", "Z")
        # D and C each incurred exactly their cost once.
        assert result.incurred["D"] == pytest.approx(fig1.cost("D"))
        assert result.incurred["C"] == pytest.approx(fig1.cost("C"))
        assert result.incurred["A"] == 0.0
        assert oracle.path == ("X", "D", "C", "Z")
