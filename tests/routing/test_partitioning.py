"""FPSS's built-in problem partitioning (Section 4.3, footnote 8).

"The price-update rules are specified in a way that prevents a node
from increasing its incoming payment through changing the pricing
messages ... each of these nodes ignores (by the pricing update rules)
the node that caused the update."

In the avoidance-cost relaxation this appears as the exclusion
``neighbor != avoided``: node k's announcements never enter any
avoidance entry d^{-k}, so k cannot inflate its own payment
p_k = c_k + d^{-k} - d by lying in *pricing* messages.  (Routing
announcements are a different story — that is manipulation 2, which
only the checker machinery stops.)
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faithful import (
    DEVIATION_CATALOGUE,
    PlainFPSSProtocol,
    plain_deviant_factory,
)
from repro.routing import ReplayKernel, RouteEntry
from repro.routing.fpss import encode_avoid_delta, encode_route_delta
from repro.workloads import random_biconnected_graph, uniform_all_pairs


class TestRelaxationExclusion:
    @staticmethod
    def build():
        """Node i with neighbours k, m; both announce routes to z.

        m's route runs through k, so on the sparse wire m's candidate
        for the key ``(z, k)`` is its avoidance row, and k is interior
        to i's own route ``(i, k, z)``, so i holds that key.
        """
        comp = ReplayKernel("i", ["k", "m"], 1.0)
        for node, cost in (("i", 1.0), ("k", 1.0), ("m", 1.0), ("z", 1.0)):
            comp.note_cost_declaration(node, cost)
        comp.apply_route_delta(
            "k", encode_route_delta({"z": RouteEntry(0.0, ("k", "z"))}, {})
        )
        comp.apply_route_delta(
            "m", encode_route_delta({"z": RouteEntry(1.0, ("m", "k", "z"))}, {})
        )
        comp.recompute_routes()
        return comp

    def test_avoided_neighbor_never_supplies(self):
        """d^{-k} candidates exclude neighbour k entirely."""
        comp = self.build()
        # k claims an absurdly cheap path to z avoiding k (nonsense a
        # manipulator might announce); m offers an honest one.
        comp.apply_avoid_delta(
            "k",
            encode_avoid_delta({("z", "k"): RouteEntry(0.0, ("k", "z"))}, {}),
        )
        comp.apply_avoid_delta(
            "m",
            encode_avoid_delta(
                {("z", "k"): RouteEntry(7.0, ("m", "q", "z"))}, {}
            ),
        )
        comp.recompute_avoidance()
        entry = comp.avoid[("z", "k")]
        # Only m's path (cost 7 + c_m) is eligible; k's claim ignored.
        assert entry.path[1] == "m"
        assert entry.cost == pytest.approx(7.0 + 1.0)

    def test_supplier_tag_excludes_avoided(self):
        comp = self.build()
        comp.apply_avoid_delta(
            "m",
            encode_avoid_delta({("z", "k"): RouteEntry(3.0, ("m", "z"))}, {}),
        )
        comp.recompute_avoidance()
        comp.derive_pricing()
        tag = comp.pricing.entry("z", "k").tag
        assert tag == frozenset({"m"})


class TestFootnote8EndToEnd:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_price_announcements_cannot_raise_own_income(self, seed):
        """Property: in *plain* (unchecked!) FPSS, a node running the
        false-price-announce manipulation never increases its own
        received payments — FPSS's partitioning already neutralises
        this channel, with no checkers needed."""
        rng = random.Random(seed)
        graph = random_biconnected_graph(rng.randint(4, 6), rng)
        traffic = uniform_all_pairs(graph)
        deviator = rng.choice(list(graph.nodes))

        baseline = PlainFPSSProtocol(graph, traffic).run()
        spec = DEVIATION_CATALOGUE["false-price-announce"]
        deviant = PlainFPSSProtocol(
            graph,
            traffic,
            node_factory=plain_deviant_factory(spec, deviator),
        ).run()
        assert (
            deviant.received[deviator]
            <= baseline.received[deviator] + 1e-9
        )

    def test_route_announcements_are_the_open_channel(self, fig1, fig1_traffic):
        """Contrast: *routing* announcements do inflate income in plain
        FPSS (manipulation 2), which is why the checkers exist."""
        baseline = PlainFPSSProtocol(fig1, fig1_traffic).run()
        spec = DEVIATION_CATALOGUE["false-route-announce"]
        deviant = PlainFPSSProtocol(
            fig1,
            fig1_traffic,
            node_factory=plain_deviant_factory(spec, "C"),
        ).run()
        assert deviant.received["C"] > baseline.received["C"]
