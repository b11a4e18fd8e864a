"""Rules every network driver shares.

Two rules of the network layer (:mod:`repro.routing.convergence`) that
each driver used to write for itself:

* one link-delay rule — a delay mapping gives each link it names its
  delay, and every other link, initial or brought up later, the unit
  delay; the result is always a ``float``;
* one flow-origination rule — a flow originates only with a positive
  volume between two distinct nodes, so a self-flow in a traffic
  matrix is skipped rather than routed.
"""

import random

import pytest

from repro.faithful import FaithfulFPSSProtocol, PlainFPSSProtocol
from repro.faithful.epochs import run_checked_churn
from repro.routing import figure1_graph, run_dynamic_fpss
from repro.routing.convergence import link_delay
from repro.sim.churn import ChurnEvent, ChurnSchedule
from repro.workloads import random_biconnected_graph


class TestLinkDelayRule:
    def test_every_form_resolves_to_a_float(self):
        named = {frozenset(("a", "b")): 3}
        assert link_delay(named, "b", "a") == 3.0
        assert link_delay(named, "a", "c") == 1.0
        assert link_delay(lambda a, b: 2, "a", "b") == 2.0
        assert link_delay(4, "a", "b") == 4.0
        for delays in (named, lambda a, b: 2, 4):
            assert type(link_delay(delays, "a", "b")) is float

    @pytest.mark.parametrize("driver", ["dynamic", "checked-churn"])
    def test_unnamed_links_get_the_unit_delay(self, driver):
        """A mapping that omits an initial link, and a link brought up
        later: both run at delay 1.0, in both churn drivers."""
        graph = figure1_graph()
        omitted = graph.edges[0]
        delays = {frozenset(edge): 2.0 for edge in graph.edges[1:]}
        schedule = ChurnSchedule.single(
            ChurnEvent(kind="link-up", link=("A", "C"))
        )
        if driver == "dynamic":
            run = run_dynamic_fpss(graph, schedule, link_delays=delays)
        else:
            run = run_checked_churn(graph, schedule, link_delays=delays)
        topology = run.simulator.topology
        assert topology.link(*omitted).delay == 1.0
        assert topology.link("A", "C").delay == 1.0
        for edge in graph.edges[1:]:
            assert topology.link(*edge).delay == 2.0


class TestFlowOriginationRule:
    @pytest.mark.parametrize("protocol", [FaithfulFPSSProtocol, PlainFPSSProtocol])
    def test_self_flows_originate_nothing(self, protocol):
        graph = random_biconnected_graph(8, random.Random(1))
        a, b = sorted(graph.nodes, key=repr)[:2]
        with_self = protocol(graph, {(a, a): 1.0, (a, b): 1.0}).run()
        without = protocol(graph, {(a, b): 1.0}).run()
        assert with_self.progressed
        assert with_self.utilities == without.utilities
        assert with_self.metrics == without.metrics
