"""Batched delivery is observably equivalent in the faithful protocol.

The checker architecture rests on exact replay: mirrors must predict
every broadcast a principal makes.  Batched delivery changes *when*
nodes recompute (once per arrival instant instead of once per
message), so these tests pin the property that actually matters: an
obedient network certifies with zero flags in both modes, and every
catalogued construction manipulation is detected in both modes — the
detection verdict never depends on the delivery mode.
"""

import pytest

from collections import Counter

from repro.faithful import (
    DEVIATION_CATALOGUE,
    FaithfulFPSSProtocol,
    construction_deviations,
    faithful_deviant_factory,
)
from repro.faithful.node import KIND_CHECKER_COPY
from repro.routing import figure1_graph
from repro.sim.simulator import Simulator
from repro.workloads import uniform_all_pairs


def run_protocol(graph, traffic, batch_delivery, node_factory=None):
    """One faithful run with the simulator's delivery mode forced."""
    protocol = FaithfulFPSSProtocol(graph, traffic, node_factory=node_factory)
    original_build = protocol._build

    def build():
        simulator, nodes, bank = original_build()
        simulator.batch_delivery = batch_delivery
        return simulator, nodes, bank

    protocol._build = build
    return protocol.run()


@pytest.fixture(scope="module")
def graph():
    return figure1_graph()


@pytest.fixture(scope="module")
def traffic(graph):
    return uniform_all_pairs(graph, volume=1.0)


class TestObedientParity:
    def test_obedient_network_clean_in_both_modes(self, graph, traffic):
        """No false flags: replay stays exact under batching."""
        for batch in (True, False):
            result = run_protocol(graph, traffic, batch_delivery=batch)
            assert result.progressed
            assert result.detection.restarts == 0
            assert not result.detection.detected_any
            assert not result.detection.all_flags

    def test_obedient_economics_identical_across_modes(self, graph, traffic):
        """The settled money flows do not depend on the delivery mode."""
        batched = run_protocol(graph, traffic, batch_delivery=True)
        unbatched = run_protocol(graph, traffic, batch_delivery=False)
        for node in batched.utilities:
            assert batched.utilities[node] == pytest.approx(
                unbatched.utilities[node]
            )
            assert batched.charged[node] == pytest.approx(
                unbatched.charged[node]
            )


class TestDeviantParity:
    @pytest.mark.parametrize(
        "deviation",
        [
            spec.name
            for spec in construction_deviations()
            # A consistent cost lie is a type misreport: VCG makes it
            # unprofitable rather than detectable, in either mode.
            if spec.name != "cost-lie"
        ],
    )
    def test_construction_deviation_detected_in_both_modes(
        self, graph, traffic, deviation
    ):
        """Every catalogued construction manipulation is caught whether
        deliveries are batched or not."""
        spec = DEVIATION_CATALOGUE[deviation]
        verdicts = {}
        for batch in (True, False):
            result = run_protocol(
                graph,
                traffic,
                batch_delivery=batch,
                node_factory=faithful_deviant_factory(spec, "C"),
            )
            verdicts[batch] = result.detection.detected_any
        assert verdicts[True] and verdicts[False]

    def test_cost_lie_parity(self, graph, traffic):
        """The undetectable (but unprofitable) cost lie behaves the
        same in both delivery modes: certified, never flagged."""
        spec = DEVIATION_CATALOGUE["cost-lie"]
        for batch in (True, False):
            result = run_protocol(
                graph,
                traffic,
                batch_delivery=batch,
                node_factory=faithful_deviant_factory(spec, "C"),
            )
            assert result.progressed
            assert not result.detection.detected_any

    @pytest.mark.parametrize("deviation", ["packet-drop", "misroute"])
    def test_execution_deviation_parity(self, graph, traffic, deviation):
        """Execution-phase frauds settle to the same verdict either way."""
        spec = DEVIATION_CATALOGUE[deviation]
        results = {
            batch: run_protocol(
                graph,
                traffic,
                batch_delivery=batch,
                node_factory=faithful_deviant_factory(spec, "C"),
            )
            for batch in (True, False)
        }
        assert (
            results[True].detection.detected_any
            == results[False].detection.detected_any
        )
        assert results[True].progressed == results[False].progressed


class TestUnbatchedCopySpoof:
    """Unbatched delivery is a batch of one: a principal's copies of one
    input travel in one checker-copy bundle, the spoofed one included."""

    def spoofer(self):
        """A copy-spoof factory for "C" recording its inputs and the
        size of every bundle it sends, per neighbour."""
        base = faithful_deviant_factory(DEVIATION_CATALOGUE["copy-spoof"], "C")
        record = {"inputs": 0, "bundles": []}

        def factory(node_id, cost, signing):
            node = base(node_id, cost, signing)
            if node_id != "C":
                return node
            outbound = node.outbound

            def watch(message):
                if message.kind == KIND_CHECKER_COPY:
                    record["bundles"].append(
                        (message.dst, len(message.payload["copies"]))
                    )
                return outbound(message)

            node.outbound = watch
            def counted(message, inner=node.after_update_input):
                record["inputs"] += 1
                inner(message)

            node.after_update_input = counted
            return node

        return factory, record

    def test_one_bundle_per_input_verdict_unchanged(self, graph, traffic):
        factory, record = self.spoofer()
        result = run_protocol(
            graph, traffic, batch_delivery=False, node_factory=factory
        )
        neighbors = graph.neighbors("C")
        per_neighbor = Counter(dst for dst, _ in record["bundles"])
        assert per_neighbor == {n: record["inputs"] for n in neighbors}
        # The forged copy rides with the honest copy it was made from.
        assert Counter(size for _, size in record["bundles"]) == {
            1: len(neighbors) * (record["inputs"] - 1),
            2: len(neighbors),
        }
        # Detection verdict, restarts and utility as before bundling.
        assert result.progressed
        assert result.detection.detected_any
        assert result.detection.restarts == 1
        assert result.utilities["C"] == -250.0


def test_simulator_default_is_batched(graph):
    """The incremental engine's batched delivery is the default mode."""
    from repro.routing.convergence import topology_from_graph

    assert Simulator(topology_from_graph(graph)).batch_delivery
