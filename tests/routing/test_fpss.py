"""Tests for the distributed FPSS protocol against the oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.routing import (
    FPSSComputation,
    FPSSNode,
    decode_avoid_vector,
    decode_route_vector,
    encode_avoid_vector,
    encode_route_vector,
    RouteEntry,
    figure1_graph,
    lowest_cost_path,
    run_plain_fpss,
    vcg_transit_payment,
    verify_against_oracle,
)
from repro.routing.fpss import encode_route_delta
from repro.workloads import (
    complete_graph,
    random_biconnected_graph,
    ring_graph,
    wheel_graph,
)


class TestEncodings:
    def test_route_vector_roundtrip(self):
        vector = {
            "z": RouteEntry(2.0, ("a", "b", "z")),
            "y": RouteEntry(0.0, ("a", "y")),
        }
        assert decode_route_vector(encode_route_vector(vector)) == vector

    def test_avoid_vector_roundtrip(self):
        vector = {
            ("z", "k"): RouteEntry(3.0, ("a", "m", "z")),
        }
        assert decode_avoid_vector(encode_avoid_vector(vector)) == vector

    def test_encoding_is_sorted(self):
        vector = {
            "z": RouteEntry(1.0, ("a", "z")),
            "b": RouteEntry(1.0, ("a", "b")),
        }
        encoded = encode_route_vector(vector)
        assert [row[0] for row in encoded] == ["b", "z"]


class TestComputationUnit:
    def test_rejects_update_from_non_neighbor(self):
        comp = FPSSComputation("a", ["b"], 1.0)
        with pytest.raises(ProtocolError, match="non-neighbour"):
            comp.apply_route_delta("z", ())
        with pytest.raises(ProtocolError, match="non-neighbour"):
            comp.apply_avoid_delta("z", ())

    def test_direct_neighbor_route(self):
        comp = FPSSComputation("a", ["b"], 1.0)
        comp.note_cost_declaration("b", 2.0)
        assert comp.recompute_routes()
        entry = comp.routing.entry("b")
        assert entry.cost == 0.0
        assert entry.path == ("a", "b")

    def test_loop_paths_rejected(self):
        comp = FPSSComputation("a", ["b"], 1.0)
        comp.note_cost_declaration("b", 2.0)
        comp.apply_route_delta(
            "b", encode_route_delta({"z": RouteEntry(1.0, ("b", "a", "z"))}, {})
        )
        comp.recompute_routes()
        assert comp.routing.entry("z") is None

    def test_reset_phase2_clears_tables(self):
        comp = FPSSComputation("a", ["b"], 1.0)
        comp.note_cost_declaration("b", 2.0)
        comp.recompute_routes()
        comp.reset_phase2()
        assert comp.routing.destinations == ()
        assert comp.avoid == {}


class TestFigure1Convergence:
    def test_routing_and_pricing_match_oracle(self, fig1):
        simulator, nodes, stats = run_plain_fpss(fig1)
        verify_against_oracle(fig1, nodes)
        assert stats.phase1_events > 0
        assert stats.phase2_events > 0

    def test_all_nodes_share_data1(self, fig1):
        _, nodes, _ = run_plain_fpss(fig1)
        digests = {n.comp.cost_digest() for n in nodes.values()}
        assert len(digests) == 1

    def test_pricing_tags_populated(self, fig1):
        _, nodes, _ = run_plain_fpss(fig1)
        x = nodes["X"]
        cell = x.pricing_table().entry("Z", "C")
        assert cell is not None
        assert cell.tag  # non-empty supplier set

    def test_x_pays_c_and_d_four_each(self, fig1):
        """The DATA3 entries match the centralized VCG formula."""
        _, nodes, _ = run_plain_fpss(fig1)
        pricing = nodes["X"].pricing_table()
        assert pricing.price("Z", "C") == pytest.approx(4.0)
        assert pricing.price("Z", "D") == pytest.approx(4.0)


class TestNamedTopologies:
    @pytest.mark.parametrize(
        "factory,size",
        [(ring_graph, 5), (wheel_graph, 6), (complete_graph, 5)],
    )
    def test_convergence_to_oracle(self, factory, size):
        graph = factory(size, random.Random(42))
        _, nodes, _ = run_plain_fpss(graph)
        verify_against_oracle(graph, nodes)


class TestRandomGraphProperty:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=1_000))
    def test_distributed_fixed_point_equals_oracle(self, seed):
        """Property: on any random biconnected graph the distributed
        protocol's converged DATA2/DATA3 equal the centralized LCP and
        VCG payment oracle."""
        rng = random.Random(seed)
        graph = random_biconnected_graph(rng.randint(4, 7), rng)
        _, nodes, _ = run_plain_fpss(graph)
        verify_against_oracle(graph, nodes)


class TestPhaseHandling:
    def test_phase2_requires_phase1(self, fig1):
        from repro.routing import build_plain_network

        simulator, nodes = build_plain_network(fig1)
        with pytest.raises(ProtocolError, match="before 1"):
            nodes["A"].start_phase2()

    def test_tables_unavailable_before_start(self):
        node = FPSSNode("a", 1.0)
        with pytest.raises(ProtocolError, match="not started"):
            node.routing_table()
        with pytest.raises(ProtocolError, match="not started"):
            node.pricing_table()

    def test_messages_ignored_outside_phase2(self, fig1):
        from repro.routing import build_plain_network

        simulator, nodes = build_plain_network(fig1)
        for node_id in fig1.nodes:
            simulator.schedule_local(
                node_id, 0.0, nodes[node_id].start_phase1
            )
        simulator.run_until_quiescent()
        # A stray rt-update before phase 2 must be a no-op.
        from repro.sim import Message

        nodes["A"].dispatch(
            Message(src="X", dst="A", kind="rt-update", payload={"vector": ()})
        )
        assert nodes["A"].routing_table().destinations == ()
