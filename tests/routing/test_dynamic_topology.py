"""Dynamic topology engine locked down by the epoch-equivalence oracle.

Reproduces: the recomputation setting of Shneidman & Parkes (PODC'04)
Section 4 — FPSS re-converging after network change.  The contract
under test: after every reconvergence epoch, each surviving node's
DATA1/DATA2/DATA3* digests are bit-identical to the fixed point of
the post-event graph (``fixed_point_digests``), across delivery modes,
heterogeneous delays, membership churn, and partitions.
"""

import random

import pytest

from repro.errors import ConvergenceError, SimulationError
from repro.routing import ASGraph, figure1_graph, run_plain_fpss
from repro.routing.dynamic import (
    DynamicTopologyEngine,
    run_dynamic_fpss,
    verify_epoch_equivalence,
)
from repro.sim.churn import (
    EVENT_KINDS,
    ChurnEvent,
    ChurnSchedule,
    random_churn_schedule,
)
from repro.workloads import random_biconnected_graph, uniform_all_pairs


def sparse_graph(size, seed):
    """AS-like sparse biconnected test graph (constant extra degree)."""
    rng = random.Random(seed * 100 + size)
    return random_biconnected_graph(size, rng, extra_edge_prob=4.0 / (size - 1))


def bridged_graph():
    """Two triangles joined by a single bridge — removing it partitions."""
    return ASGraph(
        {"a": 1.0, "b": 2.0, "c": 3.0, "d": 1.0, "e": 2.0, "f": 3.0},
        [
            ("a", "b"), ("b", "c"), ("a", "c"),
            ("d", "e"), ("e", "f"), ("d", "f"),
            ("c", "d"),  # the bridge
        ],
    )


class TestExplicitEvents:
    """Each event kind, applied explicitly, reconverges to the oracle.

    The engine runs with ``verify=True`` throughout, so every
    ``run_epoch`` call *asserts* digest equivalence with a fresh fixed
    point on the post-event graph; these tests add the observable
    consequences on top.
    """

    def test_cost_change_reprices_routes(self):
        engine = DynamicTopologyEngine(figure1_graph())
        engine.converge()
        report = engine.run_epoch(
            (ChurnEvent(kind="cost", node="C", cost=50.0),)
        )
        assert report.reconvergence_messages > 0
        # C is now so expensive that no LCP transits it.
        for node_id, node in engine.nodes.items():
            for dest in engine.graph.nodes:
                if dest == node_id:
                    continue
                entry = node.comp.routing.entry(dest)
                assert entry is not None
                # Endpoints may be C; the interior (transit) may not.
                assert "C" not in entry.path[1:-1]

    def test_link_down_reroutes_without_stale_state(self):
        graph = figure1_graph()
        engine = DynamicTopologyEngine(graph)
        engine.converge()
        edge = graph.edges[0]
        report = engine.run_epoch((ChurnEvent(kind="link-down", link=edge),))
        assert report.reconvergence_messages > 0
        assert not engine.graph.has_edge(*edge)

    def test_link_up_matches_never_failed_network(self):
        graph = figure1_graph()
        edge = graph.edges[0]
        reduced = ASGraph(
            graph.costs,
            [p for p in graph.edges if frozenset(p) != frozenset(edge)],
        )
        engine = DynamicTopologyEngine(reduced)
        engine.converge()
        engine.run_epoch((ChurnEvent(kind="link-up", link=edge),))
        # The restored network is digest-identical to one that never
        # lost the link (fresh convergence on the full figure-1 graph).
        _, fresh_nodes, _ = run_plain_fpss(graph)
        for node_id in graph.nodes:
            assert (
                engine.nodes[node_id].comp.full_digest()
                == fresh_nodes[node_id].comp.full_digest()
            )

    def test_leave_equals_reduced_graph_directly(self):
        """Node departure via churn == constructing the reduced graph."""
        graph = sparse_graph(10, seed=4)
        victim = graph.nodes[0]
        reduced = graph.without_node(victim)
        assert reduced.is_connected()
        engine = DynamicTopologyEngine(graph)
        engine.converge()
        engine.run_epoch((ChurnEvent(kind="leave", node=victim),))
        _, fresh_nodes, _ = run_plain_fpss(reduced)
        for node_id in reduced.nodes:
            assert (
                engine.nodes[node_id].comp.full_digest()
                == fresh_nodes[node_id].comp.full_digest()
            )

    def test_join_equals_grown_graph_directly(self):
        """Node arrival via churn == constructing the grown graph."""
        graph = figure1_graph()
        event = ChurnEvent(
            kind="join", node="N", cost=2.0, links=(("N", "A"), ("N", "C"))
        )
        engine = DynamicTopologyEngine(graph)
        engine.converge()
        engine.run_epoch((event,))
        grown = ASGraph(
            dict(graph.costs, N=2.0), graph.edges + (("N", "A"), ("N", "C"))
        )
        _, fresh_nodes, _ = run_plain_fpss(grown)
        for node_id in grown.nodes:
            assert (
                engine.nodes[node_id].comp.full_digest()
                == fresh_nodes[node_id].comp.full_digest()
            )

    def test_rejoin_within_the_epoch_it_left_is_rejected(self):
        """The re-anchor view is the epoch's graph diff, which would
        read a same-epoch rejoin as a node that never left."""
        engine = DynamicTopologyEngine(figure1_graph())
        engine.converge()
        with pytest.raises(SimulationError):
            engine.run_epoch(
                (
                    ChurnEvent(kind="leave", node="B"),
                    ChurnEvent(
                        kind="join", node="B", cost=1.0, links=(("B", "A"),)
                    ),
                )
            )

    def test_epochs_require_prior_convergence(self):
        engine = DynamicTopologyEngine(figure1_graph())
        with pytest.raises(ConvergenceError):
            engine.run_epoch((ChurnEvent(kind="cost", node="A", cost=2.0),))


class TestPartitions:
    """Partition handling: unreachable destinations are withdrawn
    everywhere, not retained as stale state."""

    def test_partition_withdraws_unreachable_destinations(self):
        engine = DynamicTopologyEngine(bridged_graph())
        engine.converge()
        engine.run_epoch((ChurnEvent(kind="link-down", link=("c", "d")),))
        west, east = ("a", "b", "c"), ("d", "e", "f")
        for src in west:
            for dest in east:
                assert engine.nodes[src].comp.routing.entry(dest) is None
            for dest in west:
                if dest != src:
                    assert engine.nodes[src].comp.routing.entry(dest) is not None
        for src in east:
            for dest in west:
                assert engine.nodes[src].comp.routing.entry(dest) is None

    def test_cross_partition_traffic_counts_as_unroutable(self):
        graph = bridged_graph()
        schedule = ChurnSchedule.single(
            ChurnEvent(kind="link-down", link=("c", "d"))
        )
        run = run_dynamic_fpss(
            graph, schedule, traffic=lambda g: uniform_all_pairs(g)
        )
        report = run.epochs[0]
        # 3 west x 3 east, both directions, cannot be carried.
        assert report.unroutable_flows == 18
        assert report.routed_flows == 12
        assert 0 < report.availability < 1
        assert run.availability == report.availability

    def test_healing_restores_full_availability(self):
        graph = bridged_graph()
        schedule = ChurnSchedule(
            epochs=(
                (ChurnEvent(kind="link-down", link=("c", "d")),),
                (ChurnEvent(kind="link-up", link=("c", "d")),),
            )
        )
        run = run_dynamic_fpss(
            graph, schedule, traffic=lambda g: uniform_all_pairs(g)
        )
        assert run.epochs[0].availability < 1
        assert run.epochs[1].availability == 1.0
        assert run.epochs[1].unroutable_flows == 0
        # Healed network is digest-identical to a never-partitioned one.
        _, fresh_nodes, _ = run_plain_fpss(graph)
        for node_id in graph.nodes:
            assert (
                run.nodes[node_id].comp.full_digest()
                == fresh_nodes[node_id].comp.full_digest()
            )


class TestEpochEquivalenceProperty:
    """Randomized property: any viable churn schedule reconverges to
    the fresh fixed point, across sizes, epoch counts, delivery modes,
    and heterogeneous delays.  ``verify=True`` means the engine itself
    raises on the first digest divergence."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("size", [16, 24])
    def test_random_schedules_reconverge_exactly(self, size, seed):
        graph = sparse_graph(size, seed=seed)
        epochs = (seed % 4) + 1
        schedule = random_churn_schedule(
            graph,
            random.Random(1000 + seed),
            epochs=epochs,
            events_per_epoch=2,
            kinds=EVENT_KINDS,
            require="connected",
        )
        run = run_dynamic_fpss(
            graph, schedule, traffic=lambda g: uniform_all_pairs(g)
        )
        assert len(run.epochs) == epochs
        # Connected throughout: every attempted flow was routable.
        assert run.availability == 1.0
        assert all(r.unroutable_flows == 0 for r in run.epochs)
        verify_epoch_equivalence(run.graph, run.nodes)

    @pytest.mark.parametrize("batch", [True, False])
    def test_delivery_mode_is_invisible(self, batch):
        graph = sparse_graph(12, seed=7)
        schedule = random_churn_schedule(
            graph,
            random.Random(21),
            epochs=2,
            events_per_epoch=2,
            kinds=EVENT_KINDS,
        )
        run = run_dynamic_fpss(graph, schedule, batch_delivery=batch)
        verify_epoch_equivalence(run.graph, run.nodes)

    def test_heterogeneous_delays_reconverge_exactly(self):
        graph = sparse_graph(12, seed=3)

        def delays(a, b, _rng=random.Random(13)):
            return _rng.uniform(1.0, 2.5)

        schedule = random_churn_schedule(
            graph,
            random.Random(8),
            epochs=3,
            events_per_epoch=2,
            kinds=EVENT_KINDS,
        )
        run = run_dynamic_fpss(graph, schedule, link_delays=delays)
        verify_epoch_equivalence(run.graph, run.nodes)

    def test_determinism_across_runs(self):
        graph = sparse_graph(12, seed=1)
        schedule = random_churn_schedule(
            graph, random.Random(4), epochs=2, events_per_epoch=2
        )

        def fingerprint():
            run = run_dynamic_fpss(
                graph, schedule, traffic=lambda g: uniform_all_pairs(g)
            )
            return [
                (
                    r.epoch,
                    r.reconvergence_messages,
                    r.payments_total,
                    run.nodes[sorted(run.graph.nodes, key=repr)[0]]
                    .comp.full_digest(),
                )
                for r in run.epochs
            ]

        assert fingerprint() == fingerprint()


class TestRunMetrics:
    def test_amplification_relates_totals(self):
        graph = sparse_graph(12, seed=2)
        schedule = random_churn_schedule(
            graph, random.Random(6), epochs=3, events_per_epoch=2
        )
        run = run_dynamic_fpss(graph, schedule)
        total = sum(r.reconvergence_messages for r in run.epochs)
        assert run.initial_messages > 0
        assert run.message_amplification == pytest.approx(
            total / run.initial_messages
        )

    def test_oracle_rejects_stale_tables(self):
        """The oracle itself must be discriminating: tables computed on
        the old graph fail against the evolved one."""
        graph = figure1_graph()
        _, nodes, _ = run_plain_fpss(graph)
        evolved = graph.with_costs({"C": 50.0})
        with pytest.raises(ConvergenceError):
            verify_epoch_equivalence(evolved, nodes)

    def test_quiescence_is_enforced(self):
        """Events may only be applied at quiescence; a simulator with
        messages in flight is rejected loudly."""
        engine = DynamicTopologyEngine(figure1_graph())
        engine.converge()
        engine.simulator.schedule_local(
            "A", 1.0, lambda: None, label="in-flight"
        )
        with pytest.raises(ConvergenceError):
            engine.run_epoch((ChurnEvent(kind="cost", node="A", cost=2.0),))
