"""Unit and oracle tests for the shared replay kernel.

Reproduces: the iterative FPSS calculation of Section 4 (PODC'04) —
here exercised through the pure :class:`~repro.routing.kernel.
ReplayKernel` state machine with no simulator at all, plus the
shared-log machinery (:class:`SharedKernel` / :class:`MirrorKernelPool`)
the checker layer deduplicates with.
"""

import dataclasses
import random

import pytest

from repro.errors import ExperimentError, ProtocolError  # noqa: F401
from repro.faithful.manipulations import (
    construction_deviations,
    faithful_deviant_factory,
)
from repro.faithful.protocol import run_checked_construction
from repro.routing import (
    ASGraph,
    KernelStats,
    MirrorKernelPool,
    ReplayKernel,
    RouteEntry,
    SharedKernel,
    engine_for,
    figure1_graph,
    fixed_point_digests,
    kernel_fixed_point,
    run_plain_fpss,
)
from repro.routing.kernel import KIND_PRICE_UPDATE, KIND_RT_UPDATE
from repro.routing.dynamic import DynamicTopologyEngine
from repro.sim.churn import ChurnEvent
from repro.workloads import random_biconnected_graph


class TestKernelIdentity:
    def test_a_node_computes_on_the_kernel(self):
        """A node's computation is a plain replay kernel."""
        _, nodes, _ = run_plain_fpss(figure1_graph())
        for node in nodes.values():
            assert type(node.comp) is ReplayKernel
            assert isinstance(node.comp.stats, KernelStats)


def assert_route_state_tracks_entries(kernel):
    """A DATA2 entry exists exactly when its route state is set."""
    keys = kernel._node_keys
    assert set(kernel.routing.destinations) <= set(keys), kernel.owner
    for did, state in enumerate(kernel._route_state_col):
        has_entry = kernel.routing.entry(keys[did]) is not None
        assert has_entry == (state is not None), (kernel.owner, keys[did])


class TestOneRelaxationPath:
    """Phase starts settle through the dirty set like every later input."""

    def test_fresh_kernel_settles_to_neighbour_base_case(self):
        kernel = ReplayKernel("a", ("c", "b"), 1.0)
        for node, cost in (("b", 2.0), ("c", 3.0), ("d", 4.0)):
            kernel.note_cost_declaration(node, cost)
        base_case = (("b", 0.0, ("a", "b")), ("c", 0.0, ("a", "c")))
        # No seeding call: the neighbours entered the destination
        # universe dirty, so the first settle is the phase start.
        assert kernel.settle() == (base_case, None)
        assert kernel.settle() == (None, None)
        kernel.reset_phase2()
        assert kernel.routing.destinations == ()
        assert kernel.settle() == (base_case, None)

    def test_route_state_tracks_entries_through_churn(self):
        """Pins the invariant behind ``_relax_route``'s single entry
        check, at the kernel fixed point and after every epoch of a
        schedule that partitions the network, heals it, and changes
        membership."""
        for kernel in kernel_fixed_point(figure1_graph()).values():
            assert_route_state_tracks_entries(kernel)
        graph = ASGraph(
            {"a": 1.0, "b": 2.0, "c": 3.0, "d": 1.0, "e": 2.0, "f": 3.0},
            [
                ("a", "b"), ("b", "c"), ("a", "c"),
                ("d", "e"), ("e", "f"), ("d", "f"),
                ("c", "d"),  # the bridge
            ],
        )
        for kernel in kernel_fixed_point(graph).values():
            assert_route_state_tracks_entries(kernel)
        engine = DynamicTopologyEngine(graph)
        engine.converge()
        schedule = (
            (ChurnEvent(kind="cost", node="a", cost=5.0),),
            (ChurnEvent(kind="link-down", link=("c", "d")),),  # partition
            (ChurnEvent(kind="link-up", link=("c", "d")),),
            (ChurnEvent(kind="leave", node="f"),),
            (
                ChurnEvent(
                    kind="join", node="g", cost=1.0,
                    links=(("g", "a"), ("g", "e")),
                ),
            ),
        )
        partitioned = False
        for events in schedule:
            engine.run_epoch(events)
            for node_id in engine.active:
                comp = engine.nodes[node_id].comp
                assert_route_state_tracks_entries(comp)
                if len(comp.routing.destinations) < len(engine.active) - 1:
                    partitioned = True
        assert partitioned


class TestKernelFixedPoint:
    def test_figure1_matches_dijkstra_oracle(self):
        graph = figure1_graph()
        kernels = kernel_fixed_point(graph)
        engine = engine_for(graph)
        for source in graph.nodes:
            tree = engine.tree(source)
            routing = kernels[source].routing
            for destination in graph.nodes:
                if destination == source:
                    continue
                entry = routing.entry(destination)
                oracle = tree.get(destination)
                assert entry is not None and oracle is not None
                assert entry.path == oracle.path
                assert entry.cost == pytest.approx(oracle.cost)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_protocol_run_matches_kernel_fixed_point(self, seed):
        """Third-client check: the simulator-driven protocol and the
        synchronous pure-kernel iteration agree digest-exactly."""
        rng = random.Random(seed)
        graph = random_biconnected_graph(10, rng)
        _, nodes, _ = run_plain_fpss(graph)
        for node_id, kernel in kernel_fixed_point(graph).items():
            comp = nodes[node_id].comp
            assert comp.routing_digest() == kernel.routing_digest()
            assert comp.pricing_digest() == kernel.pricing_digest()

    def test_kernel_fixed_point_deterministic(self):
        graph = figure1_graph()
        first = {n: k.full_digest() for n, k in kernel_fixed_point(graph).items()}
        second = {n: k.full_digest() for n, k in kernel_fixed_point(graph).items()}
        assert first == second


def _seeded_pool_args(graph, principal):
    """The seed every checker of ``principal`` derives after phase 1."""
    known = {n: graph.cost(n) for n in graph.nodes}
    return {
        "neighbors": graph.neighbors(principal),
        "declared_cost": graph.cost(principal),
        "known_costs": known,
    }


class TestSharedKernel:
    @pytest.fixture
    def graph(self):
        return figure1_graph()

    @pytest.fixture
    def shared(self, graph):
        principal = sorted(graph.nodes, key=repr)[0]
        args = _seeded_pool_args(graph, principal)
        return SharedKernel(
            owner=principal,
            seed_neighbors=tuple(sorted(args["neighbors"], key=repr)),
            seed_cost=float(args["declared_cost"]),
            seed_known_costs=dict(args["known_costs"]),
        )

    def test_initial_announcements_recorded(self, shared):
        assert shared.initial_route  # direct routes at least
        assert shared.frontier == 0

    def test_leader_extends_follower_hits(self, shared, graph):
        principal = shared.owner
        neighbor = graph.neighbors(principal)[0]
        rows = (("x", 1.0, (neighbor, "x")),)
        assert shared.ingest(0, KIND_RT_UPDATE, neighbor, rows) is True
        assert shared.frontier == 1 and shared.stats.shared_hits == 0
        # A second mirror submitting the same op at the same position
        # is satisfied from the log without kernel work.
        assert shared.ingest(0, KIND_RT_UPDATE, neighbor, rows) is True
        assert shared.frontier == 1 and shared.stats.shared_hits == 1

    def test_divergent_op_refused(self, shared, graph):
        principal = shared.owner
        neighbor = graph.neighbors(principal)[0]
        rows = (("x", 1.0, (neighbor, "x")),)
        altered = (("x", 9.0, (neighbor, "x")),)
        shared.ingest(0, KIND_RT_UPDATE, neighbor, rows)
        assert shared.ingest(0, KIND_RT_UPDATE, neighbor, altered) is False
        assert shared.frontier == 1 and shared.stats.shared_hits == 0

    def test_flush_records_predictions(self, shared, graph):
        principal = shared.owner
        neighbor = graph.neighbors(principal)[0]
        rows = (("zz", 0.0, (neighbor, "zz")),)
        shared.ingest(0, KIND_RT_UPDATE, neighbor, rows)
        pos, route_delta, price_delta, ran = shared.flush(1)
        assert pos == 2 and ran
        # Replaying the same flush from the log reuses the prediction.
        pos2, route2, price2, ran2 = shared.flush(1)
        assert (pos2, route2, price2) == (pos, route_delta, price_delta)
        assert not ran2

    def test_flush_where_log_has_apply_is_divergence(self, shared, graph):
        principal = shared.owner
        neighbor = graph.neighbors(principal)[0]
        rows = (("x", 1.0, (neighbor, "x")),)
        shared.ingest(0, KIND_RT_UPDATE, neighbor, rows)
        assert shared.flush(0) is None

    def test_fork_replays_verified_prefix(self, shared, graph):
        principal = shared.owner
        neighbor = graph.neighbors(principal)[0]
        rows = (("zz", 0.0, (neighbor, "zz")),)
        shared.ingest(0, KIND_RT_UPDATE, neighbor, rows)
        shared.flush(1)
        fork = shared.fork_at(2).kernel
        assert fork is not shared.kernel
        assert fork.routing_digest() == shared.kernel.routing_digest()
        assert fork.pricing_digest() == shared.kernel.pricing_digest()
        assert shared.stats.forks == 1

    def test_fork_at_zero_is_phase_start_state(self, shared):
        fork = shared.fork_at(0).kernel
        # Identical to a fresh mirror start: the initial announcements
        # were consumed, nothing else happened.
        assert fork.routing_digest() != ""
        assert not fork.consume_route_delta()
        assert not fork.consume_avoid_delta()

    def test_avoid_ops_replay_identically(self, shared, graph):
        principal = shared.owner
        neighbor = graph.neighbors(principal)[0]
        other = [n for n in graph.nodes if n not in (principal, neighbor)][0]
        rows = ((other, neighbor, 3.0, (neighbor, other)),)
        shared.ingest(0, KIND_PRICE_UPDATE, neighbor, rows)
        shared.flush(1)
        fork = shared.fork_at(2).kernel
        assert fork.pricing_digest() == shared.kernel.pricing_digest()


class TestMirrorKernelPool:
    def test_acquire_shares_on_matching_seed(self):
        graph = figure1_graph()
        pool = MirrorKernelPool()
        principal = sorted(graph.nodes, key=repr)[0]
        args = _seeded_pool_args(graph, principal)
        first = pool.acquire(principal, **args)
        second = pool.acquire(principal, **args)
        assert first is second

    def test_seed_mismatch_refuses_sharing(self):
        graph = figure1_graph()
        pool = MirrorKernelPool()
        principal = sorted(graph.nodes, key=repr)[0]
        args = _seeded_pool_args(graph, principal)
        assert pool.acquire(principal, **args) is not None
        divergent = dict(args)
        divergent["declared_cost"] = args["declared_cost"] + 1.0
        assert pool.acquire(principal, **divergent) is None
        assert pool.collected_stats().seed_mismatches == 1

    def test_new_epoch_drops_kernels(self):
        graph = figure1_graph()
        pool = MirrorKernelPool()
        principal = sorted(graph.nodes, key=repr)[0]
        args = _seeded_pool_args(graph, principal)
        first = pool.acquire(principal, **args)
        pool.new_epoch()
        second = pool.acquire(principal, **args)
        assert first is not second
        assert pool.epoch == 1


class TestLedLog:
    """Only the leading principal writes a led log; followers verify."""

    @pytest.fixture
    def graph(self):
        return figure1_graph()

    @pytest.fixture
    def principal(self, graph):
        return sorted(graph.nodes, key=repr)[0]

    def test_follower_at_led_frontier_is_refused(self, graph, principal):
        args = _seeded_pool_args(graph, principal)
        pool = MirrorKernelPool()
        log = pool.lead(principal, **args)
        assert log is not None and log.led
        assert pool.acquire(principal, **args) is log
        neighbor = graph.neighbors(principal)[0]
        rows = (("x", 1.0, (neighbor, "x")),)
        digest = log.kernel.full_digest()
        assert log.ingest(0, KIND_RT_UPDATE, neighbor, rows) is False
        assert log.flush(0) is None
        assert log.frontier == 0
        assert log.kernel.full_digest() == digest
        # The leader appends; a follower then verifies the same ops.
        assert log.ingest(0, KIND_RT_UPDATE, neighbor, rows, lead=True)
        pos, route_delta, price_delta, ran = log.flush(1, lead=True)
        assert (pos, ran) == (2, True)
        assert log.ingest(0, KIND_RT_UPDATE, neighbor, rows) is True
        assert log.flush(1) == (2, route_delta, price_delta, False)
        assert log.stats.shared_hits == 2
        # A fork of a led log is a log of the follower's own.
        fork = log.fork_at(2)
        assert not fork.led
        assert fork.kernel.full_digest() == log.kernel.full_digest()

    def test_lead_refuses_mismatched_advanced_or_led_logs(
        self, graph, principal
    ):
        args = _seeded_pool_args(graph, principal)
        pool = MirrorKernelPool()
        divergent = dict(args, declared_cost=args["declared_cost"] + 1.0)
        assert pool.acquire(principal, **divergent) is not None
        assert pool.lead(principal, **args) is None  # seed refused
        assert pool.collected_stats().seed_mismatches == 1
        pool.new_epoch()
        log = pool.acquire(principal, **args)
        neighbor = graph.neighbors(principal)[0]
        log.ingest(0, KIND_RT_UPDATE, neighbor, (("x", 1.0, (neighbor, "x")),))
        assert pool.lead(principal, **args) is None  # already advanced
        assert not log.led
        pool.new_epoch()
        assert pool.lead(principal, **args) is not None
        assert pool.lead(principal, **args) is None  # already led


class TestKernelStats:
    def test_counters_move_on_protocol_run(self):
        graph = figure1_graph()
        _, nodes, _ = run_plain_fpss(graph)
        totals = KernelStats()
        for node in nodes.values():
            totals.merge(node.comp.stats)
        assert totals.rows_ingested > 0
        assert totals.route_relaxations > 0
        assert totals.avoid_rescans > 0
        as_dict = totals.as_dict()
        assert as_dict["rows_ingested"] == totals.rows_ingested

    def test_merge_accumulates(self):
        a = KernelStats(rows_ingested=2, forks=1)
        b = KernelStats(rows_ingested=3, shared_hits=4)
        a.merge(b)
        assert a.rows_ingested == 5
        assert a.shared_hits == 4
        assert a.forks == 1

    @staticmethod
    def _populated():
        stats = KernelStats()
        for index, field in enumerate(dataclasses.fields(KernelStats), start=1):
            setattr(stats, field.name, index)
        return stats

    def test_merge_covers_every_declared_field(self):
        """A counter added to the dataclass must be threaded through
        :meth:`KernelStats.merge` too."""
        target = self._populated()
        target.merge(self._populated())
        for index, field in enumerate(dataclasses.fields(KernelStats), start=1):
            assert getattr(target, field.name) == 2 * index, field.name

    def test_as_dict_covers_every_declared_field(self):
        view = self._populated().as_dict()
        assert set(view) == {f.name for f in dataclasses.fields(KernelStats)}
        for index, field in enumerate(dataclasses.fields(KernelStats), start=1):
            assert view[field.name] == index, field.name


def _shared_entries(construction):
    """Every SharedKernel behind a shared-checking run, owner-sorted."""
    pool = next(iter(construction.nodes.values())).mirror_pool
    assert pool is not None
    return sorted(pool._kernels.values(), key=lambda e: repr(e.owner))


def replay_log(entry):
    """Replay one SharedKernel's verified op log on a fresh kernel.

    Rebuilds the seed state independently of the pool, then asserts
    every recorded flush prediction — the broadcasts the checkers
    verified against — is reproduced bit-for-bit, and so are the final
    tables.
    """
    kernel = ReplayKernel(entry.owner, entry.seed_neighbors, entry.seed_cost)
    for node, cost in entry.seed_known_costs.items():
        kernel.note_cost_declaration(node, cost)
    kernel.reset_phase2()
    kernel.recompute_routes()
    kernel.recompute_avoidance()
    kernel.derive_pricing()
    assert kernel.consume_route_delta() == entry.initial_route
    assert kernel.consume_avoid_delta() == entry.initial_price
    for op in entry.ops:
        if op[0] == "apply":
            _tag, kind, src, rows = op
            if kind == KIND_RT_UPDATE:
                kernel.apply_route_delta(src, rows)
            else:
                kernel.apply_avoid_delta(src, rows)
        else:
            assert kernel.settle() == (op[1], op[2]), entry.owner
    assert kernel.full_digest() == entry.kernel.full_digest(), entry.owner


def assert_matches_engine(graph, nodes):
    """Every node's DATA1/DATA2/DATA3* digests equal the engine oracle's."""
    for node_id, expected in fixed_point_digests(graph).items():
        comp = nodes[node_id].comp
        assert comp.cost_digest() == expected.cost_digest, node_id
        assert comp.routing_digest() == expected.routing_digest, node_id
        assert comp.pricing_digest() == expected.pricing_digest, node_id


class TestOpLogReplay:
    """Checked-construction shared logs replay identically on a fresh
    kernel, and the tables they converge to match the engine oracle."""

    def test_honest_run_with_heterogeneous_delays(self):
        graph = random_biconnected_graph(10, random.Random(7))

        def delays(a, b, _rng=random.Random(17)):
            return _rng.uniform(1.0, 2.5)

        construction = run_checked_construction(graph, link_delays=delays)
        assert construction.flags == []
        assert_matches_engine(graph, construction.nodes)
        entries = _shared_entries(construction)
        assert any(entry.ops for entry in entries)
        for entry in entries:
            replay_log(entry)

    def test_private_checking_matches_shared_digests(self):
        graph = random_biconnected_graph(8, random.Random(3))
        shared = run_checked_construction(graph, shared_checking=True)
        private = run_checked_construction(graph, shared_checking=False)
        for node_id in shared.nodes:
            assert (
                shared.nodes[node_id].comp.full_digest()
                == private.nodes[node_id].comp.full_digest()
            ), node_id
        assert_matches_engine(graph, shared.nodes)
        for entry in _shared_entries(shared):
            replay_log(entry)

    @pytest.mark.parametrize(
        "spec", construction_deviations(), ids=lambda spec: spec.name
    )
    def test_manipulation_catalogue_runs(self, spec):
        # A deviant may fork mirrors off the shared log, but every
        # *verified* log prefix must still replay exactly — divergence
        # handling never corrupts the log.
        construction = run_checked_construction(
            figure1_graph(), node_factory=faithful_deviant_factory(spec, "C")
        )
        for entry in _shared_entries(construction):
            replay_log(entry)


class TestRouteEntrySharing:
    def test_wire_rows_keep_identity_through_tuple(self):
        """`tuple` of a tuple is the same object — the property the
        shared-log verification's fast path relies on."""
        rows = (("x", 1.0, ("a", "x")),)
        assert tuple(rows) is rows

    def test_route_entry_roundtrip(self):
        entry = RouteEntry(cost=2.0, path=("a", "b"))
        assert entry.sort_key() == entry.sort_key()
