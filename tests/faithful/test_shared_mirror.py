"""Shared-kernel mirrors are bit-identical to per-neighbour replay.

Reproduces: the checker redundancy of Section 4.2/4.3 (PODC'04).  The
shared replay kernel deduplicates the k-fold mirror computation, but
detection is only sound if it changes *nothing observable*: these
tests pin that shared-kernel mirrors emit bit-identical flags and
digests to per-neighbour replay (every mirror on a replay log of its
own) across delivery modes, heterogeneous link delays,
withdrawal-carrying streams, and every catalogued manipulation —
including the deviations that force mirrors to fork off the shared log
(unequal copies, lazy checkers) — and pin the leader rule: an obedient
principal computes on the log its checkers follow, every deviant and
colluder on a log of its own.
"""

import random

import pytest

from repro.faithful import (
    DEVIATION_CATALOGUE,
    FaithfulFPSSProtocol,
    PrincipalMirror,
    construction_deviations,
    faithful_deviant_factory,
    run_checked_construction,
    verify_checked_network,
)
from repro.faithful.collusion import coalition_factory
from repro.faithful.epochs import run_checked_churn
from repro.faithful.manipulations import _deviant_class
from repro.faithful.node import FaithfulRoutingNode, encode_flag
from repro.faithful.protocol import (
    anchor_checkers,
    build_checked_network,
    live_mirrors,
)
from repro.routing import MirrorKernelPool, figure1_graph
from repro.routing.convergence import run_phase
from repro.routing.kernel import KIND_PRICE_UPDATE, KIND_RT_UPDATE
from repro.sim.churn import ChurnEvent, ChurnSchedule
from repro.workloads import random_biconnected_graph, uniform_all_pairs


def sorted_flags(detection):
    """Stable, comparable encoding of a run's full flag multiset."""
    return sorted((encode_flag(f) for f in detection.all_flags), key=repr)


def run_protocol(graph, traffic, shared, batch=True, node_factory=None,
                 link_delays=1.0):
    protocol = FaithfulFPSSProtocol(
        graph,
        traffic,
        node_factory=node_factory,
        link_delays=link_delays,
        shared_checking=shared,
    )
    original_build = protocol._build

    def build():
        simulator, nodes, bank = original_build()
        simulator.batch_delivery = batch
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
    @pytest.mark.parametrize("batch", [True, False])
    def test_clean_run_identical(self, graph, traffic, batch):
        """Obedient networks: same progress, no flags, same money."""
        shared = run_protocol(graph, traffic, shared=True, batch=batch)
        private = run_protocol(graph, traffic, shared=False, batch=batch)
        assert shared.progressed and private.progressed
        assert not shared.detection.detected_any
        assert not private.detection.detected_any
        assert sorted_flags(shared.detection) == sorted_flags(private.detection)
        for node in shared.utilities:
            assert shared.utilities[node] == pytest.approx(
                private.utilities[node]
            )

    def test_checked_construction_digest_parity(self):
        """Every mirror digest matches in both modes, bit for bit."""
        rng = random.Random(7)
        g = random_biconnected_graph(10, rng)
        runs = {
            mode: run_checked_construction(g, shared_checking=mode)
            for mode in (True, False)
        }
        for mode, checked in runs.items():
            verify_checked_network(g, checked)
        shared_nodes = runs[True].nodes
        private_nodes = runs[False].nodes
        for node_id in shared_nodes:
            for principal in shared_nodes[node_id].mirrors:
                sm = shared_nodes[node_id].mirrors[principal]
                pm = private_nodes[node_id].mirrors[principal]
                assert sm.routing_digest() == pm.routing_digest()
                assert sm.pricing_digest() == pm.pricing_digest()
        # The dedup actually happened: strictly fewer checker-side
        # relaxations, positive shared-hit count, zero forks.
        assert runs[True].kernel_stats.shared_hits > 0
        assert runs[True].kernel_stats.forks == 0
        # Per-neighbour mirrors account their work too (their own
        # logs' kernels are collected, not just the pool).
        assert runs[False].kernel_stats.rows_ingested > 0
        assert runs[False].kernel_stats.shared_hits == 0
        assert (
            runs[True].metrics["total_checker_computations"]
            < runs[False].metrics["total_checker_computations"]
        )

    def test_heterogeneous_delays_parity(self):
        """Per-link asynchrony: sharing stays exact (batches shift but
        the per-principal op streams do not)."""
        rng = random.Random(11)
        g = random_biconnected_graph(8, rng)

        def delays(a, b, _rng=random.Random(13)):
            return _rng.uniform(1.0, 2.5)

        shared = run_checked_construction(g, link_delays=delays)
        private = run_checked_construction(
            g, link_delays=delays, shared_checking=False
        )
        assert shared.flags == [] and private.flags == []
        for node_id in shared.nodes:
            assert (
                shared.nodes[node_id].comp.full_digest()
                == private.nodes[node_id].comp.full_digest()
            )
        assert shared.kernel_stats.forks == 0

    @pytest.mark.parametrize("batch", [True, False])
    def test_unbatched_mode_shares_too(self, batch):
        rng = random.Random(3)
        g = random_biconnected_graph(6, rng)
        checked = run_checked_construction(g, batch_delivery=batch)
        verify_checked_network(g, checked)
        assert checked.kernel_stats.shared_hits > 0

    def test_collected_flags_identical_across_modes(self):
        """The canonical flag collection (Flag.sort_key ordering) is
        bit-identical between shared and per-neighbour runs."""
        from repro.faithful import collect_construction_flags

        rng = random.Random(17)
        g = random_biconnected_graph(8, rng)
        shared = run_checked_construction(g, shared_checking=True)
        private = run_checked_construction(g, shared_checking=False)
        assert collect_construction_flags(shared.nodes) == (
            collect_construction_flags(private.nodes)
        )


class TestDeviantParity:
    """Every catalogued manipulation: identical detection verdict and
    flag multiset whether mirrors share or replay per neighbour."""

    @pytest.mark.parametrize(
        "deviation", sorted(DEVIATION_CATALOGUE)
    )
    def test_detection_verdict_and_flags_identical(
        self, graph, traffic, deviation
    ):
        spec = DEVIATION_CATALOGUE[deviation]
        results = {
            mode: run_protocol(
                graph,
                traffic,
                shared=mode,
                node_factory=faithful_deviant_factory(spec, "C"),
            )
            for mode in (True, False)
        }
        assert (
            results[True].detection.detected_any
            == results[False].detection.detected_any
        )
        assert results[True].progressed == results[False].progressed
        assert sorted_flags(results[True].detection) == sorted_flags(
            results[False].detection
        )

    @pytest.mark.parametrize(
        "deviation",
        [s.name for s in construction_deviations() if s.name != "cost-lie"],
    )
    def test_construction_deviations_detected_with_sharing(
        self, graph, traffic, deviation
    ):
        """No detection regressions: everything the per-neighbour path
        catches, the shared path catches."""
        spec = DEVIATION_CATALOGUE[deviation]
        result = run_protocol(
            graph,
            traffic,
            shared=True,
            node_factory=faithful_deviant_factory(spec, "C"),
        )
        assert result.detection.detected_any

    def test_copy_alter_forces_forks_not_misses(self, graph, traffic):
        """Altered copies reach every checker identically, so mirrors
        replay the altered stream in lockstep — detection comes from
        ledger checks and broadcast mismatches, not forks — while a
        *spoofed* one-off copy still detects under sharing."""
        spec = DEVIATION_CATALOGUE["copy-alter"]
        result = run_protocol(
            graph,
            traffic,
            shared=True,
            node_factory=faithful_deviant_factory(spec, "C"),
        )
        assert result.detection.detected_any


class TestMirrorLevelStream:
    """Direct mirror-level parity on randomized delta streams, with
    withdrawals, driven without any simulator."""

    def _mirrors(self, shared_pool=True):
        graph = figure1_graph()
        principal = "C"
        checkers = [n for n in graph.neighbors(principal)]
        known = {n: graph.cost(n) for n in graph.nodes}
        pool = MirrorKernelPool()
        mirrors = {}
        reference = {}
        for checker in checkers:
            m = PrincipalMirror(checker, principal)
            kwargs = dict(
                principal_neighbors=graph.neighbors(principal),
                declared_cost=graph.cost(principal),
                known_costs=known,
            )
            shared = pool.acquire(principal, graph.neighbors(principal),
                                  graph.cost(principal), known)
            m.start_phase2(shared=shared if shared_pool else None, **kwargs)
            mirrors[checker] = m
            r = PrincipalMirror(checker, principal)
            r.start_phase2(**kwargs)
            reference[checker] = r
        return graph, principal, mirrors, reference

    @staticmethod
    def _boundary(*groups):
        """A batch boundary: every mirror replays its ingested copies."""
        for group in groups:
            for mirror in group:
                mirror.flush_pending()

    @classmethod
    def _replay(cls, kind, src, rows, *mirrors):
        """Ingest one copy, then close the batch (a batch of one)."""
        for mirror in mirrors:
            mirror.apply_copy(kind, src, rows)
        cls._boundary(mirrors)

    def _random_stream(self, graph, principal, rng, steps=40):
        """A plausible op stream with upserts and withdrawals."""
        neighbors = graph.neighbors(principal)
        others = [n for n in graph.nodes if n != principal]
        stream = []
        announced = set()
        for _ in range(steps):
            src = rng.choice(neighbors)
            if rng.random() < 0.5:
                dest = rng.choice(others)
                if announced and rng.random() < 0.25:
                    dest = rng.choice(sorted(announced, key=repr))
                    rows = ((dest, None, ()),)  # withdrawal
                    announced.discard(dest)
                else:
                    announced.add(dest)
                    rows = ((dest, rng.randint(0, 9) * 1.0, (src, dest)),)
                stream.append((KIND_RT_UPDATE, src, rows))
            else:
                dest = rng.choice(others)
                avoided = rng.choice(
                    [n for n in graph.nodes if n not in (principal, dest)]
                )
                if rng.random() < 0.2:
                    rows = ((dest, avoided, None, ()),)  # withdrawal
                else:
                    rows = (
                        (dest, avoided, rng.randint(0, 9) * 1.0, (src, dest)),
                    )
                stream.append((KIND_PRICE_UPDATE, src, rows))
        return stream

    @pytest.mark.parametrize("seed", range(6))
    def test_random_streams_with_withdrawals_bit_identical(self, seed):
        graph, principal, mirrors, reference = self._mirrors()
        rng = random.Random(seed)
        stream = self._random_stream(graph, principal, rng)
        for kind, src, rows in stream:
            for checker in mirrors:
                mirrors[checker].apply_copy(kind, src, rows)
                reference[checker].apply_copy(kind, src, rows)
            if rng.random() < 0.5:
                self._boundary(mirrors.values(), reference.values())
        self._boundary(mirrors.values(), reference.values())
        for checker in mirrors:
            shared_m, ref = mirrors[checker], reference[checker]
            assert shared_m._expected == ref._expected
            assert shared_m.routing_digest() == ref.routing_digest()
            assert shared_m.pricing_digest() == ref.pricing_digest()
            assert [f.kind for f in shared_m.flags] == [
                f.kind for f in ref.flags
            ]

    def test_divergent_stream_forks_and_stays_exact(self):
        """One checker fed a different copy forks off the log and ends
        bit-identical to a lone mirror fed its own stream."""
        graph, principal, mirrors, reference = self._mirrors()
        checkers = sorted(mirrors, key=repr)
        leader, victim = checkers[0], checkers[1]
        src = graph.neighbors(principal)[0]
        common = ((("x"), 1.0, (src, "x")),)
        altered = ((("x"), 7.0, (src, "x")),)
        # Everyone agrees on op 0.
        for checker in checkers:
            self._replay(KIND_RT_UPDATE, src, common,
                         mirrors[checker], reference[checker])
        # Op 1 differs for the victim (deviant principal behaviour).
        for checker in checkers:
            rows = altered if checker == victim else common
            self._replay(KIND_RT_UPDATE, src, rows,
                         mirrors[checker], reference[checker])
        victim_mirror = mirrors[victim]
        assert victim_mirror.private_kernel_stats() is not None  # forked
        assert mirrors[leader].private_kernel_stats() is None  # still sharing
        for checker in checkers:
            assert (
                mirrors[checker].routing_digest()
                == reference[checker].routing_digest()
            )
            assert list(mirrors[checker]._expected[KIND_RT_UPDATE]) == list(
                reference[checker]._expected[KIND_RT_UPDATE]
            )

    @staticmethod
    def _assert_at_own_frontier(mirror):
        log = mirror._log
        assert mirror.private_kernel_stats() is log.kernel.stats
        assert mirror._cursor == log.frontier
        assert log.stats.shared_hits == 0
        assert log.stats.forks == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_own_logs_stay_at_their_frontier(self, seed):
        """A mirror on a log of its own — started unpooled, or forked
        off the pooled one — extends it with every apply and flush and
        never reads an op back from it."""
        graph, principal, mirrors, reference = self._mirrors()
        checkers = sorted(mirrors, key=repr)
        victim = checkers[1]
        src = graph.neighbors(principal)[0]
        # The victim's first copy differs from the leader's: it forks
        # at position 0.
        for checker in checkers:
            cost = 7.0 if checker == victim else 1.0
            rows = (("x", cost, (src, "x")),)
            self._replay(KIND_RT_UPDATE, src, rows,
                         mirrors[checker], reference[checker])
        own = [reference[checker] for checker in checkers] + [mirrors[victim]]
        for mirror in own:
            self._assert_at_own_frontier(mirror)
        rng = random.Random(seed)
        for kind, src, rows in self._random_stream(graph, principal, rng):
            for checker in checkers:
                mirrors[checker].apply_copy(kind, src, rows)
                reference[checker].apply_copy(kind, src, rows)
            for mirror in own:
                self._assert_at_own_frontier(mirror)
            if rng.random() < 0.5:
                self._boundary(mirrors.values(), reference.values())
                for mirror in own:
                    self._assert_at_own_frontier(mirror)
        self._boundary(mirrors.values(), reference.values())
        forked, ref = mirrors[victim], reference[victim]
        assert forked._expected == ref._expected
        assert forked.pricing_digest() == ref.pricing_digest()

    def test_straggler_digest_forks_to_own_position(self):
        """A mirror that stopped replaying (lazy checker) must report
        its own stale digest, not the shared frontier's."""
        graph, principal, mirrors, reference = self._mirrors()
        checkers = sorted(mirrors, key=repr)
        lazy, diligent = checkers[0], checkers[1]
        src = graph.neighbors(principal)[0]
        rows = ((("x"), 1.0, (src, "x")),)
        # Only the diligent checkers replay the copy.
        for checker in checkers:
            if checker != lazy:
                self._replay(KIND_RT_UPDATE, src, rows,
                             mirrors[checker], reference[checker])
        assert (
            mirrors[lazy].routing_digest() == reference[lazy].routing_digest()
        )
        assert (
            mirrors[diligent].routing_digest()
            != mirrors[lazy].routing_digest()
        )


# ----------------------------------------------------------------------
# the obedient principal leads its checkers' log
# ----------------------------------------------------------------------

#: Every catalogued deviation on C, plus a full checker coalition
#: shielding a false-route announcer at C.
SCENARIOS = sorted(DEVIATION_CATALOGUE) + ["collusion"]


def scenario_factory(graph, scenario):
    if scenario == "collusion":
        return coalition_factory(
            DEVIATION_CATALOGUE["false-route-announce"], "C",
            graph.neighbors("C"),
        )
    return faithful_deviant_factory(DEVIATION_CATALOGUE[scenario], "C")


def deviants(graph, scenario):
    if scenario == "collusion":
        return {"C", *graph.neighbors("C")}
    return {"C"}


def pooled_log(node):
    """The pool's log for ``node`` as a principal."""
    return node.mirror_pool._kernels[node.node_id]


def assert_leads(node):
    log = pooled_log(node)
    assert log.led
    assert node.replay_log is log
    assert node.comp is log.kernel


def assert_own_kernel(node):
    """The node writes a log no mirror follows and leads no pooled one."""
    log = node.replay_log
    assert log is not None and log.led
    assert node.comp is log.kernel
    pooled = node.mirror_pool._kernels.get(node.node_id)
    assert pooled is not log and not (pooled is not None and pooled.led)


def checked_phase2(graph, shared, batch, node_factory):
    """Both construction phases, stopped before the quiescence
    checkpoint so the mirrors' expected-broadcast queues are live."""
    pool = MirrorKernelPool() if shared else None
    simulator, nodes = build_checked_network(
        graph, pool, batch_delivery=batch, node_factory=node_factory
    )
    run_phase(simulator, nodes, "phase1", 1_000_000)
    anchor_checkers(nodes, graph)
    if pool is not None:
        pool.new_epoch()
    run_phase(simulator, nodes, "phase2", 1_000_000)
    return simulator, nodes


def observables(nodes):
    """Per-mirror queues, digests and flags, and every node's digest."""
    seen = {}
    for checker, principal, mirror in live_mirrors(nodes):
        seen[(checker, principal)] = (
            list(mirror._expected[KIND_RT_UPDATE]),
            list(mirror._expected[KIND_PRICE_UPDATE]),
            mirror.routing_digest(),
            mirror.pricing_digest(),
            [encode_flag(f) for f in mirror.checkpoint_flags()],
        )
    for node_id, node in nodes.items():
        seen[node_id] = node.comp.full_digest()
    return seen


class TestPrincipalLeads:
    def test_obedient_principal_computes_on_its_pool_log(self):
        g = random_biconnected_graph(10, random.Random(7))
        checked = run_checked_construction(g)
        verify_checked_network(g, checked)
        for node in checked.nodes.values():
            assert_leads(node)
        # No checker ever executes a relaxation on a led log, and the
        # pool counts no kernel work (it is on the principals' comps).
        assert checked.metrics["total_checker_computations"] == 0
        assert checked.kernel_stats.rows_ingested == 0
        assert checked.kernel_stats.shared_hits > 0
        assert checked.kernel_stats.forks == 0

    def test_without_a_pool_every_principal_writes_its_own_log(self):
        g = random_biconnected_graph(6, random.Random(3))
        checked = run_checked_construction(g, shared_checking=False)
        for node in checked.nodes.values():
            assert node.replay_log is not None
            assert node.comp is node.replay_log.kernel

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_deviants_and_colluders_keep_their_own_kernel(self, scenario):
        g = figure1_graph()
        checked = run_checked_construction(
            g, node_factory=scenario_factory(g, scenario)
        )
        marked = deviants(g, scenario)
        for node_id, node in checked.nodes.items():
            if node_id in marked:
                assert type(node) is not FaithfulRoutingNode
                assert_own_kernel(node)
            else:
                assert_leads(node)

    def test_principal_counters_carry_across_phase_restarts(
        self, graph, traffic
    ):
        """Each phase-2 attempt computes on a new log's kernel; the
        principal's work counters still cover every attempt."""
        protocol = FaithfulFPSSProtocol(
            graph,
            traffic,
            node_factory=faithful_deviant_factory(
                DEVIATION_CATALOGUE["route-suppress"], "C"
            ),
        )
        assert protocol.run().detection.restarts > 0
        for node_id, node in protocol.nodes.items():
            last_attempt = sum(
                len(op[3]) for op in node.replay_log.ops if op[0] == "apply"
            )
            assert node.comp.stats.rows_ingested > last_attempt, node_id

    def test_node_turned_deviant_mid_churn_stops_leading(self):
        spec = DEVIATION_CATALOGUE["false-route-announce"]
        deviant_cls = _deviant_class(FaithfulRoutingNode, spec)
        led_before = []

        def inject(epoch, nodes):
            if epoch == 2:
                led_before.append(nodes["C"].replay_log.led and (
                    nodes["C"].replay_log is pooled_log(nodes["C"])
                ))
                nodes["C"].__class__ = deviant_cls
                nodes["C"]._handlers.clear()

        # Epochs repair in place: the A-C chord comes up in epoch 1 and
        # goes down in epoch 2, so C's routing seam gets rows after the
        # swap (without the chord it gets none in epoch 2).
        schedule = ChurnSchedule(epochs=tuple(
            (ChurnEvent(kind="cost", node=node, cost=cost),
             ChurnEvent(kind=link, link=("A", "C")))
            for node, cost, link in (
                ("D", 2.0, "link-up"), ("A", 3.0, "link-down")
            )
        ))
        run = run_checked_churn(
            figure1_graph(), schedule, on_epoch_start=inject, verify=False
        )
        assert led_before == [True]
        assert_own_kernel(run.nodes["C"])
        assert run.epochs[1].flags
        for node_id, node in run.nodes.items():
            if node_id != "C":
                assert_leads(node)

    def test_follower_at_a_led_frontier_forks_without_touching_the_principal(
        self,
    ):
        """A copy the principal never ingested reaches the frontier of
        its led log: refused, so the mirror forks; the principal's log
        and tables are untouched.  Same for a flush the principal never
        ran."""
        graph = figure1_graph()
        principal = "C"
        known = {n: graph.cost(n) for n in graph.nodes}
        seed = (principal, graph.neighbors(principal), graph.cost(principal),
                known)
        pool = MirrorKernelPool()
        log = pool.lead(*seed)
        src = graph.neighbors(principal)[0]
        rows = (("x", 1.0, (src, "x")),)
        log.ingest(log.frontier, KIND_RT_UPDATE, src, rows, lead=True)
        log.flush(log.frontier, lead=True)
        digest = log.kernel.full_digest()
        frontier = log.frontier

        def follower(checker):
            mirror = PrincipalMirror(checker, principal)
            mirror.start_phase2(
                graph.neighbors(principal), graph.cost(principal), known,
                shared=pool.acquire(*seed),
            )
            mirror.apply_copy(KIND_RT_UPDATE, src, rows)
            assert mirror.flush_pending() is False  # a hit, not a run
            assert mirror.private_kernel_stats() is None
            return mirror

        checkers = [n for n in graph.neighbors(principal) if n != src]
        ahead = follower(checkers[0])
        ahead.apply_copy(KIND_RT_UPDATE, src, (("y", 2.0, (src, "y")),))
        assert ahead.private_kernel_stats() is not None  # forked
        assert ahead.flush_pending() is True  # ran on its own log
        flusher = follower(checkers[1])
        flusher._replay_pending = True  # a flush with no input behind it
        assert flusher.flush_pending() is True
        assert flusher.private_kernel_stats() is not None  # forked
        assert log.frontier == frontier
        assert log.kernel.full_digest() == digest
        assert log.stats.forks == 2

    @pytest.mark.parametrize("batch", [True, False], ids=["batched", "unbatched"])
    @pytest.mark.parametrize("scenario", ["obedient"] + SCENARIOS)
    def test_queues_digests_and_flags_equal_reference(self, scenario, batch):
        g = figure1_graph()
        factory = None if scenario == "obedient" else scenario_factory(
            g, scenario
        )
        runs = {
            shared: checked_phase2(g, shared, batch, factory)
            for shared in (True, False)
        }
        assert observables(runs[True][1]) == observables(runs[False][1])
        assert (
            runs[True][0].metrics.summary()["total_messages"]
            == runs[False][0].metrics.summary()["total_messages"]
        )
