"""Direct unit tests for kernel work counters and their pooling.

:class:`KernelStats` is the currency every overhead/benchmark table
and the telemetry ``kernel`` counter records trade in, and
:meth:`MirrorKernelPool.collected_stats` is the cross-epoch aggregation
the checker-scaling results report — both deserve direct coverage, not
just incidental exercise through protocol runs.  A log its principal
leads is counted once: its kernel on the principal, its hits on the
pool.
"""

import random

import pytest

from repro.faithful import FaithfulFPSSProtocol
from repro.routing import run_plain_fpss
from repro.routing.kernel import KernelStats, MirrorKernelPool, ReplayKernel
from repro.workloads import random_biconnected_graph, uniform_all_pairs

FIELDS = (
    "rows_ingested",
    "route_relaxations",
    "route_rescans",
    "avoid_rescans",
    "shared_hits",
    "forks",
    "seed_mismatches",
)


def _stats(**values):
    stats = KernelStats()
    for name, value in values.items():
        setattr(stats, name, value)
    return stats


class TestKernelStatsMerge:
    def test_zero_is_identity(self):
        stats = _stats(rows_ingested=3, forks=1)
        before = stats.as_dict()
        stats.merge(KernelStats())
        assert stats.as_dict() == before

    def test_accumulates_every_field(self):
        left = _stats(**{name: i + 1 for i, name in enumerate(FIELDS)})
        right = _stats(**{name: 10 * (i + 1) for i, name in enumerate(FIELDS)})
        left.merge(right)
        assert left.as_dict() == {
            name: 11 * (i + 1) for i, name in enumerate(FIELDS)
        }

    def test_merge_is_commutative_on_totals(self):
        a = _stats(rows_ingested=2, route_rescans=5)
        b = _stats(rows_ingested=7, shared_hits=3)
        left, right = _stats(), _stats()
        left.merge(a)
        left.merge(b)
        right.merge(b)
        right.merge(a)
        assert left.as_dict() == right.as_dict()

    def test_as_dict_covers_every_counter(self):
        assert tuple(KernelStats().as_dict()) == FIELDS
        assert all(v == 0 for v in KernelStats().as_dict().values())


class TestMirrorKernelPoolCollectedStats:
    SEED = dict(
        neighbors=("B", "C"),
        declared_cost=2.0,
        known_costs={"A": 1.0, "B": 2.0, "C": 3.0},
    )

    def _acquire(self, pool, **over):
        seed = {**self.SEED, **over}
        return pool.acquire(
            "A", seed["neighbors"], seed["declared_cost"], seed["known_costs"]
        )

    def test_empty_pool_collects_zero(self):
        assert MirrorKernelPool().collected_stats().as_dict() == (
            KernelStats().as_dict()
        )

    def test_live_kernel_counters_are_visible(self):
        pool = MirrorKernelPool()
        shared = self._acquire(pool)
        first = self._acquire(pool)
        assert first is shared  # same seed shares
        shared.kernel.stats.rows_ingested = 5
        shared.stats.shared_hits = 2
        collected = pool.collected_stats()
        assert collected.rows_ingested == 5
        assert collected.shared_hits == 2

    def test_seed_mismatch_counted_on_pool(self):
        pool = MirrorKernelPool()
        self._acquire(pool)
        refused = self._acquire(pool, declared_cost=9.0)
        assert refused is None
        assert pool.collected_stats().seed_mismatches == 1

    def test_new_epoch_banks_then_drops_kernels(self):
        pool = MirrorKernelPool()
        shared = self._acquire(pool)
        shared.kernel.stats.rows_ingested = 4
        shared.stats.forks = 1
        pool.new_epoch()
        assert pool.epoch == 1
        banked = pool.collected_stats()
        assert banked.rows_ingested == 4
        assert banked.forks == 1
        # A fresh same-seed acquire after the epoch is a new kernel.
        fresh = self._acquire(pool)
        assert fresh is not shared
        assert pool.collected_stats().rows_ingested == 4

    def test_led_kernel_is_counted_on_its_principal_only(self):
        """A led log's kernel is its principal's ``comp``, whose counters
        are read there; the pool keeps counting the log's hits."""
        pool = MirrorKernelPool()
        led = pool.lead(
            "A", self.SEED["neighbors"], self.SEED["declared_cost"],
            self.SEED["known_costs"],
        )
        led.kernel.stats.rows_ingested = 7
        led.stats.shared_hits = 3
        other = pool.acquire("B", ("A", "C"), 3.0, self.SEED["known_costs"])
        other.kernel.stats.rows_ingested = 2
        collected = pool.collected_stats()
        assert collected.rows_ingested == 2
        assert collected.shared_hits == 3
        pool.new_epoch()
        banked = pool.collected_stats()
        assert banked.rows_ingested == 2
        assert banked.shared_hits == 3

    def test_collection_spans_epochs_without_double_count(self):
        pool = MirrorKernelPool()
        first = self._acquire(pool)
        first.kernel.stats.rows_ingested = 3
        pool.new_epoch()
        second = self._acquire(pool)
        second.kernel.stats.rows_ingested = 10
        collected = pool.collected_stats()
        assert collected.rows_ingested == 13
        # collected_stats is a pure read: calling it twice is stable.
        assert pool.collected_stats().rows_ingested == 13


class TestEventWorkGate:
    """Exact gate: an epoch's cost change relaxes only what it feeds.

    On a converged plain network every kernel takes one cost change of
    node ``x`` through :meth:`ReplayKernel.reanchor` and settles once.
    The change feeds routes and avoidance keys only through ``x``'s
    candidates, so kernels not adjacent to ``x`` (and ``x`` itself,
    whose own cost no local key reads) relax nothing; an adjacent
    kernel relaxes at most the destinations ``x`` offers it.
    """

    @pytest.mark.parametrize("x", ["n02", "n06", "n15"])
    def test_cost_change_work_is_local(self, x):
        graph = random_biconnected_graph(16, random.Random(3))
        _, nodes, _ = run_plain_fpss(graph)
        new_cost = graph.cost(x) + 2.5
        adjacent = set(graph.neighbors(x))
        offered = set(nodes[x].comp.routing.destinations)
        crossing = 0
        for node_id in sorted(nodes, key=repr):
            kernel = nodes[node_id].comp
            before = kernel.stats.as_dict()
            if node_id == x:
                kernel.reanchor(kernel.neighbors, new_cost, ())
            else:
                kernel.reanchor(
                    kernel.neighbors, kernel.own_cost, ((x, new_cost),)
                )
            route_delta, avoid_delta = kernel.settle()
            relaxed = kernel.stats.route_relaxations - before["route_relaxations"]
            rescanned = kernel.stats.avoid_rescans - before["avoid_rescans"]
            assert kernel.stats.rows_ingested == before["rows_ingested"]
            if node_id in adjacent:
                assert relaxed <= len(offered - {node_id})
                continue
            assert (relaxed, rescanned) == (0, 0), node_id
            assert (route_delta, avoid_delta) == (None, None), node_id
            crossing += any(
                x in kernel.routing.entry(dest).path[1:-1]
                for dest in kernel.routing.destinations
            )
        # The gate is not vacuous: some far kernel routes across x, so
        # its DATA3* moves (re-derived on read) without relaxing anything.
        assert crossing


class TestPricingOnReadGate:
    """Exact gate: DATA3* is derived when read, never by a settle.

    Counted through a wrapper on :meth:`ReplayKernel.derive_pricing`
    (the view's one derivation).  A 16-node plain run settles many times
    and reads no price, so it derives nothing until the digests are
    read, then once per node; an honest faithful run reads DATA3* at
    BANK2 and in the execution phase and derives it once per node,
    because mirrors on a led log share the principal's kernel.  A
    kernel that re-derived pricing at every settle read 101 here.  The
    two other staling events, a DATA1 change and a phase restart, are
    seen by the next read with no settle in between.
    """

    @staticmethod
    def _derivations(monkeypatch):
        owners = []
        derive = ReplayKernel.derive_pricing

        def counted(kernel):
            owners.append(kernel.owner)
            return derive(kernel)

        monkeypatch.setattr(ReplayKernel, "derive_pricing", counted)
        return owners

    def test_plain_run_derives_only_on_read(self, monkeypatch):
        graph = random_biconnected_graph(16, random.Random(3))
        owners = self._derivations(monkeypatch)
        _, nodes, _ = run_plain_fpss(graph)
        assert owners == []
        for _ in range(2):  # a second read derives nothing
            for node in nodes.values():
                node.comp.pricing_digest()
            assert sorted(owners, key=repr) == sorted(graph.nodes, key=repr)

    def test_data1_change_is_read_without_a_settle(self):
        graph = random_biconnected_graph(16, random.Random(3))
        _, nodes, _ = run_plain_fpss(graph)
        x = "n06"
        far = [
            nodes[n].comp
            for n in sorted(nodes, key=repr)
            if n != x and n not in graph.neighbors(x)
        ]
        crossed = 0
        for kernel in far:
            before = kernel.pricing.as_dict()
            kernel.note_cost_declaration(x, graph.cost(x) + 2.5)
            moved = kernel.pricing.as_dict()
            kernel.retract_cost_declaration(x)
            retracted = kernel.pricing.as_dict()
            for destination, row in before.items():
                for transit, (price, tag) in row.items():
                    if transit != x:
                        assert moved[destination][transit] == (price, tag)
                        continue
                    crossed += 1
                    assert moved[destination][x] == (pytest.approx(price + 2.5), tag)
                    assert x not in retracted.get(destination, {})
        assert crossed

    def test_phase_restart_is_read_without_a_settle(self):
        graph = random_biconnected_graph(16, random.Random(3))
        _, nodes, _ = run_plain_fpss(graph)
        kernel = nodes["n00"].comp
        assert kernel.pricing.destinations
        kernel.reset_phase2()
        assert kernel.pricing.as_dict() == {}

    def test_honest_faithful_run_derives_once_per_node(self, monkeypatch):
        graph = random_biconnected_graph(16, random.Random(3))
        owners = self._derivations(monkeypatch)
        result = FaithfulFPSSProtocol(graph, uniform_all_pairs(graph)).run()
        assert result.detection.restarts == 0
        assert sorted(owners, key=repr) == sorted(graph.nodes, key=repr)
