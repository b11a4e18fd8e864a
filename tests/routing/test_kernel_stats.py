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

from repro.routing import run_plain_fpss
from repro.routing.kernel import KernelStats, MirrorKernelPool
from repro.workloads import random_biconnected_graph

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
        # The gate is not vacuous: some far kernel routes across x and
        # re-derived pricing rows without relaxing anything.
        assert crossing
