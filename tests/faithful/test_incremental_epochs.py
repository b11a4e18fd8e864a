"""Checked churn repairs the live network in place.

Reproduces: Section 4 of Shneidman & Parkes (PODC'04) in the
recomputation setting.  After epoch 0's construction, every epoch
reaches each replay log as one re-anchor op, and the network
reconverges from its live kernels and mirrors.  The properties, on
random biconnected graphs of 8-12 nodes under random ``cost`` /
``link-down`` / ``link-up`` schedules, in both delivery modes, with
and without a shared mirror pool:

* every epoch's node digests equal ``fixed_point_digests`` of the
  post-event graph, and every live mirror's digests equal its
  principal's;
* honest runs raise no flags, and the pool neither refuses nor forks;
* digests and flags with a pool equal those without one;
* a checker with a wrong DATA1 entry forks and leaves the principal's
  log and tables alone;
* a principal swapped to a deviant class at a boundary stops leading.
"""

import random

import pytest

from repro.faithful import DEVIATION_CATALOGUE, FaithfulRoutingNode
from repro.faithful.epochs import CHECKED_EVENT_KINDS, run_checked_churn
from repro.faithful.manipulations import _deviant_class
from repro.routing.dynamic import run_dynamic_fpss
from repro.routing.engine import fixed_point_digests
from repro.sim.churn import apply_churn_epoch, random_churn_schedule
from repro.workloads import random_biconnected_graph

#: (graph seed, size): 8-12 nodes.
CASES = [(1, 8), (2, 9), (3, 10), (4, 11), (5, 12), (6, 12)]

BATCH = pytest.mark.parametrize("batch", [True, False], ids=["batched", "unbatched"])


def make_case(seed, size, events_per_epoch=2):
    graph = random_biconnected_graph(
        size, random.Random(seed), extra_edge_prob=4.0 / (size - 1)
    )
    schedule = random_churn_schedule(
        graph,
        random.Random(1000 + seed),
        epochs=3,
        events_per_epoch=events_per_epoch,
        kinds=CHECKED_EVENT_KINDS,
        require="biconnected",
        seed=seed,
    )
    return graph, schedule


def epoch_graphs(graph, schedule):
    graphs = [graph]
    for events in schedule.epochs:
        graphs.append(apply_churn_epoch(graphs[-1], events))
    return graphs


def snapshot(nodes):
    """Node digests and live-mirror digests of a quiescent network."""
    tables = {
        node_id: (
            node.comp.cost_digest(),
            node.comp.routing_digest(),
            node.comp.pricing_digest(),
        )
        for node_id, node in nodes.items()
    }
    mirrors = {
        (checker, principal): (mirror.routing_digest(), mirror.pricing_digest())
        for checker, node in nodes.items()
        for principal, mirror in node.mirrors.items()
        if mirror.comp is not None
    }
    return tables, mirrors


def checked_run(graph, schedule, shared, batch, inject=None):
    """The run plus one snapshot per epoch (epoch 0 first)."""
    snapshots = []

    def on_epoch_start(epoch, nodes):
        snapshots.append(snapshot(nodes))
        if inject is not None:
            inject(epoch, nodes)

    run = run_checked_churn(
        graph, schedule, shared_checking=shared, batch_delivery=batch,
        verify=False, on_epoch_start=on_epoch_start,
    )
    snapshots.append(snapshot(run.nodes))
    return run, snapshots


def per_epoch_flags(run):
    return [report.flags for report in (run.initial, *run.epochs)]


@BATCH
@pytest.mark.parametrize("shared", [True, False], ids=["pooled", "own-logs"])
@pytest.mark.parametrize("seed,size", CASES)
def test_every_epoch_reaches_the_fixed_point(seed, size, shared, batch):
    graph, schedule = make_case(seed, size)
    run, snapshots = checked_run(graph, schedule, shared, batch)
    graphs = epoch_graphs(graph, schedule)
    assert len(snapshots) == len(graphs)
    for epoch_graph, (tables, mirrors) in zip(graphs, snapshots):
        expected = fixed_point_digests(epoch_graph)
        assert tables == {
            node_id: (d.cost_digest, d.routing_digest, d.pricing_digest)
            for node_id, d in expected.items()
        }
        assert set(mirrors) == {
            (checker, principal)
            for checker in epoch_graph.nodes
            for principal in epoch_graph.neighbors(checker)
        }
        for (_checker, principal), digests in mirrors.items():
            assert digests == tables[principal][1:]
    assert per_epoch_flags(run) == [[]] * len(graphs)
    stats = run.kernel_stats()
    assert run.seed_mismatches == 0
    assert stats.forks == 0
    if shared:
        assert stats.shared_hits > 0


@BATCH
@pytest.mark.parametrize("seed,size", CASES)
def test_sharing_is_invisible(seed, size, batch):
    graph, schedule = make_case(seed, size)
    pooled, pooled_snapshots = checked_run(graph, schedule, True, batch)
    own, own_snapshots = checked_run(graph, schedule, False, batch)
    assert pooled_snapshots == own_snapshots
    assert per_epoch_flags(pooled) == per_epoch_flags(own)


@BATCH
@pytest.mark.parametrize("seed,size", [(1, 8), (2, 8), (4, 8), (8, 8), (3, 10)])
def test_table_updates_match_the_plain_engine(seed, size, batch):
    """Checking adds the flood and the checker copies, nothing else:
    each 3-event epoch sends exactly the plain engine's table updates,
    because both drivers repair through the same re-anchor step."""
    graph, schedule = make_case(seed, size, events_per_epoch=3)
    sent = []

    def count(epoch, nodes):
        metrics = nodes[next(iter(nodes))].sim.metrics
        sent.append(
            metrics.messages_of_kind("rt-update")
            + metrics.messages_of_kind("price-update")
        )

    run = run_checked_churn(
        graph, schedule, batch_delivery=batch, on_epoch_start=count
    )
    count(None, run.nodes)
    plain = run_dynamic_fpss(
        graph, schedule, batch_delivery=batch, verify=False
    )
    assert [b - a for a, b in zip(sent, sent[1:])] == [
        report.reconvergence_messages for report in plain.epochs
    ]


@pytest.mark.parametrize("shared", [True, False], ids=["pooled", "own-logs"])
@pytest.mark.parametrize("seed,size", CASES[:3])
def test_wrong_data1_entry_forks_and_spares_the_principal(seed, size, shared):
    graph, schedule = make_case(seed, size)
    principal = sorted(graph.nodes, key=repr)[0]
    checker = graph.neighbors(principal)[0]

    def wrong_data1(epoch, nodes):
        if epoch != 1:
            return
        view = nodes[checker].anchor_view

        def wrong_view(about):
            neighbors, cost, changes = view(about)
            if about == principal:
                changes += ((principal, cost + 1.0),)
            return neighbors, cost, changes

        nodes[checker].anchor_view = wrong_view

    honest, _ = checked_run(graph, schedule, shared, True)
    run, _ = checked_run(graph, schedule, shared, True, inject=wrong_data1)
    mirror = run.nodes[checker].mirrors.get(principal)
    if mirror is not None:  # still linked at the end of the run
        assert mirror.private_kernel_stats() is not None
    if shared:
        assert run.kernel_stats().forks >= 1
    node, twin = run.nodes[principal], honest.nodes[principal]
    assert node.replay_log.ops == twin.replay_log.ops
    assert node.comp.full_digest() == twin.comp.full_digest()


@pytest.mark.parametrize("seed,size", CASES[:3])
def test_swapped_principal_stops_leading(seed, size):
    graph, schedule = make_case(seed, size)
    target = sorted(graph.nodes, key=repr)[0]
    deviant = _deviant_class(
        FaithfulRoutingNode, DEVIATION_CATALOGUE["false-route-announce"]
    )
    led = []

    def swap(epoch, nodes):
        pool = nodes[target].mirror_pool
        led.append(nodes[target].replay_log is pool.shared_log(target))
        if epoch == 2:
            nodes[target].__class__ = deviant
            nodes[target]._handlers.clear()

    run, _ = checked_run(graph, schedule, True, True, inject=swap)
    # Led through epochs 0 and 1; writes a log of its own after epoch 2.
    assert led == [True, True, False]
    pool = run.pool
    node = run.nodes[target]
    pooled = pool.shared_log(target)
    assert not pooled.led
    assert node.replay_log is not pooled and node.replay_log.led
    assert node.comp is node.replay_log.kernel
    for node_id, other in run.nodes.items():
        if node_id != target:
            assert other.replay_log is pool.shared_log(node_id)
            assert other.comp is other.replay_log.kernel
