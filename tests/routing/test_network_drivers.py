"""Every network driver runs the same construction.

Reproduces: the two construction phases of Shneidman & Parkes (PODC'04)
Section 4 — DATA1 flooded to quiescence, then DATA2/DATA3* relaxed to
quiescence — which every driver of the repository runs: the plain
convergence helper, the plain mechanism, the dynamic-topology engine,
the checked construction and the checked churn runner's epoch 0.  Built
on one graph they must dispatch the same events in the same order, so
their phase event counts, work counters, per-node digests and (checked)
encoded flags agree exactly, under batched and unbatched delivery
alike.  A driver that schedules the phase starts in another order, or
builds its network differently, fails here first.
"""

import random

import pytest

import repro.faithful.protocol as protocol
from repro.faithful import (
    DEVIATION_CATALOGUE,
    PlainFPSSProtocol,
    faithful_deviant_factory,
    run_checked_construction,
)
from repro.faithful.epochs import run_checked_churn
from repro.faithful.node import encode_flag
from repro.faithful.audit import Flag
from repro.routing import DynamicTopologyEngine, FPSSNode, run_plain_fpss
from repro.sim.churn import ChurnSchedule
from repro.workloads import random_biconnected_graph

COST_RANGES = {"unit": (1.0, 1.0), "float": (1.0, 10.0)}
CASES = [(seed, costs) for seed in (1, 2, 3) for costs in COST_RANGES]
BATCH = pytest.mark.parametrize(
    "batch", [True, False], ids=["batched", "unbatched"]
)


def make_graph(seed, costs):
    rng = random.Random(seed)
    return random_biconnected_graph(
        rng.randint(8, 12), rng, extra_edge_prob=0.3,
        cost_range=COST_RANGES[costs],
    )


def node_digests(nodes):
    return {repr(n): node.comp.full_digest() for n, node in nodes.items()}


def mirror_digests(nodes):
    return {
        (repr(n), repr(p)): mirror.comp.full_digest()
        for n, node in nodes.items()
        for p, mirror in node.mirrors.items()
        if mirror.comp is not None
    }


@BATCH
@pytest.mark.parametrize("seed,costs", CASES)
def test_plain_drivers_agree(seed, costs, batch, monkeypatch):
    graph = make_graph(seed, costs)
    simulator, nodes, stats = run_plain_fpss(graph, batch_delivery=batch)

    built = {}

    def recording_factory(node_id, cost):
        built[node_id] = FPSSNode(node_id, cost)
        return built[node_id]

    # The plain mechanism takes no delivery option: build it in ``batch``.
    build = protocol.build_network
    monkeypatch.setattr(
        protocol, "build_network",
        lambda graph, make_node, delays: build(graph, make_node, delays, batch),
    )
    result = PlainFPSSProtocol(graph, {}, node_factory=recording_factory).run()

    engine = DynamicTopologyEngine(graph, verify=False, batch_delivery=batch)
    engine_stats = engine.converge()

    assert (engine_stats.phase1_events, engine_stats.phase2_events) == (
        stats.phase1_events, stats.phase2_events
    )
    assert result.construction_events == stats.total_events
    summary = simulator.metrics.summary()
    assert result.metrics == summary
    assert engine.simulator.metrics.summary() == summary
    digests = node_digests(nodes)
    assert node_digests(built) == digests
    assert node_digests(engine.nodes) == digests


@BATCH
@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("seed,costs", CASES)
def test_checked_construction_is_churn_epoch_zero(seed, costs, shared, batch):
    graph = make_graph(seed, costs)
    checked = run_checked_construction(
        graph, shared_checking=shared, batch_delivery=batch
    )
    run = run_checked_churn(
        graph, ChurnSchedule(epochs=()), shared_checking=shared,
        batch_delivery=batch, verify=False,
    )
    initial = run.initial
    assert (initial.phase1_events, initial.phase2_events) == (
        checked.phase1_events, checked.phase2_events
    )
    assert run.simulator.metrics.summary() == checked.metrics
    assert node_digests(run.nodes) == node_digests(checked.nodes)
    assert mirror_digests(run.nodes) == mirror_digests(checked.nodes)
    encoded = [encode_flag(f) for f in sorted(checked.flags, key=Flag.sort_key)]
    assert initial.flags == encoded


@BATCH
@pytest.mark.parametrize("shared", [True, False])
def test_checked_drivers_agree_on_a_deviant(shared, batch):
    """Flags too: one deviant principal raises the same encoded flags
    through both checked drivers."""
    graph = make_graph(1, "float")
    target = sorted(graph.nodes, key=repr)[0]
    factory = faithful_deviant_factory(
        DEVIATION_CATALOGUE["false-route-announce"], target
    )
    checked = run_checked_construction(
        graph, shared_checking=shared, node_factory=factory,
        batch_delivery=batch,
    )
    run = run_checked_churn(
        graph, ChurnSchedule(epochs=()), shared_checking=shared,
        node_factory=factory, batch_delivery=batch, verify=False,
    )
    assert checked.flags
    encoded = [encode_flag(f) for f in sorted(checked.flags, key=Flag.sort_key)]
    assert run.initial.flags == encoded
    assert (run.initial.phase1_events, run.initial.phase2_events) == (
        checked.phase1_events, checked.phase2_events
    )
    assert run.simulator.metrics.summary() == checked.metrics

