"""Checked-network convergence: shared replay kernel vs per-neighbour.

Reproduces: the checker overhead discussion of Sections 3.9/4.3
(PODC'04).  A *checked* network is a fully mirrored faithful
construction — every node replays all of its neighbours — which is the
paper's actual deployment shape and, before the shared replay kernel,
the repository's scaling bottleneck: each of a principal's k checkers
replayed the identical broadcast stream independently, ~O(deg²)
redundant relaxations per network.

Three gates:

* a *dedup gate* (default tier): on the same graph, the shared kernel
  must do strictly fewer checker-side relaxations than the
  per-neighbour oracle path (none at all on an honest run, where every
  principal leads its checkers' log), with bit-identical digests and
  zero flags either way — a counter comparison, not a wall-clock race;
* a *coalescing gate* (default tier): checker-copy traffic is counted
  per batch bundle, and must land strictly below the per-copy message
  count the pre-coalescing implementation would have produced (the
  ``uncoalesced_copy_sends`` ledger), so the paper-facing
  message-complexity curve reflects coalesced batches;
* a *scale gate*: checked 64-node convergence, verified against the
  Dijkstra oracle and its digest-exact fixed point, inside the
  ten-second acceptance bound; 128 nodes runs in the default tier on
  counter gates only, and 256 nodes extends the curve behind the
  ``slow`` marker (nightly CI runs ``-m slow``).
"""

import gc
import os
import random
import time

import pytest

from repro.analysis import render_table
from repro.faithful import run_checked_construction, verify_checked_network
from repro.faithful.node import KIND_CHECKER_COPY
from repro.routing import verify_epoch_equivalence
from repro.workloads import random_biconnected_graph

#: The checked 64-node acceptance number.  With each obedient principal
#: leading its checkers' replay log, the run takes 0.4-0.6 s standalone
#: on a shared 2-vCPU x86-64 VM under Python 3.11 (0.7-1.3 s when every
#: principal kept a second kernel, 2-4 s per-neighbour); 128 nodes take
#: 2.4-3.1 s (4-6.5 s before) and 256 take 16-19 s (26-36 s before).
ACCEPTANCE_64 = 10.0
#: The tier gate adds 50% headroom on top: late in a pytest session
#: the same run costs more (fragmented heap, warmed caches), and the
#: bound only catches a gross slowdown — lost sharing, lost coalescing
#: and false flags are gated by exact counters below.
#: REPRO_BENCH_TIME_SCALE widens it further on slower CI runners.
BOUND_64 = 1.5 * ACCEPTANCE_64 * float(os.environ.get("REPRO_BENCH_TIME_SCALE", "1"))

#: Size for the shared-vs-per-neighbour dedup gate (the per-neighbour
#: leg is the expensive one; 24 keeps both legs comfortably inside the
#: default tier's latency budget).
COMPARE_SIZE = 24


def sparse_graph(size, seed=5):
    """AS-like sparse biconnected graph: Hamiltonian cycle + ~2 extra
    chords per node (expected degree ~6), as in the convergence bench."""
    rng = random.Random(seed * 100 + size)
    return random_biconnected_graph(
        size, rng, extra_edge_prob=4.0 / (size - 1)
    )


def assert_copies_coalesced(checked):
    """The per-batch (not per-copy) message-count gate.

    ``uncoalesced_copy_sends`` is what per-copy forwarding would have
    transmitted (one message per forwarded copy per checker); the
    actual checker-copy message count must sit strictly below it on
    any batched run, or the coalescing has silently stopped working
    and the message-complexity curve is inflated again.
    """
    copy_messages = checked.simulator.metrics.messages_of_kind(
        KIND_CHECKER_COPY
    )
    uncoalesced = checked.metrics["uncoalesced_copy_sends"]
    assert 0 < copy_messages < uncoalesced
    return copy_messages, uncoalesced


def run_checked(graph, shared):
    # Freeze the suite's accumulated heap out of the cyclic collector:
    # a checked run allocates millions of short-lived tuples, and gen-2
    # collections over unrelated long-lived objects would otherwise
    # dominate the measured wall time late in a pytest session.
    gc.collect()
    gc.freeze()
    started = time.perf_counter()
    try:
        checked = run_checked_construction(graph, shared_checking=shared)
    finally:
        elapsed = time.perf_counter() - started
        gc.unfreeze()
    return elapsed, checked


def test_bench_checked_convergence_64(benchmark):
    """Scale gate: checked 64-node convergence in the default tier.

    The run is deterministic; the wall clock is not.  A first attempt
    that misses the bound is re-timed once and the better time gates,
    so a transient CPU burst on a shared machine cannot fail the tier
    while a genuine engine regression still does.
    """
    graph = sparse_graph(64, seed=1)
    elapsed, checked = benchmark.pedantic(
        lambda: run_checked(graph, shared=True), rounds=1, iterations=1
    )
    if elapsed >= BOUND_64:
        retry_elapsed, checked = run_checked(graph, shared=True)
        elapsed = min(elapsed, retry_elapsed)
    verify_checked_network(graph, checked)
    verify_epoch_equivalence(graph, checked.nodes)
    print()
    print(
        render_table(
            ["n", "edges", "seconds", "phase-2 ev", "checker comps",
             "shared hits", "rows ingested"],
            [[64, len(graph.edges), round(elapsed, 3),
              checked.phase2_events,
              checked.metrics["total_checker_computations"],
              checked.kernel_stats.shared_hits,
              checked.kernel_stats.rows_ingested + sum(
                  node.comp.stats.rows_ingested
                  for node in checked.nodes.values()
              )]],
            title="Checked 64-node convergence (shared kernel, "
            "oracle + fixed-point digests verified)",
        )
    )
    assert not checked.flags
    assert_copies_coalesced(checked)
    assert elapsed < BOUND_64


def test_bench_shared_vs_per_neighbour(benchmark):
    """Dedup gate: sharing must beat per-neighbour replay on counters."""
    graph = sparse_graph(COMPARE_SIZE)

    def run():
        shared_s, shared = run_checked(graph, shared=True)
        private_s, private = run_checked(graph, shared=False)
        return shared_s, shared, private_s, private

    shared_s, shared, private_s, private = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    for checked in (shared, private):
        verify_checked_network(graph, checked)
    # Digest parity is bit-exact across modes.
    for node_id in shared.nodes:
        assert (
            shared.nodes[node_id].comp.full_digest()
            == private.nodes[node_id].comp.full_digest()
        )
    shared_comps = shared.metrics["total_checker_computations"]
    private_comps = private.metrics["total_checker_computations"]
    stats = shared.kernel_stats
    print()
    print(
        render_table(
            ["mode", "seconds", "checker comps", "shared hits", "forks"],
            [
                ["shared", round(shared_s, 3), shared_comps,
                 stats.shared_hits, stats.forks],
                ["per-neighbour", round(private_s, 3), private_comps, 0, 0],
                # Shared checker comps read 0 on an honest run (every
                # principal leads its log), so no comps ratio is shown.
                ["speedup", round(private_s / max(shared_s, 1e-9), 1),
                 "", "", ""],
            ],
            title=f"Checked {COMPARE_SIZE}-node construction: "
            f"shared kernel vs per-neighbour replay",
        )
    )
    # Deterministic gate: the dedup eliminates checker relaxations.
    # (The former wall-clock race shared_s < private_s is gone — on a
    # loaded runner it measured scheduler noise; the counters are the
    # regression signal and they are exact.)
    assert shared_comps < private_comps
    assert stats.shared_hits > 0 and stats.forks == 0
    # Coalescing gate: copy traffic is per-batch in both modes, and
    # the copy stream is a protocol property, identical whether the
    # checkers share a kernel or replay per-neighbour.
    shared_copy_msgs, _ = assert_copies_coalesced(shared)
    private_copy_msgs, _ = assert_copies_coalesced(private)
    assert shared_copy_msgs == private_copy_msgs
    assert (
        shared.metrics["total_messages"] == private.metrics["total_messages"]
    )


def test_bench_checked_convergence_128():
    """Default-tier 128-node checked convergence, counter-gated.

    No wall-clock bound: the run is long on a loaded single-core
    runner, and the regressions this cell guards — lost sharing
    (forks), lost coalescing (per-copy messaging), detection false
    positives — are all exact counters.
    """
    graph = sparse_graph(128)
    elapsed, checked = run_checked(graph, shared=True)
    verify_checked_network(graph, checked)
    copy_msgs, uncoalesced = assert_copies_coalesced(checked)
    print()
    print(
        render_table(
            ["n", "edges", "seconds", "phase-2 ev", "checker comps",
             "shared hits", "copy msgs", "uncoalesced"],
            [[128, len(graph.edges), round(elapsed, 3),
              checked.phase2_events,
              checked.metrics["total_checker_computations"],
              checked.kernel_stats.shared_hits,
              copy_msgs, uncoalesced]],
            title="Checked 128-node convergence (default tier)",
        )
    )
    assert not checked.flags
    assert checked.kernel_stats.forks == 0
    assert checked.kernel_stats.shared_hits > 0


@pytest.mark.slow
def test_bench_checked_convergence_256():
    """Slow-tier extension: checked 256-node convergence (nightly)."""
    graph = sparse_graph(256)
    elapsed, checked = run_checked(graph, shared=True)
    verify_checked_network(graph, checked)
    copy_msgs, uncoalesced = assert_copies_coalesced(checked)
    print()
    print(
        render_table(
            ["n", "edges", "seconds", "phase-2 ev", "checker comps",
             "shared hits", "copy msgs", "uncoalesced"],
            [[256, len(graph.edges), round(elapsed, 3),
              checked.phase2_events,
              checked.metrics["total_checker_computations"],
              checked.kernel_stats.shared_hits,
              copy_msgs, uncoalesced]],
            title="Checked 256-node convergence (slow tier)",
        )
    )
    assert not checked.flags
    assert checked.kernel_stats.forks == 0
