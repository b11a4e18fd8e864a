"""E8 — Construction-phase convergence (Griffin-Wilfong premise).

FPSS assumes the static abstract-BGP model, under which both
construction phases converge.  These benchmarks measure the protocol
engine's convergence work on sparse AS-like random biconnected graphs
(constant expected extra degree, matching real interdomain topologies,
instead of the default quadratic chord densification) and verify every
converged fixed point against the centralized oracle.

The engine measured is the protocol's only one: batched delivery plus
delta recomputation — one relaxation per node per flooding round, work
proportional to actual table churn.

The curve runs 16/32/64 plus a single 128-node cell in the default
tier and extends to 96 and 256 nodes behind the ``slow`` marker.
Regression gates are counter-based (messages and mechanism
computations are exact for a given graph; wall seconds on a shared
runner are not): the work curve must stay within the expected
near-quadratic envelope.
"""

import math
import random
import time

import pytest

from repro.analysis import render_table
from repro.routing import run_plain_fpss, verify_against_oracle
from repro.workloads import random_biconnected_graph

#: Incremental-engine curve (default tier) and its slow-tier extension.
SIZES = (16, 32, 64)
SLOW_SIZES = (96, 256)

#: Counter envelope for one size doubling on the sparse-graph family:
#: messages and computations grow ~4x per doubling (quadratic in n at
#: constant expected degree).  A factor of 8 flags a lost-incrementality
#: regression while leaving room for legitimate engine changes; counters
#: are exact per graph, so this gate cannot flake with machine load the
#: way wall bounds did.
DOUBLING_FACTOR = 8.0


def sparse_graph(size, seed=5):
    """AS-like sparse biconnected graph: Hamiltonian cycle + ~2 extra
    chords per node (expected degree ~6) regardless of size."""
    rng = random.Random(seed * 100 + size)
    return random_biconnected_graph(
        size, rng, extra_edge_prob=4.0 / (size - 1)
    )


def run_engine(graph):
    """One timed convergence run; returns (wall seconds, stats, nodes)."""
    started = time.perf_counter()
    _, nodes, stats = run_plain_fpss(graph)
    elapsed = time.perf_counter() - started
    return elapsed, stats, nodes


def measure_curve(sizes, seed=5):
    rows = []
    for size in sizes:
        graph = sparse_graph(size, seed=seed)
        elapsed, stats, nodes = run_engine(graph)
        verify_against_oracle(graph, nodes)
        rows.append(
            {
                "size": size,
                "edges": len(graph.edges),
                "seconds": elapsed,
                "phase1_events": stats.phase1_events,
                "phase2_events": stats.phase2_events,
                "messages": stats.total_messages,
                "computations": stats.total_computations,
            }
        )
    return rows


def print_curve(rows, title):
    print()
    print(
        render_table(
            ["n", "edges", "seconds", "phase-1 ev", "phase-2 ev",
             "messages", "computations"],
            [
                [r["size"], r["edges"], round(r["seconds"], 3),
                 r["phase1_events"], r["phase2_events"],
                 r["messages"], r["computations"]]
                for r in rows
            ],
            title=title,
        )
    )


def assert_counter_envelope(rows):
    """Work grows with n but stays inside the doubling envelope."""
    for smaller, larger in zip(rows, rows[1:]):
        assert larger["messages"] > smaller["messages"]
        doublings = math.log2(larger["size"] / smaller["size"])
        bound = DOUBLING_FACTOR ** doublings
        assert larger["messages"] < bound * smaller["messages"]
        assert larger["computations"] < bound * smaller["computations"]


def test_bench_convergence(benchmark):
    """Incremental engine at 16/32/64 (oracle-verified, counter-gated).

    The former five-second wall bound on the 64-node run is replaced
    by the counter envelope: convergence always happened
    (verify_against_oracle would raise) and the per-doubling work
    growth is exact and load-independent.
    """
    rows = benchmark.pedantic(
        lambda: measure_curve(SIZES), rounds=1, iterations=1
    )
    print_curve(rows, "E8: incremental engine, events to quiescence")
    assert_counter_envelope(rows)


def test_bench_convergence_128():
    """Default-tier 128-node plain convergence (oracle-verified).

    One cell, counter-gated against the measured 64-node curve point
    by the same doubling envelope; no wall bound.
    """
    rows = measure_curve(SIZES[-1:] + (128,))
    print_curve(rows, "E8: incremental engine, 128-node default-tier cell")
    assert_counter_envelope(rows)


@pytest.mark.slow
def test_bench_convergence_slow_tier():
    """Slow-tier extension of the incremental curve (96 and 256)."""
    rows = measure_curve(SLOW_SIZES)
    print_curve(rows, "E8: incremental engine, slow tier")
    assert_counter_envelope(rows)


def test_bench_figure1_convergence(benchmark, fig1):
    """Single-instance convergence timing on the paper's network."""

    def run():
        _, nodes, stats = run_plain_fpss(fig1)
        return nodes, stats

    nodes, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    verify_against_oracle(fig1, nodes)
    assert stats.phase1_events > 0
