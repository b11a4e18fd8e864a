"""E13 — Settlement at scale: columnar bank and epoch netting.

The batched bank's economic premise: a central bank that settles every
flow with its own transfer record cannot scale past toy networks, so
the columnar engine groups observation rows per flow and the netting
ledger collapses an epoch's obligations into one lump-sum batch
transfer per debtor.  These benchmarks gate the compression, not the
clock: the default tier demands netted output at least 10x smaller
than the per-flow transfer list on a 64-node epoch, and the nightly
tier pushes a million-plus flows through one settle and checks the
batch-transfer count against the principal-pair count.  Every cell
also re-derives net money positions both ways and requires them
bit-identical — compression must never move money.  Forced
settlement over the netted ledger is gated by its audit-visit counter:
one pass reads every obligation and every payout once (trace length
plus payout rows), not once per principal pair.
"""

import csv
import math
import os
import random
import time

import pytest

from repro.analysis import render_table
from repro.faithful import BankNode, net_positions, synthesize_execution_reports
from repro.workloads import random_biconnected_graph, uniform_all_pairs

from conftest import once

#: Default-tier cell, and the nightly slow-tier extension.  The slow
#: cell's 256 nodes give 65,280 ordered principal pairs; 16 repeated
#: flows per pair cross the million-flow line in a single settle.
SIZE, REPEATS = 64, 4
SLOW_SIZE, SLOW_REPEATS = 256, 16

#: Forced settlement after a netted settle: default-tier and nightly
#: cell sizes.
FORCED_SIZE, FORCED_SLOW_SIZE = 64, 128

#: Sizes swept by the nightly settlement-compression curve.
CURVE_SIZES = (16, 32, 64, 128)

#: Acceptance bound for the default-tier settle (seconds) on the
#: development machine; CI widens via REPRO_BENCH_TIME_SCALE.
BOUND_64 = 10.0 * float(os.environ.get("REPRO_BENCH_TIME_SCALE", "1"))


def sparse_graph(size, seed=7):
    """AS-like sparse biconnected graph (constant expected extra degree)."""
    rng = random.Random(seed * 100 + size)
    return random_biconnected_graph(
        size, rng, extra_edge_prob=4.0 / (size - 1)
    )


def run_settle_cell(size, repeats, tolerance=1e-9):
    """One netted settle over synthesized honest reports; returns its
    measured row plus the settlement object for gate assertions."""
    graph = sparse_graph(size)
    traffic = uniform_all_pairs(graph)
    reports = synthesize_execution_reports(graph, traffic, repeats=repeats)
    bank = BankNode()
    bank.reports["execution"] = reports
    node_ids = tuple(sorted(graph.nodes, key=repr))
    declared = {n: graph.cost(n) for n in node_ids}
    started = time.perf_counter()
    netted = bank.settle_netted(node_ids, declared, tolerance=tolerance)
    elapsed = time.perf_counter() - started
    per_flow_positions = net_positions(
        netted.per_flow_transfers, nodes=node_ids
    )
    netted_positions = net_positions(netted.transfers, nodes=node_ids)
    drift = max(
        abs(netted_positions[n] - per_flow_positions[n]) for n in node_ids
    )
    principal_pairs = {
        tuple(sorted((payer, payee), key=repr))
        for payer, payee, _amount in netted.per_flow_transfers
    }
    row = {
        "size": size,
        "flows_settled": netted.flows_settled,
        "flow_groups": netted.flow_groups,
        "transfer_records": netted.transfer_records,
        "net_payouts": netted.net_payouts,
        "net_transfers": len(netted.transfers),
        "principal_pairs": len(principal_pairs),
        "netting_ratio": netted.transfer_records / max(1, netted.net_payouts),
        "drift": drift,
        "seconds": elapsed,
    }
    return row, netted


def assert_forced_linear(size):
    """settle_netted on ``size`` nodes (one repeat), then one forced
    pass, gated on its audit-visit counter; prints the pass's seconds."""
    graph = sparse_graph(size)
    reports = synthesize_execution_reports(graph, uniform_all_pairs(graph))
    bank = BankNode()
    bank.reports["execution"] = reports
    node_ids = tuple(sorted(graph.nodes, key=repr))
    netted = bank.settle_netted(node_ids, {n: graph.cost(n) for n in node_ids})
    ledger = netted.ledger
    payouts = sum(len(t.payouts) for t in ledger.transfers)
    started = time.perf_counter()
    outcomes = bank.run_forced_settlement(ledger, at_time=0.0)
    elapsed = time.perf_counter() - started
    print(
        f"\nforced settlement, {size} nodes: {len(ledger.trace)} obligations, "
        f"{payouts} payouts, {ledger.audit_term_visits} audit visits, "
        f"{elapsed:.3f} s"
    )
    # Every pair was settled by the epoch close: nothing to enforce.
    assert outcomes == []
    assert ledger.audit_term_visits == len(ledger.trace) + payouts


def test_forced_settlement_visits_64():
    """64 nodes: one forced pass visits trace length plus payouts."""
    assert_forced_linear(FORCED_SIZE)


@pytest.mark.slow
def test_forced_settlement_visits_128():
    """Nightly: the 128-node pass, counter-gated; prints its seconds."""
    assert_forced_linear(FORCED_SLOW_SIZE)


def print_rows(rows, title):
    print()
    print(
        render_table(
            ["n", "flows", "groups", "records", "payouts", "batches",
             "pairs", "ratio", "seconds"],
            [[row["size"], row["flows_settled"], row["flow_groups"],
              row["transfer_records"], row["net_payouts"],
              row["net_transfers"], row["principal_pairs"],
              round(row["netting_ratio"], 1), round(row["seconds"], 3)]
             for row in rows],
            title=title,
        )
    )


def test_bench_settle_dedup_64(benchmark):
    """64-node epoch: netting emits >= 10x fewer transfer records than
    per-flow settlement, one batch per debtor, zero money drift."""
    row, netted = once(benchmark, run_settle_cell, SIZE, REPEATS)
    print_rows([row], "E13: batched settlement (default tier)")
    assert netted.flags == []
    assert row["flows_settled"] == REPEATS * row["flow_groups"]
    # The dedup gate: the batch-transfer payout list must be at least
    # an order of magnitude smaller than the per-flow transfer list.
    assert row["net_payouts"] * 10 <= row["transfer_records"]
    # One lump-sum transfer per net debtor, at most one per node.
    assert row["net_transfers"] <= SIZE
    # Compression never moves money: positions are bit-identical.
    assert row["drift"] == 0.0
    assert row["seconds"] < BOUND_64


@pytest.mark.slow
def test_bench_settle_million_flows():
    """Nightly slow-tier cell: a million-plus flows through one settle.

    Counter-gated, not wall-time-gated: the claim is that one epoch's
    netted output stays bounded by the principal-pair population no
    matter how many flows ran.  The wider tolerance absorbs the
    fsum-grouping ulp spread of seven-digit money totals; it gates
    flag noise, not money movement (the drift gate stays exact).
    """
    row, netted = run_settle_cell(SLOW_SIZE, SLOW_REPEATS, tolerance=1e-6)
    print_rows([row], "E13: batched settlement (slow tier)")
    assert row["flows_settled"] >= 1_000_000
    assert netted.flags == []
    # The batch-transfer count is bounded by the principals that
    # actually exchanged money, and by the node population.
    assert row["net_transfers"] <= row["principal_pairs"]
    assert row["net_transfers"] <= SLOW_SIZE
    assert row["netting_ratio"] >= 10.0
    assert row["drift"] == 0.0
    # Money conservation at scale: a closed system nets to ~zero.
    positions = net_positions(netted.transfers)
    assert math.fsum(positions.values()) == pytest.approx(0.0, abs=1e-6)


@pytest.mark.slow
def test_settlement_curve(tmp_path):
    """Nightly compression curve: netting ratio grows with size.

    Writes the CSV consumed by the CI artifact upload; point
    REPRO_SETTLEMENT_CURVE at a path to keep it, otherwise it lands
    in the test's tmp directory.
    """
    rows = []
    for size in CURVE_SIZES:
        row, netted = run_settle_cell(size, REPEATS)
        assert netted.flags == []
        assert row["drift"] == 0.0
        rows.append(row)
    print_rows(rows, "E13: settlement compression curve")
    target = os.environ.get(
        "REPRO_SETTLEMENT_CURVE", str(tmp_path / "settlement_curve.csv")
    )
    fields = ["size", "flows_settled", "transfer_records", "net_payouts",
              "net_transfers", "netting_ratio"]
    with open(target, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    # Netting keeps getting better as the epoch grows: the ratio is
    # monotone non-decreasing across the curve.
    ratios = [row["netting_ratio"] for row in rows]
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))
    assert all(row["netting_ratio"] >= 2.0 for row in rows)
