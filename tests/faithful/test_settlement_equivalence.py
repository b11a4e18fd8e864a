"""Per-flow vs. columnar vs. netted settlement equivalence.

The columnar engine behind :meth:`BankNode.settle` and the epoch
netting behind :meth:`BankNode.settle_netted` are pure performance
reworks: both must produce *bit-identical* settlement records, flag
lists, and per-node net money positions to the per-flow oracle
(:meth:`BankNode.settle_per_flow`) on every input — honest traffic,
every catalogued manipulation, and reports collected across churn
epochs.  Both engines feed the same fsum-reduced contribution tally,
so equality here is exact ``==``, never ``approx``.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faithful import (
    DEVIATION_CATALOGUE,
    BankNode,
    FlagKind,
    FaithfulFPSSProtocol,
    faithful_deviant_factory,
    net_positions,
    settlement_audit,
    synthesize_execution_reports,
)
from repro.faithful.epochs import run_checked_churn
from repro.routing import figure1_graph
from repro.sim.churn import ChurnEvent, ChurnSchedule
from repro.workloads import random_biconnected_graph, uniform_all_pairs

GRAPH = figure1_graph()
TRAFFIC = uniform_all_pairs(GRAPH)
TARGET = "C"  # the paper's Example 1 manipulator


def reference_transfers(reports, node_ids, declared_costs):
    """The per-flow transfer triples in settle order, one row at a time.

    Rows are grouped by their raw (origin, destination, path) in
    first-seen order over the repr-sorted checkers; each row pays its
    carried transits in path order, then — when the walk broke — the
    culprit reimburses the off-path carriers in ``node_ids`` order.
    """
    receipts = {}
    for node in node_ids:
        for origin, destination, sender, volume in reports.get(node, {}).get(
            "receipts", ()
        ):
            receipts.setdefault((node, origin, destination), {})[sender] = volume

    def received(node, flow, sender):
        return receipts.get((node, *flow), {}).get(sender, 0.0)

    groups = {}
    for checker in sorted(node_ids, key=repr):
        for row in reports.get(checker, {}).get("observations", ()):
            origin, destination, _volume, path, _charges = row
            groups.setdefault((origin, destination, tuple(path)), []).append(row)

    triples = []
    for (origin, destination, path), rows in groups.items():
        flow = (origin, destination)
        culprit = next(
            (
                previous
                for previous, node in zip(path, path[1:])
                if received(node, flow, previous) <= 0
            ),
            None,
        )
        carried = [
            path[index]
            for index in range(1, len(path) - 1)
            if received(path[index + 1], flow, path[index]) > 0
        ]
        off_path = []
        if culprit is not None:
            for node in node_ids:
                if node in path or node == destination:
                    continue
                volume_in = math.fsum(receipts.get((node, *flow), {}).values())
                if volume_in > 0:
                    off_path.append((node, declared_costs.get(node, 0.0) * volume_in))
        for *_row, charges in rows:
            charge_map = dict(charges)
            triples.extend(
                (origin, transit, charge_map.get(transit, 0.0)) for transit in carried
            )
            triples.extend((culprit, node, amount) for node, amount in off_path)
    return triples


def assert_engines_equivalent(bank, node_ids, declared_costs, epsilon):
    """All three settlement paths agree exactly on the same reports."""
    per_flow_records, per_flow_flags = bank.settle_per_flow(
        node_ids, declared_costs, epsilon=epsilon
    )
    columnar_records, columnar_flags = bank.settle(
        node_ids, declared_costs, epsilon=epsilon
    )
    assert columnar_records == per_flow_records
    assert columnar_flags == per_flow_flags

    netted = bank.settle_netted(node_ids, declared_costs, epsilon=epsilon)
    assert netted.records == per_flow_records
    assert netted.flags == per_flow_flags

    # Netting compresses the transfer list but must not move money:
    # net positions of the batch transfers are bit-identical to the
    # per-flow transfer list's (same pair-grouped fsum reduction).
    per_flow_positions = net_positions(
        netted.per_flow_transfers, nodes=node_ids
    )
    netted_positions = net_positions(netted.transfers, nodes=node_ids)
    assert netted_positions == per_flow_positions

    # The flat per-flow view iterates to the reference triples, in order.
    assert list(netted.per_flow_transfers) == reference_transfers(
        bank.reports["execution"], node_ids, declared_costs
    )
    assert len(netted.per_flow_transfers) == len(
        list(netted.per_flow_transfers)
    )

    # The compact per-flow view carries exactly the amounts the per-flow
    # oracle credits: each node's received amounts, reimbursement rows
    # included, sum to its record bit for bit.
    received = {n: [] for n in node_ids}
    for _payer, payee, amount in netted.per_flow_transfers:
        received[payee].append(amount)
    for node_id in node_ids:
        assert math.fsum(received[node_id]) == (
            per_flow_records[node_id].received
        )

    # After the epoch close, every pair's audited unpaid balance is
    # exactly zero — the batch transfer discharged the whole epoch.
    trace = list(netted.ledger.trace)
    for transfer in netted.transfers:
        for payee, _amount in transfer.payouts:
            report = settlement_audit(
                trace,
                netted.ledger.transfers,
                transfer.debtor,
                payee,
                at_time=0.0,
            )
            assert report.unpaid == 0.0
    return netted


def resettle(protocol):
    """Re-run settlement over the reports a protocol run collected."""
    bank = protocol.bank
    assert bank is not None and protocol.nodes is not None
    if "execution" not in bank.reports:
        return None  # run never reached settlement (no-progress outcome)
    node_ids = tuple(sorted(protocol.nodes, key=repr))
    declared = {
        n: protocol.nodes[n].comp.costs.cost(n)
        for n in node_ids
        if protocol.nodes[n].comp is not None
    }
    return assert_engines_equivalent(
        bank, node_ids, declared, protocol.epsilon
    )


class TestObedientEquivalence:
    def test_figure1_obedient(self):
        protocol = FaithfulFPSSProtocol(GRAPH, TRAFFIC)
        protocol.run()
        netted = resettle(protocol)
        assert netted is not None
        assert netted.flags == []
        assert netted.flows_settled > 0
        # Batch transfers: at most one per debtor principal.
        assert len(netted.transfers) <= len(GRAPH.nodes)

    def test_grouping_collapses_repeated_flows(self):
        reports = synthesize_execution_reports(GRAPH, TRAFFIC, repeats=5)
        bank = BankNode()
        bank.reports["execution"] = reports
        node_ids = tuple(sorted(GRAPH.nodes, key=repr))
        declared = {n: GRAPH.cost(n) for n in node_ids}
        netted = assert_engines_equivalent(bank, node_ids, declared, 0.01)
        assert netted.flows_settled == 5 * netted.flow_groups


@pytest.mark.parametrize("name", sorted(DEVIATION_CATALOGUE))
class TestCatalogueEquivalence:
    """Every catalogued manipulation settles identically on all paths."""

    def test_deviant_run_equivalent(self, name):
        protocol = FaithfulFPSSProtocol(
            GRAPH,
            TRAFFIC,
            node_factory=faithful_deviant_factory(
                DEVIATION_CATALOGUE[name], TARGET
            ),
        )
        protocol.run()
        resettle(protocol)  # None (no execution) is a valid outcome


class TestRandomizedEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        size=st.integers(min_value=4, max_value=12),
        repeats=st.integers(min_value=1, max_value=3),
    )
    def test_synthesized_reports_equivalent(self, seed, size, repeats):
        rng = random.Random(seed)
        graph = random_biconnected_graph(size, rng)
        traffic = uniform_all_pairs(graph)
        reports = synthesize_execution_reports(
            graph, traffic, repeats=repeats
        )
        bank = BankNode()
        bank.reports["execution"] = reports
        node_ids = tuple(sorted(graph.nodes, key=repr))
        declared = {n: graph.cost(n) for n in node_ids}
        netted = assert_engines_equivalent(bank, node_ids, declared, 0.01)
        assert netted.flags == []
        assert netted.flows_settled == repeats * netted.flow_groups

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_arbitrary_reports_equivalent(self, seed):
        """Reports no honest run produces: certified paths that start
        away from the origin or revisit nodes (self-payment rows), list
        paths, stray receipts and repeated rows, plus ids outside
        ``node_ids`` (interned on demand): receipt senders and flow
        endpoints from one foreign set, path hops from another, so a
        foreign hop is never a paid transit."""
        rng = random.Random(seed)
        node_ids = ("A", "B", "C", "D", "E")
        senders = node_ids + ("X1", "X2")
        hops = node_ids + ("Y1", "Y2")
        reports = {}
        for node in node_ids:
            observations = []
            for _ in range(rng.randint(0, 5)):
                origin, destination = rng.sample(node_ids, 2)
                first = origin if rng.random() < 0.6 else rng.choice(node_ids)
                middle = [rng.choice(hops) for _ in range(rng.randint(0, 3))]
                path = (first, *middle, destination)
                charges = [
                    (transit, rng.choice([0.0, 1.5, 2.25]))
                    for transit in path[1:-1]
                ]
                for _repeat in range(rng.randint(1, 3)):
                    observations.append(
                        (origin, destination, 1.0, list(path), charges)
                    )
            receipts = []
            for _ in range(rng.randint(0, 8)):
                origin, destination = rng.sample(senders, 2)
                sender = rng.choice(senders)
                receipts.append(
                    (origin, destination, sender, rng.choice([0.0, 1.0, 2.0]))
                )
            reports[node] = {
                "observations": observations,
                "receipts": receipts,
                "reported_payments": [],
                "flags": [],
            }
        bank = BankNode()
        bank.reports["execution"] = reports
        declared = {n: rng.choice([1.0, 2.5]) for n in node_ids}
        assert_engines_equivalent(bank, node_ids, declared, 0.01)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_broken_walks_on_a_large_graph(self, seed):
        """Honest 44-node reports with receipt rows dropped (packet
        drops) or moved to another receiver (misroutes): the broken
        walks read the lazily built per-flow receipt index far beyond
        a 5-node alphabet."""
        rng = random.Random(seed)
        graph = random_biconnected_graph(44, rng, extra_edge_prob=4 / 43)
        reports = synthesize_execution_reports(graph, uniform_all_pairs(graph))
        node_ids = tuple(sorted(graph.nodes, key=repr))
        moved = {node: [] for node in node_ids}
        for node in node_ids:
            kept = []
            for row in reports[node]["receipts"]:
                roll = rng.random()
                if roll < 0.03:
                    continue
                if roll < 0.06:
                    moved[rng.choice(node_ids)].append(row)
                else:
                    kept.append(row)
            reports[node]["receipts"] = kept
        for node, rows in moved.items():
            reports[node]["receipts"].extend(rows)
        bank = BankNode()
        bank.reports["execution"] = reports
        declared = {n: graph.cost(n) for n in node_ids}
        netted = assert_engines_equivalent(bank, node_ids, declared, 0.01)
        kinds = {flag.kind for flag in netted.flags}
        assert {FlagKind.MISROUTE, FlagKind.PACKET_DROP} <= kinds


class TestChurnNetting:
    def test_epochs_net_and_conserve(self):
        schedule = ChurnSchedule(
            epochs=(
                (ChurnEvent(kind="cost", node="C", cost=3.0),),
                (ChurnEvent(kind="link-up", link=("A", "C")),),
            )
        )
        run = run_checked_churn(GRAPH, schedule, traffic=TRAFFIC)
        assert run.ledger is not None
        node_count = len(run.nodes)
        epochs = [run.initial] + run.epochs
        for report in epochs:
            assert report.routed_flows > 0
            # One batch transfer per net debtor, at most one per node.
            assert report.net_transfers <= node_count
            assert report.per_flow_transfers >= report.net_payouts
        assert run.ledger.epochs_closed == len(epochs)
        # The whole run conserves money: the obligation trace and the
        # batch transfers net to bit-identical positions.
        node_ids = tuple(sorted(run.nodes, key=repr))
        trace_positions = net_positions(
            [(o.debtor, o.creditor, o.amount) for o in run.ledger.trace],
            nodes=node_ids,
        )
        transfer_positions = net_positions(
            run.ledger.transfers, nodes=node_ids
        )
        assert transfer_positions == trace_positions

    def test_no_traffic_no_ledger(self):
        run = run_checked_churn(
            GRAPH,
            ChurnSchedule(
                epochs=((ChurnEvent(kind="cost", node="C", cost=3.0),),)
            ),
        )
        assert run.ledger is None
        assert run.initial.net_transfers == 0
