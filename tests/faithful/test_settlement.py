"""NettingLedger, settlement audit, and forced settlement.

The Concent-style settlement layer: per-epoch obligations net into one
lump-sum :class:`BatchTransfer` per debtor whose ``closure_time``
covers everything accepted before it; :func:`settlement_audit`
reconstructs any pair's unpaid balance from the signed trace; and
:func:`forced_settlement` draws audited shortfalls from deposits with
the paper's epsilon penalty on top.  Money conservation of the forced
path is property-tested.  The ledger stores raw amounts per principal
pair; :meth:`NettingLedger.audit` reads only the audited pair's rows
and must match the full-scan :func:`settlement_audit` bit for bit,
and the bank's netted settle must build no per-obligation object and
keep alive only one container per ledger direction.
"""

import gc
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, ProtocolError
from repro.faithful import (
    DEVIATION_CATALOGUE,
    BankNode,
    BatchTransfer,
    FaithfulFPSSProtocol,
    NettingLedger,
    forced_settlement,
    faithful_deviant_factory,
    net_positions,
    settlement_audit,
    synthesize_execution_reports,
)
from repro.faithful import settlement
from repro.routing import ASGraph, figure1_graph
from repro.routing.vcg_payments import all_pairs_payments
from repro.workloads import random_biconnected_graph, uniform_all_pairs

NAMES = [f"n{i}" for i in range(5)]


class TestNettingLedger:
    def test_nets_pairwise_and_batches_per_debtor(self):
        ledger = NettingLedger()
        ledger.record("A", "B", 3.0, accepted_at=0.0)
        ledger.record("B", "A", 1.0, accepted_at=0.0)
        ledger.record("A", "C", 2.0, accepted_at=0.0)
        transfers = ledger.close_epoch(0.0)
        assert len(transfers) == 1
        (transfer,) = transfers
        assert transfer.debtor == "A"
        assert transfer.closure_time == 0.0
        assert transfer.payouts == (("B", 2.0), ("C", 2.0))
        assert transfer.total == pytest.approx(4.0)
        assert ledger.pending_count == 0
        assert ledger.epochs_closed == 1

    def test_fully_netted_pair_produces_no_transfer(self):
        ledger = NettingLedger()
        ledger.record("A", "B", 2.5, accepted_at=0.0)
        ledger.record("B", "A", 2.5, accepted_at=0.0)
        assert ledger.close_epoch(0.0) == []
        # The trace still remembers both obligations for audit.
        assert len(ledger.trace) == 2

    def test_reused_acceptance_time_nets_only_new_amounts(self):
        """A second close at the same acceptance time nets only what
        arrived since the first, in both directions."""
        ledger = NettingLedger()
        ledger.record("A", "B", 1.0, accepted_at=0.0)
        ledger.record("B", "A", 0.25, accepted_at=0.0)
        (first,) = ledger.close_epoch(0.0)
        assert first.payouts == (("B", 0.75),)
        ledger.record("A", "B", 2.0, accepted_at=0.0)
        ledger.record("B", "A", 0.5, accepted_at=0.0)
        assert ledger.pending_count == 2
        (second,) = ledger.close_epoch(0.0)
        assert second.payouts == (("B", 1.5),)
        assert len(ledger.trace) == 4

    def test_closure_time_must_cover_pending(self):
        ledger = NettingLedger()
        ledger.record("A", "B", 1.0, accepted_at=5.0)
        with pytest.raises(ProtocolError, match="does not cover"):
            ledger.close_epoch(4.0)

    def test_self_obligation_rejected(self):
        ledger = NettingLedger()
        with pytest.raises(ProtocolError, match="same node"):
            ledger.record("A", "A", 1.0, accepted_at=0.0)

    def test_record_many(self):
        ledger = NettingLedger()
        ledger.record_many(
            [("A", "B", 1.0), ("B", "C", 2.0)], accepted_at=1.0
        )
        assert ledger.pending_count == 2
        transfers = ledger.close_epoch(1.0)
        assert {t.debtor for t in transfers} == {"A", "B"}


class TestObligationTrace:
    def test_iteration_yields_recorded_multiset(self):
        recorded = [
            ("A", "B", 3.0, 0.0),
            ("B", "A", 1.0, 0.0),
            ("A", "B", 0.0, 0.0),
            ("A", "B", 3.0, 0.0),
            ("C", "A", 0.0, 2.0),
            ("A", "C", 2.5, 2.0),
            ("B", "A", 1.0, 1.0),
        ]
        ledger = NettingLedger()
        for debtor, creditor, amount, accepted_at in recorded[:3]:
            ledger.record(debtor, creditor, amount, accepted_at)
        ledger.close_epoch(0.0)
        for debtor, creditor, amount, accepted_at in recorded[3:]:
            ledger.record(debtor, creditor, amount, accepted_at)
        trace = ledger.trace
        assert len(trace) == len(recorded)
        got = [(o.debtor, o.creditor, o.amount, o.accepted_at) for o in trace]
        # Zero amounts are obligations too: nothing is dropped.
        assert sorted(got, key=repr) == sorted(recorded, key=repr)
        assert ledger.pending_count == 4

    def test_netted_settle_trace_is_the_per_flow_list(self):
        graph = figure1_graph()
        reports = synthesize_execution_reports(
            graph, uniform_all_pairs(graph), repeats=2
        )
        bank = BankNode()
        bank.reports["execution"] = reports
        node_ids = tuple(sorted(graph.nodes, key=repr))
        netted = bank.settle_netted(
            node_ids, {n: graph.cost(n) for n in node_ids}, closure_time=3.0
        )
        rows = [
            (payer, payee, amount, 3.0)
            for payer, payee, amount in netted.per_flow_transfers
            if payer != payee
        ]
        trace = [
            (o.debtor, o.creditor, o.amount, o.accepted_at)
            for o in netted.ledger.trace
        ]
        assert len(netted.ledger.trace) == len(rows)
        assert sorted(trace, key=repr) == sorted(rows, key=repr)

    def test_settle_netted_builds_no_obligation(self, monkeypatch):
        """The bulk path appends raw amounts; trace rows are built lazily."""
        built = []

        class CountingObligation(settlement.Obligation):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(settlement, "Obligation", CountingObligation)
        graph = figure1_graph()
        protocol = FaithfulFPSSProtocol(
            graph,
            uniform_all_pairs(graph),
            node_factory=faithful_deviant_factory(
                DEVIATION_CATALOGUE["misroute"], "C"
            ),
        )
        protocol.run()
        node_ids = tuple(sorted(protocol.nodes, key=repr))
        declared = {n: graph.cost(n) for n in node_ids}
        netted = protocol.bank.settle_netted(node_ids, declared)
        assert netted.flags  # the deviant's reimbursement rows are in
        assert built == []
        recorded = sum(
            1 for payer, payee, _ in netted.per_flow_transfers if payer != payee
        )
        assert recorded > 0
        assert len(netted.ledger.trace) == recorded
        assert built == []
        assert sum(1 for _ in netted.ledger.trace) == recorded
        assert len(built) == recorded


class TestRetainedContainers:
    """The netted settle's working state is flat: what a
    :class:`NettedSettlement` keeps alive is one tracked amount list per
    nonempty ledger direction plus its outputs, nothing per flow, group
    or pair.  The gate counts objects, not time."""

    @staticmethod
    def retained(repeats):
        graph = random_biconnected_graph(
            48, random.Random(5), extra_edge_prob=4 / 47
        )
        reports = synthesize_execution_reports(
            graph, uniform_all_pairs(graph), repeats=repeats
        )
        bank = BankNode()
        bank.reports["execution"] = reports
        node_ids = tuple(sorted(graph.nodes, key=repr))
        declared = {n: graph.cost(n) for n in node_ids}
        gc.collect()
        before = len(gc.get_objects())
        netted = bank.settle_netted(node_ids, declared)
        gc.collect()
        kept = len(gc.get_objects()) - before
        directions = len(
            {(o.debtor, o.creditor, o.accepted_at) for o in netted.ledger.trace}
        )
        return kept, directions, len(node_ids)

    def test_settle_retains_one_container_per_direction(self):
        once = self.retained(1)
        kept, directions, nodes = once
        # One record per node and at most one batch transfer per node
        # are the settle's output; 32 covers its fixed containers.
        assert kept <= directions + 2 * nodes + 32
        assert self.retained(4) == once


class TestSettlementAudit:
    def test_unpaid_before_close_zero_after(self):
        ledger = NettingLedger()
        ledger.record("A", "B", 3.0, accepted_at=0.0)
        ledger.record("B", "A", 1.0, accepted_at=0.0)
        before = settlement_audit(ledger.trace, ledger.transfers, "A", "B", 0.0)
        assert before.owed == pytest.approx(2.0)
        assert before.paid == 0.0
        assert before.shortfall == pytest.approx(2.0)
        ledger.close_epoch(0.0)
        after = settlement_audit(ledger.trace, ledger.transfers, "A", "B", 0.0)
        assert after.unpaid == 0.0

    def test_at_time_filters_trace_and_transfers(self):
        ledger = NettingLedger()
        ledger.record("A", "B", 1.0, accepted_at=0.0)
        ledger.close_epoch(0.0)
        ledger.record("A", "B", 4.0, accepted_at=2.0)
        ledger.close_epoch(2.0)
        early = settlement_audit(ledger.trace, ledger.transfers, "A", "B", 1.0)
        assert early.owed == pytest.approx(1.0)
        assert early.unpaid == 0.0
        late = settlement_audit(ledger.trace, ledger.transfers, "A", "B", 2.0)
        assert late.owed == pytest.approx(5.0)
        assert late.unpaid == 0.0

    def test_reverse_direction_is_negative(self):
        ledger = NettingLedger()
        ledger.record("A", "B", 3.0, accepted_at=0.0)
        report = settlement_audit(ledger.trace, ledger.transfers, "B", "A", 0.0)
        assert report.owed == pytest.approx(-3.0)
        assert report.shortfall == 0.0


class TestLedgerAudit:
    """``NettingLedger.audit`` against the full-scan reference."""

    @staticmethod
    def assert_audits_match(ledger, at_time):
        trace = list(ledger.trace)
        for debtor in NAMES:
            for creditor in NAMES:
                assert ledger.audit(debtor, creditor, at_time) == (
                    settlement_audit(
                        trace, ledger.transfers, debtor, creditor, at_time
                    )
                )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=4),
                st.floats(
                    min_value=0.0,
                    max_value=100.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                st.sampled_from([0.0, 1.0, 2.0, 3.0]),
                st.booleans(),
            ),
            min_size=1,
            max_size=40,
        ),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=4),
                st.floats(
                    min_value=0.01,
                    max_value=50.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
            ),
            max_size=6,
        ),
        st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    )
    # A forced self-payout audits to +1.0 in the full scan: a ledger
    # keyed by direction must not also count it as the reverse
    # direction, negated, when debtor == creditor.
    @example(rows=[(0, 0, 0.0, 0.0, False)], forced=[(0, 0, 1.0)], at_time=0.5)
    def test_audit_matches_full_scan(self, rows, forced, at_time):
        """Several epochs, mixed acceptance times, mid-pass forced rows."""
        ledger = NettingLedger()
        newest = 0.0
        for debtor_i, creditor_i, amount, accepted_at, close in rows:
            if debtor_i != creditor_i:
                ledger.record(
                    NAMES[debtor_i], NAMES[creditor_i], amount, accepted_at
                )
                newest = max(newest, accepted_at)
            if close:
                ledger.close_epoch(newest)
        self.assert_audits_match(ledger, at_time)
        # Forced transfers appended between audits, as a forced pass
        # appends them, are seen by every later audit.
        for debtor_i, creditor_i, amount in forced:
            ledger.transfers.append(
                BatchTransfer(
                    debtor=NAMES[debtor_i],
                    closure_time=at_time,
                    payouts=((NAMES[creditor_i], amount),),
                )
            )
            self.assert_audits_match(ledger, at_time)
        forced_settlement(ledger, dict.fromkeys(NAMES, 10.0), at_time=at_time)
        self.assert_audits_match(ledger, at_time)
        self.assert_audits_match(ledger, 3.0)

    def test_forced_pass_visits_trace_plus_payouts(self):
        """One pass reads every obligation and payout once, not pairs x
        trace: the audit-visit counter pins it."""
        graph = random_biconnected_graph(12, random.Random(3))
        reports = synthesize_execution_reports(graph, uniform_all_pairs(graph))
        bank = BankNode()
        bank.reports["execution"] = reports
        node_ids = tuple(sorted(graph.nodes, key=repr))
        netted = bank.settle_netted(
            node_ids, {n: graph.cost(n) for n in node_ids}
        )
        ledger = netted.ledger
        # A second, closed epoch and a third one left unpaid.
        ledger.record(node_ids[0], node_ids[1], 4.0, accepted_at=1.0)
        ledger.record(node_ids[1], node_ids[0], 1.5, accepted_at=1.0)
        ledger.close_epoch(1.0)
        ledger.record(node_ids[2], node_ids[3], 2.0, accepted_at=2.0)
        ledger.record(node_ids[4], node_ids[2], 0.5, accepted_at=3.0)
        payouts = sum(
            len(t.payouts) for t in ledger.transfers if t.closure_time <= 2.0
        )
        bank.fund_deposit(node_ids[2], 1.0)
        outcomes = bank.run_forced_settlement(ledger, at_time=2.0)
        assert [(o.debtor, o.creditor, o.drawn) for o in outcomes] == [
            (node_ids[2], node_ids[3], 1.0)
        ]
        assert ledger.audit_term_visits == len(ledger.trace) - 1 + payouts
        # The forced draw is on the record: the pair audits to the rest.
        report = ledger.audit(node_ids[2], node_ids[3], 2.0)
        assert report.unpaid == 1.0


class TestForcedSettlement:
    def test_draws_shortfall_from_deposit(self):
        ledger = NettingLedger()
        ledger.record("A", "B", 5.0, accepted_at=0.0)
        # A never pays: no close_epoch, so the audit finds 5 unpaid.
        deposits = {"A": 3.0}
        outcomes = forced_settlement(ledger, deposits, at_time=0.0)
        assert len(outcomes) == 1
        (outcome,) = outcomes
        assert outcome.debtor == "A" and outcome.creditor == "B"
        assert outcome.shortfall == pytest.approx(5.0)
        assert outcome.drawn == pytest.approx(3.0)  # deposit-capped
        assert outcome.penalty == pytest.approx(0.01)
        assert deposits["A"] == 0.0
        # The forced transfer enters the record: re-auditing sees it.
        report = settlement_audit(ledger.trace, ledger.transfers, "A", "B", 0.0)
        assert report.unpaid == pytest.approx(2.0)

    def test_settled_pairs_untouched(self):
        ledger = NettingLedger()
        ledger.record("A", "B", 5.0, accepted_at=0.0)
        ledger.close_epoch(0.0)
        deposits = {"A": 10.0}
        assert forced_settlement(ledger, deposits, at_time=0.0) == []
        assert deposits["A"] == 10.0

    def test_no_deposit_draws_nothing_still_penalized(self):
        ledger = NettingLedger()
        ledger.record("A", "B", 5.0, accepted_at=0.0)
        deposits = {}
        outcomes = forced_settlement(ledger, deposits, at_time=0.0)
        (outcome,) = outcomes
        assert outcome.drawn == 0.0
        assert outcome.penalty == pytest.approx(0.01)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=4),
                st.floats(
                    min_value=0.01,
                    max_value=100.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
            ),
            min_size=1,
            max_size=30,
        ),
        st.lists(
            st.floats(
                min_value=0.0,
                max_value=50.0,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=5,
            max_size=5,
        ),
    )
    def test_money_conservation(self, obligations, balances):
        """Deposits fund forced transfers exactly; nothing leaks."""
        names = [f"n{i}" for i in range(5)]
        ledger = NettingLedger()
        for debtor_i, creditor_i, amount in obligations:
            if debtor_i == creditor_i:
                continue
            ledger.record(
                names[debtor_i], names[creditor_i], amount, accepted_at=0.0
            )
        deposits = dict(zip(names, balances, strict=True))
        before = dict(deposits)
        transfers_before = len(ledger.transfers)
        outcomes = forced_settlement(ledger, deposits, at_time=0.0)
        forced = ledger.transfers[transfers_before:]
        # Exact conservation: every drawn unit appears as a forced
        # batch-transfer payout, bit for bit.
        assert math.fsum(o.drawn for o in outcomes) == math.fsum(
            t.total for t in forced
        )
        # No deposit goes negative, and each decreases by its draw.
        for name in names:
            assert deposits[name] >= 0.0
            drawn = math.fsum(
                o.drawn for o in outcomes if o.debtor == name
            )
            assert deposits[name] == pytest.approx(before[name] - drawn)
        # After enforcement, every funded debtor's residual shortfall
        # equals what its deposit could not cover.
        for outcome in outcomes:
            report = settlement_audit(
                ledger.trace,
                ledger.transfers,
                outcome.debtor,
                outcome.creditor,
                0.0,
            )
            assert report.shortfall == pytest.approx(
                outcome.shortfall - outcome.drawn, abs=1e-9
            )


class TestBankDeposits:
    def test_fund_and_draw_through_bank(self):
        bank = BankNode()
        bank.fund_deposit("A", 4.0)
        bank.fund_deposit("A", 1.0)
        assert bank.deposit_balance("A") == pytest.approx(5.0)
        assert bank.deposit_balance("Z") == 0.0
        ledger = NettingLedger()
        ledger.record("A", "B", 2.0, accepted_at=0.0)
        outcomes = bank.run_forced_settlement(ledger, at_time=0.0)
        assert len(outcomes) == 1
        assert outcomes[0].drawn == pytest.approx(2.0)
        assert bank.deposit_balance("A") == pytest.approx(3.0)

    def test_negative_funding_rejected(self):
        bank = BankNode()
        with pytest.raises(ProtocolError, match=">= 0"):
            bank.fund_deposit("A", -1.0)


class TestSynthesizedReports:
    def test_honest_reports_settle_clean(self):
        graph = figure1_graph()
        traffic = uniform_all_pairs(graph)
        reports = synthesize_execution_reports(graph, traffic)
        bank = BankNode()
        bank.reports["execution"] = reports
        node_ids = tuple(sorted(graph.nodes, key=repr))
        declared = {n: graph.cost(n) for n in node_ids}
        records, flags = bank.settle(node_ids, declared)
        assert flags == []
        for node_id in node_ids:
            record = records[node_id]
            assert record.penalties == 0.0
            assert record.reported_total == pytest.approx(
                record.expected_total
            )

    def test_repeats_scale_observations_not_receipt_rows(self):
        graph = figure1_graph()
        traffic = uniform_all_pairs(graph)
        once = synthesize_execution_reports(graph, traffic, repeats=1)
        thrice = synthesize_execution_reports(graph, traffic, repeats=3)
        for node in graph.nodes:
            assert len(thrice[node]["observations"]) == 3 * len(
                once[node]["observations"]
            )
            assert len(thrice[node]["receipts"]) == len(
                once[node]["receipts"]
            )

    def test_bad_repeats_rejected(self):
        graph = figure1_graph()
        with pytest.raises(ProtocolError, match="repeats"):
            synthesize_execution_reports(graph, {}, repeats=0)


def reference_synthesize(graph, traffic, repeats=1):
    """The per-receiver-dict synthesizer the one-pass rewrite replaced.

    Kept verbatim as the test-side reference: it accumulates receipts
    as receiver -> flow -> {sender: volume} and delivered volumes from
    ``0.0``, then sorts every table by ``repr``.
    """
    if repeats < 1:
        raise ProtocolError(f"repeats must be >= 1, got {repeats}")
    payments = all_pairs_payments(graph)
    receipts = {}
    observations = {}
    delivered = {}
    paid = {}

    for (source, destination), volume in sorted(traffic.items(), key=repr):
        if volume <= 0 or source == destination:
            continue
        bundle = payments[(source, destination)]
        path = bundle.route.path
        flow = (source, destination)
        charges = [
            (transit, bundle.payments[transit] * volume)
            for transit in path[1:-1]
        ]
        first_hop = path[1]
        rows = observations.setdefault(first_hop, [])
        for _repeat in range(repeats):
            rows.append((source, destination, volume, path, charges))
        for index in range(1, len(path)):
            receiver = path[index]
            sender = path[index - 1]
            receipts.setdefault(receiver, {}).setdefault(flow, {})[sender] = (
                volume * repeats
            )
        flows = delivered.setdefault(path[-1], {})
        flows[flow] = flows.get(flow, 0.0) + volume * repeats
        payees = paid.setdefault(source, {})
        for transit, amount in charges:
            terms = payees.setdefault(transit, [])
            for _repeat in range(repeats):
                terms.append(amount)

    reports = {}
    for node in sorted(graph.nodes, key=repr):
        reports[node] = {
            "reported_payments": sorted(
                (
                    (payee, math.fsum(terms))
                    for payee, terms in paid.get(node, {}).items()
                ),
                key=repr,
            ),
            "receipts": [
                (origin, dest, sender, volume)
                for (origin, dest), senders in sorted(
                    receipts.get(node, {}).items(), key=repr
                )
                for sender, volume in sorted(senders.items(), key=repr)
            ],
            "delivered": [
                (origin, dest, volume)
                for (origin, dest), volume in sorted(
                    delivered.get(node, {}).items(), key=repr
                )
            ],
            "observations": observations.get(node, []),
            "flags": [],
        }
    return reports


def _mixed_traffic(graph, seed):
    """Random non-uniform volumes plus zero, negative and self-pair
    entries, inserted in shuffled (non-sorted) order."""
    rng = random.Random(seed)
    nodes = list(graph.nodes)
    traffic = {
        (source, destination): rng.uniform(0.01, 7.5)
        for source in nodes
        for destination in nodes
        if source != destination
    }
    pairs = sorted(traffic, key=repr)
    for pair in rng.sample(pairs, 3):
        traffic[pair] = 0.0
    for pair in rng.sample(pairs, 3):
        traffic[pair] = -rng.uniform(0.1, 2.0)
    for node in rng.sample(nodes, 2):
        traffic[(node, node)] = 1.0
    items = list(traffic.items())
    rng.shuffle(items)
    return dict(items)


class TestSynthesizerMatchesReference:
    """The one-pass synthesizer equals the per-receiver-dict reference:
    ``==`` and ``repr`` (every list order and float bit)."""

    GRAPHS = [
        ("figure1", figure1_graph),
        ("random6-s0", lambda: random_biconnected_graph(6, random.Random(0))),
        ("random10-s3", lambda: random_biconnected_graph(10, random.Random(3))),
        (
            "random24-s5",
            lambda: random_biconnected_graph(
                24, random.Random(5), extra_edge_prob=4.0 / 23
            ),
        ),
    ]

    @staticmethod
    def _assert_identical(graph, traffic, repeats):
        expected = reference_synthesize(graph, traffic, repeats=repeats)
        actual = synthesize_execution_reports(graph, traffic, repeats=repeats)
        assert actual == expected
        assert repr(actual) == repr(expected)

    @pytest.mark.parametrize("repeats", [1, 3])
    @pytest.mark.parametrize("name, build", GRAPHS, ids=[g[0] for g in GRAPHS])
    def test_uniform_traffic(self, name, build, repeats):
        graph = build()
        self._assert_identical(graph, uniform_all_pairs(graph), repeats)

    @pytest.mark.parametrize("repeats", [1, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name, build", GRAPHS, ids=[g[0] for g in GRAPHS])
    def test_mixed_traffic(self, name, build, seed, repeats):
        graph = build()
        self._assert_identical(graph, _mixed_traffic(graph, seed), repeats)

    def test_integer_volumes(self):
        # The reference accumulated delivered volumes from 0.0, so an
        # integer volume reports as a float there; receipts keep ints.
        graph = figure1_graph()
        traffic = {pair: 2 for pair in uniform_all_pairs(graph)}
        self._assert_identical(graph, traffic, 3)

    def test_repeated_observation_rows_share_one_tuple(self):
        # A flow's repeats are one shared tuple: the flat settle runs
        # no full collection either way, so distinct tuples were only
        # set-up work and tracked objects.
        graph = figure1_graph()
        repeats = 3
        reports = synthesize_execution_reports(
            graph, uniform_all_pairs(graph), repeats=repeats
        )
        rows = [row for report in reports.values() for row in report["observations"]]
        assert rows
        assert len({id(row) for row in rows}) * repeats == len(rows)
        for report in reports.values():
            observed = report["observations"]
            for start in range(0, len(observed), repeats):
                group = observed[start:start + repeats]
                assert all(row is group[0] for row in group)


class TestSynthesizerEndpoints:
    def test_unknown_destination_raises_graph_error(self):
        with pytest.raises(GraphError, match="'ZZ'"):
            synthesize_execution_reports(figure1_graph(), {("A", "ZZ"): 1.0})

    def test_unknown_source_raises_graph_error(self):
        with pytest.raises(GraphError, match="'ZZ'"):
            synthesize_execution_reports(figure1_graph(), {("ZZ", "A"): 1.0})

    def test_skipped_entries_need_no_route(self):
        # Zero, negative and self-pair entries are skipped before the
        # route lookup, even with endpoints outside the graph.
        graph = figure1_graph()
        skipped = {("A", "ZZ"): 0.0, ("ZZ", "A"): -1.0, ("ZZ", "ZZ"): 1.0}
        reports = synthesize_execution_reports(graph, skipped)
        assert reports == synthesize_execution_reports(graph, {})


class TestNetPositions:
    def test_mixed_triples_and_batches(self):
        triples = [("A", "B", 2.0), ("B", "C", 1.0)]
        batch = BatchTransfer(
            debtor="C", closure_time=0.0, payouts=(("A", 0.5),)
        )
        positions = net_positions(triples + [batch], nodes=("A", "B", "C", "D"))
        assert positions["A"] == pytest.approx(-1.5)
        assert positions["B"] == pytest.approx(1.0)
        assert positions["C"] == pytest.approx(0.5)
        assert positions["D"] == 0.0
        # A closed system always nets to zero overall.
        assert math.fsum(positions.values()) == pytest.approx(0.0)


class TestExactTotals:
    """The bank's totals are exact sums (``math.fsum``), not
    left-to-right ones.  Ten observations that each charge the same
    not-quite-0.1 price sum to a different float under plain ``sum``,
    so a reduction that drifts to ``sum`` fails here.  The expected
    values are ``math.fsum`` over the test's own priced terms."""

    REPEATS = 10

    @staticmethod
    def square():
        """S-T-D is the least-cost path, S-U-D its detour around T."""
        return ASGraph(
            {"S": 1.0, "T": 0.05, "D": 1.0, "U": 0.1},
            [("S", "T"), ("T", "D"), ("S", "U"), ("U", "D")],
        )

    @pytest.mark.parametrize("engine", ["settle", "settle_netted"])
    def test_ten_equal_charges_total_exactly(self, engine):
        graph = self.square()
        volume = 1.0
        bundle = all_pairs_payments(graph)[("S", "D")]
        assert bundle.route.path == ("S", "T", "D")
        terms = [bundle.payments["T"] * volume] * self.REPEATS
        exact = math.fsum(terms)
        assert sum(terms) != exact  # the terms tell the two sums apart
        bank = BankNode()
        bank.reports["execution"] = synthesize_execution_reports(
            graph, {("S", "D"): volume}, repeats=self.REPEATS
        )
        node_ids = tuple(sorted(graph.nodes, key=repr))
        declared = {n: graph.cost(n) for n in node_ids}
        if engine == "settle":
            records, flags = bank.settle(node_ids, declared)
        else:
            netted = bank.settle_netted(node_ids, declared)
            records, flags = netted.records, netted.flags
        assert flags == []
        assert records["S"].expected_total == exact
        assert records["S"].charged == exact
        assert records["T"].received == exact
