"""Epoch netting, batch transfers, audit, and forced settlement.

The paper's bank enforces payments per flow; at millions of flows per
settle that means millions of tiny transfers.  Production settlement
systems (the Golem Concent service is the model here) instead net
obligations per epoch and pay **lump sums**: one batch transfer per
net debtor, stamped with a ``closure_time`` that covers every
obligation accepted before it.  Because the signed obligation trace is
kept, any party can later *audit* — reconstruct the unpaid balance of
a debtor/creditor pair from the trace and the transfer list — and the
bank can run *forced settlement*: draw the audited shortfall from the
debtor's deposit, epsilon-penalty preserved.

Exactness contract
------------------
All money reductions in this module use :func:`math.fsum`, which is
exactly rounded over its input multiset.  The ledger stores raw
amounts in one flat list per ``(debtor, creditor, accepted_at)``
direction — no container per pair or per obligation — and netting
reduces each unordered pair's amounts, both directions and every
acceptance time, with one fsum, the reverse-direction ones negated
inside the fsum input, so the sum sees exactly the signed multiset a
per-obligation reduction would.  :func:`net_positions` performs the
same pair-grouped reduction for any transfer list, from one list per
``(payer, payee)`` direction.  Per-flow transfers and the batch
transfers netted from them therefore produce **bit-identical** net
positions — the property
`tests/faithful/test_settlement_equivalence.py` checks — and after
:meth:`NettingLedger.close_epoch` every pair audits to an unpaid
balance of exactly ``0.0``.  :meth:`NettingLedger.audit` reads only
the audited pair's rows and fsums the same multisets as the full-scan
:func:`settlement_audit`, so the two reports are bit-identical.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, groupby, islice
from operator import neg
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import GraphError, ProtocolError
from ..sim.messages import NodeId


@dataclass(frozen=True)
class Obligation:
    """One signed transit-payment obligation (the trace unit)."""

    debtor: NodeId
    creditor: NodeId
    amount: float
    #: Time the bank accepted (signed) the obligation.
    accepted_at: float


@dataclass(frozen=True)
class BatchTransfer:
    """One lump-sum payment from a net debtor.

    ``closure_time`` covers every obligation accepted at or before it:
    the payment discharges the debtor's whole netted balance for the
    epoch, Concent-style, instead of one transfer per flow.
    """

    debtor: NodeId
    closure_time: float
    #: Repr-sorted ``(creditor, amount)`` rows, every amount > 0.
    payouts: Tuple[Tuple[NodeId, float], ...]

    @property
    def total(self) -> float:
        """The lump sum the debtor pays out."""
        return math.fsum(amount for _creditor, amount in self.payouts)


@dataclass(frozen=True)
class AuditReport:
    """Reconstructed balance of one debtor->creditor direction."""

    debtor: NodeId
    creditor: NodeId
    at_time: float
    #: Net amount the debtor owed the creditor from the signed trace.
    owed: float
    #: Net amount already discharged by batch transfers.
    paid: float

    @property
    def unpaid(self) -> float:
        """Outstanding balance (can be negative when overpaid)."""
        return self.owed - self.paid

    @property
    def shortfall(self) -> float:
        """The enforceable part of the balance (never negative)."""
        return max(0.0, self.owed - self.paid)


@dataclass(frozen=True)
class ForcedPayment:
    """Outcome of one forced-settlement enforcement action."""

    debtor: NodeId
    creditor: NodeId
    #: Audited unpaid balance at enforcement time.
    shortfall: float
    #: Amount actually drawn from the debtor's deposit.
    drawn: float
    #: Epsilon penalty applied on top of the draw.
    penalty: float


Pair = Tuple[NodeId, NodeId]

#: One ledger direction: ``(debtor, creditor, accepted_at)`` — or
#: ``(debtor, payee, closure_time)`` for payouts.
Direction = Tuple[NodeId, NodeId, float]


def _pair_key(a: NodeId, b: NodeId) -> Pair:
    """Canonical unordered pair (repr-sorted endpoints)."""
    return (a, b) if repr(a) <= repr(b) else (b, a)


def _direction_pair(key: Direction) -> Pair:
    """The unordered pair a ledger direction belongs to."""
    return _pair_key(key[0], key[1])


def _direction_pair_repr(key: Direction) -> str:
    """Sort key that makes each pair's directions adjacent."""
    return repr(_pair_key(key[0], key[1]))


def _index_times(
    times: Dict[Pair, List[float]], directions: Iterable[Direction]
) -> None:
    """Add each direction's time to its ``(debtor, creditor)`` entry."""
    for debtor, creditor, time in directions:
        entry = times.get((debtor, creditor))
        if entry is None:
            times[(debtor, creditor)] = [time]
        else:
            entry.append(time)


def _signed_terms(
    book: Dict[Direction, List[float]],
    times: Dict[Pair, List[float]],
    debtor: NodeId,
    creditor: NodeId,
    at_time: float,
) -> List[float]:
    """The pair's amounts up to ``at_time``, positive debtor->creditor.

    A self-pair (``debtor == creditor``) has one direction: its amounts
    count once, positive, as in :func:`settlement_audit`.
    """
    terms: List[float] = []
    for time in times.get((debtor, creditor), ()):
        if time <= at_time:
            terms.extend(book[(debtor, creditor, time)])
    if debtor != creditor:
        for time in times.get((creditor, debtor), ()):
            if time <= at_time:
                terms.extend(map(neg, book[(creditor, debtor, time)]))
    return terms


class ObligationTrace:
    """Read-only view of a ledger's signed obligation trace.

    ``len()`` is the number of recorded obligations.  Iterating yields
    one :class:`Obligation` per recorded amount, built on demand,
    grouped by direction and acceptance time rather than in recording
    order: every reduction over the trace is an fsum, so only the
    multiset matters.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Dict[Direction, List[float]]) -> None:
        self._terms = terms

    def __len__(self) -> int:
        return sum(map(len, self._terms.values()))

    def __iter__(self) -> Iterator[Obligation]:
        for (debtor, creditor, accepted_at), amounts in self._terms.items():
            for amount in amounts:
                yield Obligation(debtor, creditor, amount, accepted_at)


class NettingLedger:
    """Per-epoch accumulation of transit obligations between pairs.

    The unit of storage is the direction: per ``(debtor, creditor,
    accepted_at)`` the ledger keeps one flat list of raw amounts, and
    never builds a per-obligation or per-pair object, so a settle that
    fills it leaves one tracked container per nonempty direction.
    Amounts recorded via :meth:`record` (or appended in bulk to the
    list :meth:`obligation_terms` returns) stay *pending* — each
    direction remembers where its pending tail starts — until
    :meth:`close_epoch` nets them, one :class:`BatchTransfer` per net
    debtor.  The ledger never forgets: :attr:`trace` and
    ``transfers`` are the inputs to :func:`settlement_audit`, and
    :meth:`audit` answers the same question reading only the audited
    pair's rows, through a per-direction time index built by the
    audits themselves.
    """

    def __init__(self) -> None:
        #: (debtor, creditor, accepted_at) -> obligation amounts.
        self._terms: Dict[Direction, List[float]] = {}
        #: direction -> index where its amounts pending since the last
        #: close start.
        self._pending: Dict[Direction, int] = {}
        #: Directions of ``_terms`` not yet in ``_owed_times``.
        self._unindexed: List[Direction] = []
        #: (debtor, creditor) -> acceptance times of its ``_terms``.
        self._owed_times: Dict[Pair, List[float]] = {}
        #: Every batch transfer issued so far (append-only).
        self.transfers: List[BatchTransfer] = []
        #: (debtor, payee, closure_time) -> payout amounts of
        #: ``transfers[:_indexed]``, indexed on the next audit.
        self._paid: Dict[Direction, List[float]] = {}
        #: (debtor, payee) -> closure times of its ``_paid`` lists.
        self._paid_times: Dict[Pair, List[float]] = {}
        self._indexed = 0
        self.epochs_closed = 0
        #: Obligation and payout amounts read by :meth:`audit` so far.
        self.audit_term_visits = 0

    @property
    def trace(self) -> ObligationTrace:
        """The full signed obligation trace (append-only, audit input)."""
        return ObligationTrace(self._terms)

    def obligation_terms(
        self, debtor: NodeId, creditor: NodeId, accepted_at: float
    ) -> List[float]:
        """The open list of debtor->creditor amounts accepted at a time.

        Appending an amount to it records one obligation; bulk writers
        (the bank's netted settle) resolve the list once per direction
        and append every amount straight into it.
        """
        if debtor == creditor:
            raise ProtocolError(
                f"obligation debtor and creditor are the same node: {debtor!r}"
            )
        key = (debtor, creditor, accepted_at)
        terms = self._terms.get(key)
        if terms is None:
            terms = self._terms[key] = []
            self._unindexed.append(key)
        if key not in self._pending:
            self._pending[key] = len(terms)
        return terms

    def record(
        self, debtor: NodeId, creditor: NodeId, amount: float, accepted_at: float
    ) -> None:
        """Accept one signed obligation into the open epoch."""
        self.obligation_terms(debtor, creditor, accepted_at).append(amount)

    def record_many(
        self,
        obligations: Iterable[Tuple[NodeId, NodeId, float]],
        accepted_at: float,
    ) -> None:
        """Accept a batch of (debtor, creditor, amount) obligations."""
        for debtor, creditor, amount in obligations:
            self.record(debtor, creditor, amount, accepted_at=accepted_at)

    @property
    def pending_count(self) -> int:
        """Obligations awaiting the next epoch close."""
        terms = self._terms
        return sum(
            len(terms[key]) - start for key, start in self._pending.items()
        )

    def close_epoch(self, closure_time: float) -> List[BatchTransfer]:
        """Net all pending obligations into one transfer per debtor.

        ``closure_time`` must cover every pending obligation (none
        accepted after it) — the Concent rule that a batch payment's
        closure time bounds what it discharges.  Each pair's net is
        one fsum over the pending tails of both its directions, the
        reverse ones negated, so it sees the same signed multiset as a
        per-obligation reduction; transfers and their payouts are
        repr-sorted.
        """
        terms = self._terms
        pending = self._pending
        open_keys = [key for key, start in pending.items() if len(terms[key]) > start]
        for _debtor, _creditor, accepted_at in open_keys:
            if accepted_at > closure_time:
                raise ProtocolError(
                    "closure_time "
                    f"{closure_time} does not cover obligation accepted at "
                    f"{accepted_at}"
                )

        payouts: Dict[NodeId, List[Tuple[NodeId, float]]] = {}
        open_keys.sort(key=_direction_pair_repr)
        for (low, high), keys in groupby(open_keys, key=_direction_pair):
            net = math.fsum(
                chain.from_iterable(
                    islice(terms[key], pending[key], None)
                    if key[0] == low
                    else map(neg, islice(terms[key], pending[key], None))
                    for key in keys
                )
            )
            if net > 0:
                payouts.setdefault(low, []).append((high, net))
            elif net < 0:
                payouts.setdefault(high, []).append((low, -net))

        transfers = [
            BatchTransfer(
                debtor=debtor,
                closure_time=closure_time,
                payouts=tuple(sorted(payouts[debtor], key=repr)),
            )
            for debtor in sorted(payouts, key=repr)
        ]
        self.transfers.extend(transfers)
        pending.clear()
        self.epochs_closed += 1
        return transfers

    def pairs(self, at_time: float) -> List[Pair]:
        """Repr-sorted pairs with an obligation accepted by ``at_time``."""
        return sorted(
            {
                _pair_key(debtor, creditor)
                for (debtor, creditor, time), amounts in self._terms.items()
                if time <= at_time and amounts
            },
            key=repr,
        )

    def audit(
        self, debtor: NodeId, creditor: NodeId, at_time: float
    ) -> AuditReport:
        """The pair's :func:`settlement_audit`, reading only its rows.

        Bit-identical to ``settlement_audit(self.trace, self.transfers,
        debtor, creditor, at_time)``: both reductions fsum the same
        signed multisets.  Directions and transfers added since the
        last audit (forced transfers included) are indexed first;
        :attr:`audit_term_visits` grows by the amounts read.
        """
        if self._unindexed:
            _index_times(self._owed_times, self._unindexed)
            self._unindexed.clear()
        paid = self._paid
        for transfer in self.transfers[self._indexed:]:
            for payee, amount in transfer.payouts:
                key = (transfer.debtor, payee, transfer.closure_time)
                amounts = paid.get(key)
                if amounts is None:
                    paid[key] = [amount]
                    _index_times(self._paid_times, (key,))
                else:
                    amounts.append(amount)
        self._indexed = len(self.transfers)
        owed_terms = _signed_terms(
            self._terms, self._owed_times, debtor, creditor, at_time
        )
        paid_terms = _signed_terms(
            paid, self._paid_times, debtor, creditor, at_time
        )
        self.audit_term_visits += len(owed_terms) + len(paid_terms)
        return AuditReport(
            debtor=debtor,
            creditor=creditor,
            at_time=at_time,
            owed=math.fsum(owed_terms),
            paid=math.fsum(paid_terms),
        )


TransferLike = Union[BatchTransfer, Tuple[NodeId, NodeId, float]]


def net_positions(
    transfers: Iterable[TransferLike],
    nodes: Optional[Sequence[NodeId]] = None,
) -> Dict[NodeId, float]:
    """Net money position of every node touched by the transfers.

    Accepts raw ``(payer, payee, amount)`` triples,``BatchTransfer``
    instances, or a mix.  Positions are computed with the same
    pair-grouped signed-fsum reduction :meth:`NettingLedger.
    close_epoch` uses, so a per-flow transfer list and the batch
    transfers netted from it yield **bit-identical** positions.
    ``nodes`` pre-seeds keys for nodes that may not appear in any
    transfer (their position is 0.0).
    """
    # (payer, payee) -> amounts: one list per direction, never one
    # container per pair or per triple.
    directed: Dict[Pair, List[float]] = {}
    for transfer in transfers:
        if isinstance(transfer, BatchTransfer):
            for payee, amount in transfer.payouts:
                terms = directed.get((transfer.debtor, payee))
                if terms is None:
                    directed[(transfer.debtor, payee)] = [amount]
                else:
                    terms.append(amount)
            continue
        payer, payee, amount = transfer
        terms = directed.get((payer, payee))
        if terms is None:
            directed[(payer, payee)] = [amount]
        else:
            terms.append(amount)

    pair_terms: Dict[NodeId, List[float]] = {}
    if nodes is not None:
        for node in sorted(nodes, key=repr):
            pair_terms.setdefault(node, [])
    # Repr-sorted pairs, each netted with one fsum over both directions
    # (a self-pair has only the one).
    for low, high in sorted({_pair_key(a, b) for a, b in directed}, key=repr):
        reverse = directed.get((high, low), ()) if low != high else ()
        value = math.fsum(
            chain(directed.get((low, high), ()), map(neg, reverse))
        )
        # low pays value toward high (negative when reversed).
        pair_terms.setdefault(low, []).append(-value)
        pair_terms.setdefault(high, []).append(value)
    return {node: math.fsum(terms) for node, terms in pair_terms.items()}


def settlement_audit(
    trace: Sequence[Obligation],
    transfers: Sequence[BatchTransfer],
    debtor: NodeId,
    creditor: NodeId,
    at_time: float,
) -> AuditReport:
    """Reconstruct the unpaid balance of a pair from the signed record.

    Concent-style: ``owed`` is the signed net of every traced
    obligation between the two nodes accepted at or before
    ``at_time`` (positive in the debtor->creditor direction); ``paid``
    is the signed net of every batch-transfer payout between them with
    ``closure_time`` at or before ``at_time``.  Both reductions are
    fsum-exact, so right after an epoch close the unpaid balance of
    every settled pair is exactly ``0.0``.

    This full scan is the independent reference that
    :meth:`NettingLedger.audit` must match bit for bit.
    """
    owed_terms: List[float] = []
    for obligation in trace:
        if obligation.accepted_at > at_time:
            continue
        if obligation.debtor == debtor and obligation.creditor == creditor:
            owed_terms.append(obligation.amount)
        elif obligation.debtor == creditor and obligation.creditor == debtor:
            owed_terms.append(-obligation.amount)

    paid_terms: List[float] = []
    for transfer in transfers:
        if transfer.closure_time > at_time:
            continue
        for payee, amount in transfer.payouts:
            if transfer.debtor == debtor and payee == creditor:
                paid_terms.append(amount)
            elif transfer.debtor == creditor and payee == debtor:
                paid_terms.append(-amount)

    return AuditReport(
        debtor=debtor,
        creditor=creditor,
        at_time=at_time,
        owed=math.fsum(owed_terms),
        paid=math.fsum(paid_terms),
    )


def forced_settlement(
    ledger: NettingLedger,
    deposits: MutableMapping[NodeId, float],
    epsilon: float = 0.01,
    at_time: float = 0.0,
    tolerance: float = 1e-9,
) -> List[ForcedPayment]:
    """Enforce audited shortfalls against the debtors' deposits.

    Audits every principal pair that appears in the signed trace up to
    ``at_time`` with :meth:`NettingLedger.audit`, which reads only the
    pair's own rows, so one pass is linear in the trace plus the
    payouts rather than pairs x trace.  Where the unpaid balance
    exceeds ``tolerance``, draws ``min(deposit, shortfall)`` from the
    defaulting debtor's deposit, issues a covering
    :class:`BatchTransfer` for the drawn amount, and applies the
    paper's epsilon penalty on top — deviation (here: non-payment)
    must end strictly below the faithful outcome.

    Money conservation: the sum of deposit draws equals the sum of
    forced transfer totals exactly, and no deposit goes negative.
    """
    outcomes: List[ForcedPayment] = []
    for a, b in ledger.pairs(at_time):
        report = ledger.audit(a, b, at_time)
        if abs(report.unpaid) <= tolerance:
            continue
        if report.unpaid > 0:
            debtor, creditor, shortfall = a, b, report.unpaid
        else:
            debtor, creditor, shortfall = b, a, -report.unpaid
        balance = deposits.get(debtor, 0.0)
        drawn = min(balance, shortfall)
        if drawn < 0:
            drawn = 0.0
        deposits[debtor] = balance - drawn
        if drawn > 0:
            ledger.transfers.append(
                BatchTransfer(
                    debtor=debtor,
                    closure_time=at_time,
                    payouts=((creditor, drawn),),
                )
            )
        outcomes.append(
            ForcedPayment(
                debtor=debtor,
                creditor=creditor,
                shortfall=shortfall,
                drawn=drawn,
                penalty=epsilon,
            )
        )
    return outcomes


def synthesize_execution_reports(
    graph: "Any",
    traffic: Mapping[Tuple[NodeId, NodeId], float],
    repeats: int = 1,
) -> Dict[NodeId, Dict[str, Any]]:
    """Honest execution reports straight from the VCG route bundle.

    Builds the exact wire format :meth:`repro.faithful.node.
    CheckedNode.execution_report` produces — receipts, first-hop
    observations with per-transit charges, delivered rows, and
    consistent ``reported_payments`` — without simulating packet
    events, so settlement benchmarks and the sweep probe can feed the
    bank millions of observation rows cheaply.  ``repeats`` replays
    each traffic flow that many times (one observation row per repeat,
    one aggregated receipt row per hop).

    One pass over the flows, sorted once by ``repr``, appends every
    row straight to its node's list, so each node's ``receipts``,
    ``delivered`` and ``observations`` are in ``repr`` flow order: a
    simple path gives each receiver one sender per flow, so that is
    also the order a per-receiver ``repr`` sort would give.  Only
    ``reported_payments`` is sorted, by payee ``repr``, after each
    ``(source, payee)`` charge list is reduced with ``math.fsum``.
    A flow's repeats share one observation tuple: the rows are equal
    and the bank never tells them apart by identity, and the flat
    settle runs no full garbage collection on shared rows (perfbench
    settle-256, seeds 1 and 7).  Zero- and negative-volume flows and
    self-pairs are skipped; a pair with an endpoint outside
    ``graph`` raises :class:`GraphError`.
    """
    from ..routing.vcg_payments import all_pairs_payments

    if repeats < 1:
        raise ProtocolError(f"repeats must be >= 1, got {repeats}")
    payments = all_pairs_payments(graph)
    nodes = sorted(graph.nodes, key=repr)
    receipts: Dict[NodeId, List[Tuple]] = {node: [] for node in nodes}
    observations: Dict[NodeId, List[Tuple]] = {node: [] for node in nodes}
    delivered: Dict[NodeId, List[Tuple]] = {node: [] for node in nodes}
    paid: Dict[NodeId, Dict[NodeId, List[float]]] = {
        node: defaultdict(list) for node in nodes
    }

    for flow, volume in sorted(traffic.items(), key=repr):
        source, destination = flow
        if volume <= 0 or source == destination:
            continue
        bundle = payments.get(flow)
        if bundle is None:
            raise GraphError(
                f"traffic pair {flow!r} has an endpoint outside the graph"
            )
        path = bundle.route.path
        prices = bundle.payments
        charges = [(transit, prices[transit] * volume) for transit in path[1:-1]]
        total = volume * repeats
        observations[path[1]].extend(
            [(source, destination, volume, path, charges)] * repeats
        )
        sender = source
        for receiver in path[1:]:
            receipts[receiver].append((source, destination, sender, total))
            sender = receiver
        # ``0.0 +`` keeps delivered volumes floats for integer traffic.
        delivered[destination].append((source, destination, 0.0 + total))
        payees = paid[source]
        for transit, amount in charges:
            payees[transit].extend([amount] * repeats)

    return {
        node: {
            "reported_payments": sorted(
                (
                    (payee, math.fsum(terms))
                    for payee, terms in paid[node].items()
                ),
                key=repr,
            ),
            "receipts": receipts[node],
            "delivered": delivered[node],
            "observations": observations[node],
            "flags": [],
        }
        for node in nodes
    }
