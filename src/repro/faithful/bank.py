"""The bank: trusted checkpointing and settlement entity.

"Our bank goes beyond whatever accounting and charging mechanisms are
used to enforce the pricing scheme.  In our specification, the bank is
a trusted and obedient entity that can also perform simple comparisons,
and enforce penalties when it detects a problem" (Section 4.2).  The
bank does **not** perform the mechanism computation; it only compares
hashes and logs produced by principals and checkers:

* **phase-1 checkpoint** — collect a DATA1 digest from every node; the
  phase's goal is "common transit cost tables across all nodes", so
  any disagreement orders a restart;
* **BANK1** — collect each principal's DATA2 digest and every
  checker's mirrored DATA2 digest; any difference inside a principal's
  group (or any checker flag) orders a phase restart;
* **BANK2** — the same for DATA3* (prices *and* identity tags), then
  green-light the execution phase;
* **settlement** — reconcile reported DATA4 payment lists against the
  flows checkers observed, pay transit nodes, and charge penalties
  "epsilon-above the attempted deviation".

All bank <-> node messages are signed (Section 4.2); inside the
simulator the bank is a *well-known* node reachable without a topology
link, modelling the paper's out-of-band signed channel.

Settlement trusts *receipt* logs (what a node says it received) but
never *forwarding claims*: the paper's signed acknowledgments make
receipts non-repudiable, so a node that actually forwarded can always
prove it, and a claim of forwarding without the matching receipt is
disbelieved.  The simulator's reliable links make receiver logs ground
truth, so this models exactly the ack-backed scheme.

Settlement engines
------------------
Two engines reconcile the execution reports:

* :meth:`BankNode.settle_per_flow` — the reference: walk every
  observed origination one at a time, re-tracing its certified path.
  Retained as the property-tested oracle.
* :meth:`BankNode._settle_impl` (behind :meth:`BankNode.settle` and
  :meth:`BankNode.settle_netted`) — the columnar engine: observation
  rows are *grouped* by their raw (origin, destination, certified
  path) and reordered group-major into one flat row list, node ids are
  interned to dense integers, and receipts are ingested once into one
  dict keyed by an int code of ``(sender, origin, destination,
  receiver)``, so the path walk and the carried mask run once per
  group instead of once per observation row.  A group whose walk
  breaks scans its flow's receipts for misroutes and off-path carriers
  through a per-flow index built on the first break; honest settles
  never build it.

The columnar engine's working state is a few flat containers — no
dict, list or tuple per flow, group or ledger pair — so the GC-tracked
objects a settle keeps alive grow with the ledger's directions only,
and perfbench's 261 k-row settle-256 runs without a full (generation-2)
collection of the cyclic garbage collector.

Both engines append every monetary effect to a per-node contribution
list and materialise records with :func:`math.fsum`, which is exactly
rounded: two engines producing the same *multiset* of contributions
produce bit-identical records regardless of accumulation order.  That
is the equivalence contract ``tests/faithful/test_settlement_
equivalence.py`` enforces across the manipulation catalogue.

The netted settle extends the same contract to the ledger: each
per-flow transfer amount (carried charge or reimbursement) is appended
straight into the :class:`~repro.faithful.settlement.NettingLedger`'s
list for its ``(debtor, creditor, accepted_at)`` direction — the very
float the tally holds — so the epoch close fsums the same signed
multiset per pair that one recorded obligation per transfer would give,
without building any per-obligation object.  The per-flow transfer
list itself is kept as a flat :class:`PerFlowTransfers` view, collected
by the settle rather than derived from the ledger, so comparing its net
positions with the batch transfers' still checks the netting
independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections import deque
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..errors import ProtocolError
from ..obs.trace import emit_counters, span
from ..sim.crypto import SigningAuthority
from ..sim.messages import Message, NodeId
from ..sim.node import ProtocolNode
from .audit import CheckpointDecision, Flag, FlagKind, SettlementRecord
from .node import BANK_ID, KIND_BANK_REQUEST, decode_flag
from .settlement import BatchTransfer, NettingLedger, forced_settlement


class _SettlementTally:
    """Exact (order-independent) accumulation of settlement money.

    Every monetary effect is appended as one contribution;
    :meth:`BankNode._finalize_settlement` reduces each per-node list
    with :func:`math.fsum`.  fsum is exactly rounded over its input
    multiset, so any two settlement engines that generate the same
    multiset of contributions per node and field produce bit-identical
    :class:`~repro.faithful.audit.SettlementRecord` values — the
    mechanism behind the per-flow/columnar equivalence tests.
    """

    __slots__ = ("received", "charged", "penalties", "expected")

    def __init__(self, node_ids: Sequence[NodeId]) -> None:
        self.received: Dict[NodeId, List[float]] = {n: [] for n in node_ids}
        self.charged: Dict[NodeId, List[float]] = {n: [] for n in node_ids}
        self.penalties: Dict[NodeId, List[float]] = {n: [] for n in node_ids}
        #: Per-origin enforced charge contributions (DATA4 comparison).
        self.expected: Dict[NodeId, List[float]] = {n: [] for n in node_ids}


class PerFlowTransfers:
    """The per-flow transfer list of one settle, stored flat.

    Five flat lists, whatever the number of flows: each observation
    group with transfers contributes its ``(payer, payee)`` pairs in
    row order to the parallel payer and payee lists, the end of its run
    in them to the group-end list, and its row count to the row-count
    list; the amount list holds the float objects the settlement tally
    holds, rows back to back.  Iterating yields the ``(payer, payee,
    amount)`` triples the per-flow scheme would execute, in settle
    order; ``len()`` counts them.
    """

    __slots__ = ("_payers", "_payees", "_group_ends", "_row_counts", "_amounts")

    def __init__(self) -> None:
        self._payers: List[NodeId] = []
        self._payees: List[NodeId] = []
        self._group_ends: List[int] = []
        self._row_counts: List[int] = []
        self._amounts: List[float] = []

    def __len__(self) -> int:
        return len(self._amounts)

    def __iter__(self) -> Iterator[Tuple[NodeId, NodeId, float]]:
        return zip(
            self._per_row(self._payers), self._per_row(self._payees), self._amounts
        )

    def _per_row(self, column: List[NodeId]) -> Iterator[NodeId]:
        """``column`` in settle order: each group's run, once per row."""
        runs = map(
            column.__getitem__,
            map(slice, chain((0,), self._group_ends), self._group_ends),
        )
        return chain.from_iterable(
            chain.from_iterable(map(repeat, runs, self._row_counts))
        )


@dataclass
class SettlementStats:
    """Work counters of one settlement pass (telemetry and gates)."""

    #: Observation rows reconciled (one per observed origination).
    flows_settled: int = 0
    #: Distinct (flow, certified path) groups the rows collapsed to.
    flow_groups: int = 0
    #: Individual origin-to-transit payment rows the per-flow scheme
    #: would execute — the denominator of the netting compression gate.
    transfer_records: int = 0
    #: The per-flow transfer list, collected only when the caller nets
    #: (passes a ledger).
    transfers: Optional[PerFlowTransfers] = None


@dataclass
class NettedSettlement:
    """Everything :meth:`BankNode.settle_netted` produced."""

    records: Dict[NodeId, SettlementRecord]
    flags: List[Flag]
    #: One lump-sum transfer per net debtor for this epoch.
    transfers: List[BatchTransfer]
    #: The ledger holding the signed obligation trace (audit input).
    ledger: NettingLedger
    flows_settled: int = 0
    flow_groups: int = 0
    transfer_records: int = 0
    #: The un-netted per-flow transfer list the obligations came from.
    per_flow_transfers: PerFlowTransfers = field(
        default_factory=PerFlowTransfers
    )

    @property
    def net_payouts(self) -> int:
        """Total payout rows across the epoch's batch transfers."""
        return sum(len(transfer.payouts) for transfer in self.transfers)


class BankNode(ProtocolNode):
    """The obedient checkpointing node (well-known to everyone)."""

    def __init__(
        self, signing: Optional[SigningAuthority] = None, node_id: NodeId = BANK_ID
    ) -> None:
        super().__init__(node_id)
        self.signing = signing
        #: stage -> node -> report payload.
        self.reports: Dict[str, Dict[NodeId, Mapping[str, Any]]] = {}
        #: Settlement deposits (Concent-style escrow backing forced
        #: payment when an audited debtor stops paying).
        self.deposits: Dict[NodeId, float] = {}

    # ------------------------------------------------------------------
    # request/collect
    # ------------------------------------------------------------------

    def request_reports(self, stage: str, node_ids: Sequence[NodeId]) -> None:
        """Send a signed report request to the given nodes."""
        self.reports[stage] = {}
        for node_id in sorted(node_ids, key=repr):
            message = Message(
                src=self.node_id,
                dst=node_id,
                kind=KIND_BANK_REQUEST,
                payload={"stage": stage},
            )
            if self.signing is not None:
                message = self.signing.sign(self.node_id, message)
            self.send_message(message)

    def on_bank_report(self, message: Message) -> None:
        """Collect one signed node report."""
        if self.signing is not None:
            self.signing.require_valid(message.src, message)
        stage = message.payload["stage"]
        self.reports.setdefault(stage, {})[message.src] = dict(message.payload)

    def _stage_reports(self, stage: str) -> Dict[NodeId, Mapping[str, Any]]:
        if stage not in self.reports:
            raise ProtocolError(f"no reports collected for stage {stage!r}")
        return self.reports[stage]

    # ------------------------------------------------------------------
    # deposits
    # ------------------------------------------------------------------

    def fund_deposit(self, node_id: NodeId, amount: float) -> None:
        """Credit a node's settlement deposit."""
        if amount < 0:
            raise ProtocolError(f"deposit amount must be >= 0, got {amount}")
        self.deposits[node_id] = self.deposits.get(node_id, 0.0) + amount

    def deposit_balance(self, node_id: NodeId) -> float:
        """A node's current deposit balance (0 when never funded)."""
        return self.deposits.get(node_id, 0.0)

    # ------------------------------------------------------------------
    # checkpoint decisions
    # ------------------------------------------------------------------

    def decide_phase1(self, node_ids: Sequence[NodeId]) -> CheckpointDecision:
        """All DATA1 digests must agree across the whole network."""
        reports = self._stage_reports("phase1")
        digests = {n: reports[n]["cost_digest"] for n in node_ids if n in reports}
        missing = [n for n in node_ids if n not in reports]
        distinct = set(digests.values())
        green = not missing and len(distinct) <= 1
        suspects: List[NodeId] = []
        if len(distinct) > 1:
            # The minority digest holders are the suspects.
            by_digest: Dict[str, List[NodeId]] = {}
            for node, digest in digests.items():
                by_digest.setdefault(digest, []).append(node)
            majority = max(by_digest.values(), key=len)
            suspects = sorted(
                (n for group in by_digest.values() if group is not majority for n in group),
                key=repr,
            )
        return CheckpointDecision(
            checkpoint="phase1",
            green_light=green,
            suspects=suspects + sorted(missing, key=repr),
            digest_groups={"__all__": digests} if digests else {},
        )

    def _decide_group_stage(
        self,
        stage: str,
        own_key: str,
        mirror_key: str,
        checker_map: Mapping[NodeId, Sequence[NodeId]],
        honor_flags: bool = True,
    ) -> CheckpointDecision:
        """Shared BANK1/BANK2 logic: per-principal digest groups.

        For each principal the group contains the principal's own
        digest plus every checker's mirrored digest; all members must
        be equal.  Checker flags also veto the green light unless
        ``honor_flags`` is disabled (an ablation: digest comparison
        alone misses update *suppression*, where the principal's own
        tables and every mirror agree but neighbours were starved).
        """
        reports = self._stage_reports(stage)
        suspects: List[NodeId] = []
        flags: List[Flag] = []
        digest_groups: Dict[NodeId, Dict[NodeId, str]] = {}

        if honor_flags:
            for _node_id, report in reports.items():
                for encoded in report.get("flags", ()):
                    flags.append(decode_flag(encoded))

        for principal, checkers in sorted(checker_map.items(), key=repr):
            group: Dict[NodeId, str] = {}
            principal_report = reports.get(principal)
            if principal_report is None:
                suspects.append(principal)
                continue
            group[principal] = principal_report[own_key]
            for checker in checkers:
                checker_report = reports.get(checker)
                if checker_report is None:
                    suspects.append(checker)
                    continue
                mirror_digests = dict(checker_report.get(mirror_key, ()))
                if principal in mirror_digests:
                    group[checker] = mirror_digests[principal]
            digest_groups[principal] = group
            if len(set(group.values())) > 1:
                suspects.append(principal)
                flags.append(
                    Flag.make(
                        FlagKind.DIGEST_MISMATCH,
                        checker=None,
                        principal=principal,
                        phase=stage,
                    )
                )

        for flag in flags:
            if flag.principal not in suspects:
                suspects.append(flag.principal)

        green = not suspects and not flags
        return CheckpointDecision(
            checkpoint=stage,
            green_light=green,
            suspects=sorted(set(suspects), key=repr),
            flags=flags,
            digest_groups=digest_groups,
        )

    def decide_bank1(
        self,
        checker_map: Mapping[NodeId, Sequence[NodeId]],
        honor_flags: bool = True,
    ) -> CheckpointDecision:
        """[BANK1]: routing tables (DATA2) comparison."""
        return self._decide_group_stage(
            "bank1",
            "routing_digest",
            "mirror_routing",
            checker_map,
            honor_flags=honor_flags,
        )

    def decide_bank2(
        self,
        checker_map: Mapping[NodeId, Sequence[NodeId]],
        honor_flags: bool = True,
    ) -> CheckpointDecision:
        """[BANK2]: pricing tables (DATA3*, tags included) comparison."""
        return self._decide_group_stage(
            "bank2",
            "pricing_digest",
            "mirror_pricing",
            checker_map,
            honor_flags=honor_flags,
        )

    # ------------------------------------------------------------------
    # execution settlement
    # ------------------------------------------------------------------

    def settle(
        self,
        node_ids: Sequence[NodeId],
        declared_costs: Mapping[NodeId, float],
        epsilon: float = 0.01,
        tolerance: float = 1e-9,
    ) -> Tuple[Dict[NodeId, SettlementRecord], List[Flag]]:
        """Reconcile execution reports into enforced transfers.

        Runs the columnar engine; returns per-node settlement records
        (received / charged / penalties) and the flags raised during
        reconciliation, bit-identical to :meth:`settle_per_flow`.
        """
        # The bank can settle without ever being attached to a
        # simulator (unit-level reconciliation); sim-time is optional.
        sim_time = self.now if self._sim is not None else None
        with span(
            "bank.settle", sim_time=sim_time, nodes=len(node_ids)
        ) as settle_span:
            records, flags, stats = self._settle_impl(
                node_ids, declared_costs, epsilon, tolerance
            )
            settle_span.note(flags=len(flags))
            emit_counters(
                "bank",
                {
                    "settles": 1,
                    "flows_settled": stats.flows_settled,
                    "flow_groups": stats.flow_groups,
                    "transfer_records": stats.transfer_records,
                    "settlement_flags": len(flags),
                },
                sim_time=sim_time,
            )
        return records, flags

    def settle_netted(
        self,
        node_ids: Sequence[NodeId],
        declared_costs: Mapping[NodeId, float],
        ledger: Optional[NettingLedger] = None,
        closure_time: float = 0.0,
        epsilon: float = 0.01,
        tolerance: float = 1e-9,
    ) -> NettedSettlement:
        """Settle, then net the epoch's transfers into batch payments.

        Runs the same columnar reconciliation as :meth:`settle` (so
        records and flags are identical), recording every individual
        per-flow transfer as an obligation on ``ledger`` (a fresh
        ledger when None) accepted at ``closure_time`` — the settle
        appends the amounts straight into the ledger's pair lists —
        and closes the epoch: one net :class:`~repro.faithful.
        settlement.BatchTransfer` per debtor whose ``closure_time``
        covers every obligation accepted before it.  Net money
        positions of the batch transfers are bit-identical to the
        per-flow transfer list's (see :func:`~repro.faithful.
        settlement.net_positions`).
        """
        if ledger is None:
            ledger = NettingLedger()
        sim_time = self.now if self._sim is not None else None
        with span(
            "bank.net", sim_time=sim_time, nodes=len(node_ids)
        ) as net_span:
            records, flags, stats = self._settle_impl(
                node_ids,
                declared_costs,
                epsilon,
                tolerance,
                ledger=ledger,
                closure_time=closure_time,
            )
            transfers = ledger.close_epoch(closure_time)
            assert stats.transfers is not None
            payouts = sum(len(transfer.payouts) for transfer in transfers)
            net_span.note(transfers=len(transfers), payouts=payouts)
            emit_counters(
                "bank",
                {
                    "nets": 1,
                    "flows_settled": stats.flows_settled,
                    "flow_groups": stats.flow_groups,
                    "transfer_records": stats.transfer_records,
                    "net_transfers": len(transfers),
                    "net_payouts": payouts,
                    "settlement_flags": len(flags),
                },
                sim_time=sim_time,
            )
        return NettedSettlement(
            records=records,
            flags=flags,
            transfers=transfers,
            ledger=ledger,
            flows_settled=stats.flows_settled,
            flow_groups=stats.flow_groups,
            transfer_records=stats.transfer_records,
            per_flow_transfers=stats.transfers,
        )

    def run_forced_settlement(
        self,
        ledger: NettingLedger,
        at_time: float,
        epsilon: float = 0.01,
        tolerance: float = 1e-9,
    ):
        """Draw audited shortfalls from the defaulting debtors' deposits.

        Delegates to :func:`~repro.faithful.settlement.
        forced_settlement` against this bank's deposit accounts and
        emits the ``bank.forced_settlements`` / ``bank.deposit_draws``
        telemetry counters.
        """
        sim_time = self.now if self._sim is not None else None
        with span(
            "bank.forced", sim_time=sim_time
        ) as forced_span:
            outcomes = forced_settlement(
                ledger,
                self.deposits,
                epsilon=epsilon,
                at_time=at_time,
                tolerance=tolerance,
            )
            draws = sum(1 for outcome in outcomes if outcome.drawn > 0)
            forced_span.note(forced=len(outcomes), draws=draws)
            if outcomes:
                emit_counters(
                    "bank",
                    {"forced_settlements": len(outcomes), "deposit_draws": draws},
                    sim_time=sim_time,
                )
        return outcomes

    # --- per-flow reference engine (the oracle) ------------------------

    def settle_per_flow(
        self,
        node_ids: Sequence[NodeId],
        declared_costs: Mapping[NodeId, float],
        epsilon: float = 0.01,
        tolerance: float = 1e-9,
    ) -> Tuple[Dict[NodeId, SettlementRecord], List[Flag]]:
        """Reference settlement: walk one observation row at a time.

        The pre-columnar implementation, kept as the oracle the
        equivalence property tests compare :meth:`settle` against.
        """
        reports = self._stage_reports("execution")
        tally = _SettlementTally(node_ids)
        flags: List[Flag] = []

        receipts: Dict[NodeId, Dict[Tuple[NodeId, NodeId], Dict[NodeId, float]]] = {}
        for node_id in node_ids:
            table: Dict[Tuple[NodeId, NodeId], Dict[NodeId, float]] = {}
            for origin, destination, sender, volume in reports.get(node_id, {}).get(
                "receipts", ()
            ):
                table.setdefault((origin, destination), {})[sender] = volume
            receipts[node_id] = table

        # Checker-reported misroute flags feed straight into penalties.
        for node_id in node_ids:
            for encoded in reports.get(node_id, {}).get("flags", ()):
                flag = decode_flag(encoded)
                flags.append(flag)
                tally.penalties[flag.principal].append(epsilon)

        # Reconcile each observed origination (first-hop checker data).
        for checker_id in sorted(node_ids, key=repr):
            for origin, destination, volume, path, charges in reports.get(
                checker_id, {}
            ).get("observations", ()):
                path = tuple(path)
                charge_map = dict(charges)
                flow = (origin, destination)
                culprit = self._walk_flow(
                    flow, volume, path, receipts, node_ids, tally, flags, epsilon
                )
                # The origin owes the charges for segments that were
                # actually carried; a misrouting origin is charged the
                # full expected amount anyway (clawback) plus epsilon.
                carried_charges = 0.0
                for index, transit in enumerate(path[1:-1], start=1):
                    successor = path[index + 1]
                    carried = receipts.get(successor, {}).get(flow, {}).get(transit, 0.0)
                    if carried > 0:
                        amount = charge_map.get(transit, 0.0)
                        tally.received[transit].append(amount)
                        tally.expected[origin].append(amount)
                        carried_charges += amount
                if culprit == origin:
                    full = math.fsum(charge_map.values())
                    shortfall = max(0.0, full - carried_charges)
                    tally.charged[origin].append(carried_charges + shortfall)
                    tally.penalties[origin].append(epsilon)
                    self._reimburse_off_path(
                        flow, path, receipts, tally, declared_costs,
                        node_ids, funded_by=culprit,
                    )
                else:
                    tally.charged[origin].append(carried_charges)
                    if culprit is not None:
                        self._reimburse_off_path(
                            flow, path, receipts, tally, declared_costs,
                            node_ids, funded_by=culprit,
                        )

        return self._finalize_settlement(
            node_ids, reports, tally, flags, epsilon, tolerance
        )

    def _walk_flow(
        self,
        flow: Tuple[NodeId, NodeId],
        volume: float,
        path: Tuple[NodeId, ...],
        receipts: Mapping[NodeId, Mapping],
        node_ids: Sequence[NodeId],
        tally: _SettlementTally,
        flags: List[Flag],
        epsilon: float,
    ) -> Optional[NodeId]:
        """Trace a flow along its certified path; penalise the first
        node that failed to hand it to the expected successor.

        Returns the culprit (None when the flow completed cleanly).
        """
        previous = path[0]
        for node in path[1:]:
            received = receipts.get(node, {}).get(flow, {}).get(previous, 0.0)
            if received <= 0:
                misrouted = any(
                    receipts.get(other, {}).get(flow, {}).get(previous, 0.0) > 0
                    for other in node_ids
                    if other != node
                )
                kind = FlagKind.MISROUTE if misrouted else FlagKind.PACKET_DROP
                # The culprit's payment is already denied (it is not in
                # the carried set); the epsilon puts it strictly below
                # the faithful outcome.
                tally.penalties[previous].append(epsilon)
                flags.append(
                    Flag.make(
                        kind,
                        checker=None,
                        principal=previous,
                        phase="execution",
                        origin=flow[0],
                        destination=flow[1],
                        volume=volume,
                    )
                )
                return previous
            previous = node
        return None

    def _reimburse_off_path(
        self,
        flow: Tuple[NodeId, NodeId],
        certified_path: Tuple[NodeId, ...],
        receipts: Mapping[NodeId, Mapping],
        tally: _SettlementTally,
        declared_costs: Mapping[NodeId, float],
        node_ids: Sequence[NodeId],
        funded_by: NodeId,
    ) -> None:
        """Pay innocent off-LCP carriers their declared cost.

        When a flow was diverted off the certified path, nodes that
        carried it in good faith (they forwarded per their own correct
        tables) are reimbursed at declared cost so the deviation never
        externalises losses onto the obedient — and the *culprit* funds
        the reimbursement (its penalty covers the harm it caused, on
        top of the epsilon), keeping the settlement money-conserving.
        """
        on_path = set(certified_path)
        origin, destination = flow
        for node_id in node_ids:
            if node_id in on_path or node_id == destination:
                continue
            volume_in = math.fsum(
                receipts.get(node_id, {}).get(flow, {}).values()
            )
            if volume_in > 0:
                reimbursement = declared_costs.get(node_id, 0.0) * volume_in
                tally.received[node_id].append(reimbursement)
                tally.penalties[funded_by].append(reimbursement)

    # --- columnar engine ----------------------------------------------

    def _settle_impl(
        self,
        node_ids: Sequence[NodeId],
        declared_costs: Mapping[NodeId, float],
        epsilon: float,
        tolerance: float,
        ledger: Optional[NettingLedger] = None,
        closure_time: float = 0.0,
    ) -> Tuple[Dict[NodeId, SettlementRecord], List[Flag], SettlementStats]:
        """Grouped single-pass reconciliation over interned node ids.

        The working state is a few flat containers, so the tracked
        objects a settle keeps alive scale with ledger directions, not
        with flows or groups:

        * observation rows are grouped by their raw (origin,
          destination, certified path) — a dict from key to group id —
          and reordered group-major into one flat row list by a stable
          counting sort, so the path walk and the carried-segment mask
          run once per group and are replayed per row;
        * the settlement set and every id a group names are interned to
          the dense integers ``0 .. n-1`` before any receipt is read,
          so the receipt of ``receiver`` from ``sender`` for flow
          ``(origin, destination)`` lives in one dict under the int
          code ``((sender * n + origin) * n + destination) * n +
          receiver``; a sender outside those ids is interned on demand
          into the code's top digit, which no id width bounds;
        * the misroute and off-path scans, which need a flow's whole
          receipt set, run only when a group's walk breaks, and read a
          per-flow index of the receipt dict built on the first break.

        Contribution multisets — and therefore the materialised records
        and the flag multiset — are identical to :meth:`settle_per_flow`'s.

        With a ``ledger``, every per-flow transfer amount is appended
        straight into the ledger's direction list at ``closure_time``
        (lists resolved once per payer and payee; ``payer == payee``
        rows never reach the ledger) and collected in the returned
        :class:`PerFlowTransfers`.
        """
        reports = self._stage_reports("execution")
        tally = _SettlementTally(node_ids)
        flags: List[Flag] = []
        # Without a ledger, transfer amounts and payees go to a list
        # that keeps nothing.
        discard: deque = deque(maxlen=0)
        per_flow = PerFlowTransfers() if ledger is not None else None
        if per_flow is not None:
            payers, payees = per_flow._payers, per_flow._payees
            flow_amounts = per_flow._amounts
        else:
            payers = payees = flow_amounts = discard

        # -- group observation rows by their raw (origin, destination,
        #    certified path): a group id per key and one per row --
        group_of: Dict[Tuple[NodeId, NodeId, Tuple[NodeId, ...]], int] = {}
        sizes: List[int] = []
        arrival: List[Sequence] = []
        arrival_groups: List[int] = []
        for checker_id in sorted(node_ids, key=repr):
            for observation in reports.get(checker_id, {}).get("observations", ()):
                origin, destination, _volume, path, _charges = observation
                key = (origin, destination, tuple(path))
                gid = group_of.get(key)
                if gid is None:
                    gid = group_of[key] = len(sizes)
                    sizes.append(1)
                else:
                    sizes[gid] += 1
                arrival.append(observation)
                arrival_groups.append(gid)

        # Stable counting sort into group-major order; afterwards
        # ``ends[gid]`` is one past group ``gid``'s last row.
        ends = list(accumulate(sizes, initial=0))
        ends.pop()
        ordered: List[Any] = [None] * len(arrival)
        for observation, gid in zip(arrival, arrival_groups):
            ordered[ends[gid]] = observation
            ends[gid] += 1
        flows_settled = len(arrival)
        del arrival, arrival_groups

        # -- intern the settlement set, repr-sorted, then the foreign ids
        #    (outside it) that groups name, repr-sorted: ``n`` ids in
        #    all.  Receipt senders outside them are interned on demand
        #    past ``n`` --
        rank: Dict[NodeId, int] = {}
        names: List[NodeId] = []
        group_ids = set(map(itemgetter(0), group_of))
        group_ids.update(map(itemgetter(1), group_of))
        group_ids.update(chain.from_iterable(map(itemgetter(2), group_of)))
        group_ids.difference_update(node_ids)
        for node_id in chain(
            sorted(node_ids, key=repr), sorted(group_ids, key=repr)
        ):
            if node_id not in rank:
                rank[node_id] = len(names)
                names.append(node_id)
        n = len(names)
        nnn = n * n * n

        # -- ingest receipts into one dict keyed by the int code
        #    ``((sender * n + origin) * n + destination) * n + receiver``.
        #    The sender is the top digit, so a sender interned on demand
        #    cannot overflow into the others; a receipt whose origin or
        #    destination is not among the first ``n`` ids (no group
        #    names it) matches no flow and is skipped --
        receipts: Dict[int, float] = {}
        get_rank = rank.get
        for node_id in node_ids:
            receiver = rank[node_id]
            for origin, destination, sender, volume in reports.get(
                node_id, {}
            ).get("receipts", ()):
                origin_nid = get_rank(origin, n)
                destination_nid = get_rank(destination, n)
                if origin_nid >= n or destination_nid >= n:
                    continue
                sender_nid = get_rank(sender)
                if sender_nid is None:
                    sender_nid = rank[sender] = len(names)
                    names.append(sender)
                receipts[
                    ((sender_nid * n + origin_nid) * n + destination_nid) * n
                    + receiver
                ] = volume

        flow_index: Dict[int, List[Tuple[int, int, float]]] = {}

        def flow_receipts(flow: int) -> List[Tuple[int, int, float]]:
            """A flow's ``(receiver, sender, volume)`` receipts, in ingest
            order; the index is built on the first call."""
            if not flow_index and receipts:
                for code, volume in receipts.items():
                    sender, rest = divmod(code, nnn)
                    flow_code, receiver = divmod(rest, n)
                    entries = flow_index.get(flow_code)
                    if entries is None:
                        flow_index[flow_code] = [(receiver, sender, volume)]
                    else:
                        entries.append((receiver, sender, volume))
            return flow_index.get(flow, [])

        # Checker-reported misroute flags feed straight into penalties.
        for node_id in node_ids:
            for encoded in reports.get(node_id, {}).get("flags", ()):
                flag = decode_flag(encoded)
                flags.append(flag)
                tally.penalties[flag.principal].append(epsilon)

        # payer nid * n + payee nid -> the ledger list its amounts join.
        owed_lists: Dict[int, Any] = {}

        def owed(payer: int, payee: int) -> Any:
            terms = owed_lists.get(payer * n + payee)
            if terms is None:
                if ledger is None or payer == payee:
                    terms = discard
                else:
                    terms = ledger.obligation_terms(
                        names[payer], names[payee], closure_time
                    )
                owed_lists[payer * n + payee] = terms
            return terms

        transfer_records = 0
        for gid, (origin, destination, path) in enumerate(group_of):
            end = ends[gid]
            rows = ordered[end - sizes[gid]:end]
            origin_nid = rank[origin]
            flow = origin_nid * n + rank[destination]
            flow_n = flow * n
            pkey = [rank[hop] for hop in path]

            # Walk the certified path once per group: first hop whose
            # receipts from its predecessor are missing is the break,
            # and its predecessor the culprit.
            culprit: Optional[NodeId] = None
            culprit_nid = -1
            culprit_kind = FlagKind.PACKET_DROP
            previous = pkey[0]
            for hop in pkey[1:]:
                if receipts.get(previous * nnn + flow_n + hop, 0.0) <= 0:
                    misrouted = any(
                        receiver != hop and sender == previous and volume > 0
                        for receiver, sender, volume in flow_receipts(flow)
                    )
                    culprit_nid = previous
                    culprit = names[previous]
                    culprit_kind = (
                        FlagKind.MISROUTE if misrouted else FlagKind.PACKET_DROP
                    )
                    break
                previous = hop

            # Carried-segment mask, with the per-node contribution
            # lists and ledger lists resolved once per group.
            carried: List[Tuple[NodeId, List[float], Any]] = []
            for index in range(1, len(pkey) - 1):
                transit_nid = pkey[index]
                if receipts.get(transit_nid * nnn + flow_n + pkey[index + 1], 0.0) > 0:
                    transit = path[index]
                    payers.append(origin)
                    payees.append(transit)
                    carried.append(
                        (
                            transit,
                            tally.received[names[transit_nid]],
                            owed(origin_nid, transit_nid),
                        )
                    )

            expected_list = tally.expected[origin]
            charged_list = tally.charged[origin]

            # Off-path reimbursements: only actual carriers of this
            # flow are scanned (the per-flow engine walks every node).
            reimbursements: List[Tuple[List[float], Any, float]] = []
            culprit_penalties: List[float] = []
            if culprit is not None:
                culprit_penalties = tally.penalties[culprit]
                on_path = set(pkey)
                destination_nid = rank[destination]
                volumes_in: Dict[int, List[float]] = {}
                for receiver, _sender, volume in flow_receipts(flow):
                    if receiver not in on_path and receiver != destination_nid:
                        volumes_in.setdefault(receiver, []).append(volume)
                for receiver, volumes in volumes_in.items():
                    volume_in = math.fsum(volumes)
                    if volume_in > 0:
                        carrier = names[receiver]
                        payers.append(culprit)
                        payees.append(carrier)
                        reimbursements.append(
                            (
                                tally.received[carrier],
                                owed(culprit_nid, receiver),
                                declared_costs.get(carrier, 0.0) * volume_in,
                            )
                        )
            if per_flow is not None and (carried or reimbursements):
                per_flow._group_ends.append(len(payers))
                per_flow._row_counts.append(len(rows))

            culprit_is_origin = culprit == origin
            transfer_records += len(carried) * len(rows)
            last_charges: Any = None
            for _origin, _destination, volume, _path, charges in rows:
                # Repeated rows usually share one charges list.
                if charges is not last_charges:
                    last_charges = charges
                    charge_map = dict(charges)
                if culprit is not None:
                    culprit_penalties.append(epsilon)
                    flags.append(
                        Flag.make(
                            culprit_kind,
                            checker=None,
                            principal=culprit,
                            phase="execution",
                            origin=origin,
                            destination=destination,
                            volume=volume,
                        )
                    )
                carried_charges = 0.0
                for transit, received_list, owed_list in carried:
                    amount = charge_map.get(transit, 0.0)
                    received_list.append(amount)
                    expected_list.append(amount)
                    owed_list.append(amount)
                    flow_amounts.append(amount)
                    carried_charges += amount
                if culprit_is_origin:
                    full = math.fsum(charge_map.values())
                    shortfall = max(0.0, full - carried_charges)
                    charged_list.append(carried_charges + shortfall)
                    tally.penalties[origin].append(epsilon)
                else:
                    charged_list.append(carried_charges)
                for received_list, owed_list, amount in reimbursements:
                    received_list.append(amount)
                    culprit_penalties.append(amount)
                    owed_list.append(amount)
                    flow_amounts.append(amount)

        records, flags = self._finalize_settlement(
            node_ids, reports, tally, flags, epsilon, tolerance
        )
        stats = SettlementStats(
            flows_settled=flows_settled,
            flow_groups=len(group_of),
            transfer_records=transfer_records,
            transfers=per_flow,
        )
        return records, flags, stats

    # --- shared settlement tail ----------------------------------------

    def _finalize_settlement(
        self,
        node_ids: Sequence[NodeId],
        reports: Mapping[NodeId, Mapping[str, Any]],
        tally: _SettlementTally,
        flags: List[Flag],
        epsilon: float,
        tolerance: float,
    ) -> Tuple[Dict[NodeId, SettlementRecord], List[Flag]]:
        """Compare reported DATA4 totals, materialise, sort flags."""
        records = {n: SettlementRecord() for n in node_ids}
        for node_id in sorted(node_ids, key=repr):
            reported = dict(reports.get(node_id, {}).get("reported_payments", ()))
            reported_total = math.fsum(reported.values())
            expected_total = math.fsum(tally.expected[node_id])
            record = records[node_id]
            record.reported_total = reported_total
            record.expected_total = expected_total
            if reported_total < expected_total - tolerance:
                shortfall = expected_total - reported_total
                tally.penalties[node_id].append(shortfall + epsilon)
                flags.append(
                    Flag.make(
                        FlagKind.PAYMENT_UNDERREPORT,
                        checker=None,
                        principal=node_id,
                        phase="execution",
                        shortfall=shortfall,
                    )
                )
        for node_id in node_ids:
            record = records[node_id]
            record.received = math.fsum(tally.received[node_id])
            record.charged = math.fsum(tally.charged[node_id])
            record.penalties = math.fsum(tally.penalties[node_id])
        flags.sort(key=Flag.sort_key)
        return records, flags
