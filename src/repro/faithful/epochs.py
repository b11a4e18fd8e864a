"""Checked (faithful) construction across reconvergence epochs.

Reproduces: Section 4 of Shneidman & Parkes (PODC'04), extended to the
recomputation setting the paper's faithfulness claims assume: when the
network changes, every principal's computation and every checker
mirror replaying it must move onto the new topology together.

Epoch semantics
---------------
:func:`run_checked_churn` drives a fully mirrored network (every node a
:class:`~repro.faithful.node.FaithfulRoutingNode` checking all of its
neighbours) through an initial construction plus one reconvergence
epoch per entry of a :class:`~repro.sim.churn.ChurnSchedule`.  Epoch 0
is :func:`~repro.faithful.protocol.construct_checked`, the step
:func:`~repro.faithful.protocol.run_checked_construction` runs.  Every
later epoch is the epoch step of
:class:`~repro.routing.dynamic.DynamicTopologyEngine`; only its one
boundary op differs, because each kernel's view of the epoch comes
from the node itself rather than from the graph diff:

1. A changed cost is re-declared through the ordinary ``cost-decl``
   flood.  Every node holds the flooded declarations; no kernel
   changes yet (``phase1_events`` counts the flood).
2. Each checker re-runs the checker-setup handshake on the new graph.
   A checker that gained a principal across a fresh link takes over
   the replay the principal's other checkers verified: it joins the
   pooled log at its frontier, or, without a pool, forks another
   checker's log.  Mirrors of lost principals are dropped; their
   flags were collected at the last checkpoint.
3. Every principal appends one *re-anchor op* to the replay log it
   writes (:meth:`~repro.routing.kernel.SharedKernel.anchor`), from
   its :meth:`~repro.faithful.node.FaithfulRoutingNode.anchor_view` of
   the held flood, and settles it.  Every checker submits the op it
   derives from its own handshake lists and DATA1: a match is a log
   hit, a mismatch forks the mirror.  A principal that is no longer
   exactly ``FaithfulRoutingNode`` stops leading here and continues on
   a fork of its own.

The engine's resends and kick follow, and the network reconverges
(``phase2_events``); a fresh-link checker expects the resend first.

Detection flags carry the epoch they fired in: each
:class:`CheckedEpoch` holds exactly the flags its own quiescence
checkpoint produced (mirrors reset their flag lists when they submit
the re-anchor op), so a deviation injected in epoch *k* surfaces in
epoch *k*'s report, not smeared across the run.

Membership churn (``leave`` / ``join``) is rejected.  A joiner has no
checked history for a checker to take over, and a leaver's checkers
would hold mirrors of a principal the bank no longer settles with; the
bank and identity plumbing assume a fixed principal set.  Use
:mod:`repro.routing.dynamic` for membership churn on the plain
mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..obs.trace import emit_counters, emit_marker
from ..routing.convergence import ConvergenceStats
from ..routing.dynamic import ChurnRunResult, DynamicTopologyEngine, EpochReport
from ..routing.graph import ASGraph, NodeId
from ..routing.kernel import KernelStats, MirrorKernelPool
from ..routing.tables import RouteEntry
from ..sim.churn import ChurnEvent, ChurnSchedule
from .audit import Flag
from .node import FaithfulRoutingNode, encode_flag
from .protocol import (
    FaithfulNodeFactory,
    TrafficMatrix,
    anchor_checkers,
    checked_node_factory,
    checkpoint_flags,
    construct_checked,
    verify_mirror_agreement,
)
from .settlement import NettingLedger

#: Event kinds the faithful epoch runner accepts (membership-preserving).
CHECKED_EVENT_KINDS: Tuple[str, ...] = ("cost", "link-down", "link-up")


@dataclass
class CheckedEpoch(EpochReport):
    """One checked epoch: the initial construction (0), then one per batch.

    ``flags`` are the wire-encoded mirror flags raised *within this
    epoch's* checkpoint — the epoch a flag fired in is the epoch of the
    report holding it.
    """

    #: Epoch 0: phase 1.  Later epochs: the re-declaration flood.
    phase1_events: int = 0
    #: Epoch 0: phase 2.  Later epochs: the reconvergence after the
    #: re-anchor.
    phase2_events: int = 0
    flags: List[Tuple] = field(default_factory=list)
    #: Settlement netting results (zeros unless traffic was supplied):
    #: the epoch's declared payment deltas netted into one batch
    #: transfer per debtor vs. the per-flow transfer count.
    net_transfers: int = 0
    net_payouts: int = 0
    per_flow_transfers: int = 0


@dataclass
class CheckedChurnRun(ChurnRunResult):
    """A checked network driven through reconvergence epochs."""

    pool: Optional[MirrorKernelPool] = None
    #: The run's netting ledger: each epoch's declared DATA4 payment
    #: deltas recorded as obligations and closed into batch transfers
    #: (None when the run carried no traffic).
    ledger: Optional[NettingLedger] = None

    @property
    def all_flags(self) -> List[Tuple[int, Tuple]]:
        """Every flag of the run as ``(epoch, encoded_flag)``."""
        return [
            (report.epoch, flag)
            for report in (self.initial, *self.epochs)
            for flag in report.flags
        ]

    def kernel_stats(self) -> KernelStats:
        """The pool's counters over all epochs (zeroed without sharing).

        Hits, forks and seed refusals, plus the kernels of logs no
        principal led; a led log's kernel is its principal's ``comp``,
        counted there.
        """
        if self.pool is None:
            return KernelStats()
        return self.pool.collected_stats()

    @property
    def seed_mismatches(self) -> int:
        """Sharing refusals at epoch 0's phase-2 start."""
        return self.kernel_stats().seed_mismatches


class CheckedChurnEngine(DynamicTopologyEngine):
    """The dynamic engine on a fully mirrored network.

    Epoch 0 is a checked construction, each epoch's re-anchor view is
    every node's own held flood, reports carry the checkpoint's flags,
    and traffic is netted every epoch (with a ``ledger``).
    """

    report_type = CheckedEpoch

    def __init__(
        self,
        graph: ASGraph,
        pool: Optional[MirrorKernelPool],
        ledger: Optional[NettingLedger],
        on_epoch_start: Optional[Callable[[int, Dict], None]],
        node_factory: Optional[FaithfulNodeFactory] = None,
        **options,
    ) -> None:
        graph.require_biconnected()
        super().__init__(graph, checked_node_factory(pool, node_factory), **options)
        self.pool = pool
        self.ledger = ledger
        self.on_epoch_start = on_epoch_start
        #: Last-seen declared payment totals per payer; the per-epoch
        #: delta is what gets recorded as this epoch's obligations.
        self._payment_snapshots: Dict[NodeId, Dict[NodeId, float]] = {
            node_id: {} for node_id in graph.nodes
        }

    def run_epoch(self, events: Tuple[ChurnEvent, ...]) -> EpochReport:
        """Fire ``on_epoch_start``, then run the engine's epoch step."""
        if self.on_epoch_start is not None:
            self.on_epoch_start(self.epoch + 1, self.nodes)
        return super().run_epoch(events)

    def _construct(self) -> Tuple[int, int]:
        phase1_events, phase2_events = construct_checked(
            self.simulator, self.nodes, self.graph, self.pool, self.max_events
        )
        metrics = self.simulator.metrics
        self.initial_stats = ConvergenceStats(
            phase1_events, phase2_events,
            metrics.total_messages, metrics.total_computations,
        )
        return phase1_events, phase2_events

    def _reanchor(
        self,
        events: Tuple[ChurnEvent, ...],
        previous: ASGraph,
        fresh: List[Tuple[NodeId, NodeId]],
    ) -> int:
        """The checked boundary: flood, handshake, takeover, one op per
        replay log (steps 1-3 of the module docstring).  Returns the
        flood's events."""
        # The checking relation needs a biconnected graph.
        self.graph.require_biconnected()
        simulator, nodes, pool = self.simulator, self.nodes, self.pool
        redeclared = {event.node for event in events if event.kind == "cost"}
        for node_id in sorted(redeclared, key=repr):
            simulator.schedule_local(
                node_id, 0.0, nodes[node_id].redeclare_cost,
                label="churn-redeclare",
            )
        flood_events = simulator.run_until_quiescent(max_events=self.max_events)
        for principal, checker in fresh:
            if pool is not None:
                log, owns = pool.shared_log(principal), False
            else:
                source = next(
                    nodes[old].mirrors[principal]
                    for old in nodes[principal].comp.neighbors
                )
                log, owns = source.own_fork(), True
            mirror = nodes[checker].make_mirror(principal)
            mirror.take_over(log, owns)
            nodes[checker].mirrors[principal] = mirror
        anchor_checkers(nodes, self.graph)
        for node_id in self.active:
            node = nodes[node_id]
            node.reanchor(*node.anchor_view(node_id))
        for node_id in self.active:
            nodes[node_id].reanchor_mirrors()
        emit_marker("mirror.epoch", sim_time=simulator.now, epoch=self.epoch)
        return flood_events

    def _checkpoint(
        self, report: CheckedEpoch, boundary_events: int, settle_events: int
    ) -> None:
        """Collect the epoch's flags; after an unflagged epoch (with
        ``verify``) mirrors must agree with their principals and, when
        every node is obedient, tables equal the fixed point."""
        flags = checkpoint_flags(self.nodes)
        flags.sort(key=Flag.sort_key)
        report.phase1_events = boundary_events
        report.phase2_events = settle_events
        report.flags = [encode_flag(f) for f in flags]
        if not self.verify or report.flags:
            return
        # The fixed-point oracle describes honest tables only; a
        # deviant nobody flagged (a shielding coalition) keeps its
        # manipulated ones, which is evasion, not a convergence bug.
        if all(type(node) is FaithfulRoutingNode for node in self.nodes.values()):
            self.verify_equivalence()
        verify_mirror_agreement(self.nodes)

    def _counters(self, report: EpochReport) -> Dict[str, int]:
        return dict(super()._counters(report), flags=len(report.flags))

    def _result(self) -> CheckedChurnRun:
        return CheckedChurnRun(
            **vars(super()._result()), pool=self.pool, ledger=self.ledger
        )

    def _route(
        self, report: EpochReport, flows: List[Tuple[NodeId, NodeId, float]]
    ) -> List[RouteEntry]:
        routes = super()._route(report, flows)
        if self.ledger is not None:
            # One per-flow transfer per transit hop on the LCP — the
            # payment count netting is measured against.
            report.per_flow_transfers = sum(
                max(0, len(entry.path) - 2) for entry in routes
            )
            self._net(report)
        return routes

    def _net(self, report: CheckedEpoch) -> None:
        """Net the epoch's declared payment deltas into batch transfers.

        Obligations are the *declared* DATA4 increments (what each
        payer owes its transit carriers for this epoch's flows);
        catching under-declaration is the settlement audit's job, not
        the netting layer's.
        """
        ledger = self.ledger
        assert ledger is not None
        closure_time = float(report.epoch)
        for node_id in self.active:
            snapshot = self._payment_snapshots[node_id]
            for payee, total in sorted(
                self.nodes[node_id].report_payments().items(), key=repr
            ):
                delta = total - snapshot.get(payee, 0.0)
                if delta > 0 and payee != node_id:
                    ledger.record(
                        node_id, payee, delta, accepted_at=closure_time
                    )
                snapshot[payee] = total
        transfers = ledger.close_epoch(closure_time)
        report.net_transfers = len(transfers)
        report.net_payouts = sum(len(t.payouts) for t in transfers)
        emit_counters(
            "bank",
            {
                "nets": 1,
                "net_transfers": report.net_transfers,
                "net_payouts": report.net_payouts,
                "transfer_records": report.per_flow_transfers,
            },
        )


def run_checked_churn(
    graph: ASGraph,
    schedule: ChurnSchedule,
    traffic: Optional[TrafficMatrix] = None,
    shared_checking: bool = True,
    link_delays=1.0,
    batch_delivery: bool = True,
    max_events: int = 8_000_000,
    node_factory: Optional[FaithfulNodeFactory] = None,
    verify: bool = True,
    on_epoch_start: Optional[
        Callable[[int, Dict[NodeId, FaithfulRoutingNode]], None]
    ] = None,
) -> CheckedChurnRun:
    """Drive a fully mirrored network through reconvergence epochs.

    Every graph along the schedule (including the start) must be
    biconnected — the checking relation needs it.  With ``verify`` the
    runner asserts, after every unflagged epoch, that every live mirror
    agrees with its principal and, when every node is obedient (of
    exactly :class:`FaithfulRoutingNode`), that each node's DATA1/DATA2/
    DATA3* digests are bit-identical to the fixed point of the
    post-event graph (:func:`~repro.routing.engine.fixed_point_digests`).
    Optional ``traffic`` is routed after every epoch (including the
    initial construction), accruing per-epoch VCG payments on the
    reports.

    ``on_epoch_start(epoch, nodes)`` fires before each reconvergence
    epoch's events are applied — the injection seam for deviations that
    must start in a *later* epoch (a node turning rational mid-run),
    which is how the tests pin per-epoch detection.
    """
    for events in schedule.epochs:
        for event in events:
            if event.kind not in CHECKED_EVENT_KINDS:
                raise SimulationError(
                    f"checked churn supports kinds {CHECKED_EVENT_KINDS}, "
                    f"got {event.kind!r}; membership churn runs on the "
                    f"plain mechanism (repro.routing.dynamic)"
                )
    engine = CheckedChurnEngine(
        graph,
        MirrorKernelPool() if shared_checking else None,
        NettingLedger() if traffic else None,
        on_epoch_start,
        node_factory,
        link_delays=link_delays,
        batch_delivery=batch_delivery,
        verify=verify,
        max_events=max_events,
    )
    return engine.run(schedule, traffic)


__all__ = [
    "CHECKED_EVENT_KINDS",
    "CheckedChurnRun",
    "CheckedEpoch",
    "run_checked_churn",
]
