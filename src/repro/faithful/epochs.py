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
later epoch repairs the live network at quiescence, the way
:class:`~repro.routing.dynamic.DynamicTopologyEngine` does:

1. The epoch's link events change the simulator's topology, and a
   changed cost is re-declared through the ordinary ``cost-decl``
   flood.  Every node holds the flooded declarations; no kernel
   changes yet (``phase1_events`` counts the flood).
2. At the boundary each checker re-runs the checker-setup handshake
   on the new graph.  A checker that gained a principal across a
   fresh link takes over the replay the principal's other checkers
   verified: it joins the pooled log at its frontier, or, without a
   pool, forks another checker's log.  Only then are the mirrors of
   lost principals dropped; their flags were collected at the last
   checkpoint.
3. Every principal appends one *re-anchor op* to the replay log it
   writes (:meth:`~repro.routing.kernel.SharedKernel.anchor`): its new
   neighbour set, its declared cost and the epoch's other DATA1
   changes, applied and settled in one step.  Every checker submits
   the same op derived from its own handshake lists and its own DATA1,
   so the seed rule covers each epoch's change: a match is a log hit,
   a mismatch forks the mirror.  Kernels change only through log ops.
   A principal that is no longer exactly ``FaithfulRoutingNode``
   stops leading here and continues on a fork of its own.
4. Both ends of a fresh link resend their full tables across it, then
   every node's topology kick announces the deltas its op settled, and
   the network reconverges (``phase2_events``).  A fresh-link checker
   expects the resend before the deltas.

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
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..obs.trace import emit_counters, emit_marker
from ..routing.convergence import link_delay
from ..routing.dynamic import verify_epoch_equivalence
from ..routing.graph import ASGraph, NodeId
from ..routing.kernel import KernelStats, MirrorKernelPool
from ..sim.churn import ChurnEvent, ChurnSchedule, apply_churn_epoch
from ..sim.simulator import Simulator
from .audit import Flag
from .node import FaithfulRoutingNode, encode_flag
from .protocol import (
    FaithfulNodeFactory,
    TrafficMatrix,
    anchor_checkers,
    build_checked_network,
    construct_checked,
    live_mirrors,
    originating_flows,
    run_execution,
    verify_mirror_agreement,
)
from .settlement import NettingLedger

#: Event kinds the faithful epoch runner accepts (membership-preserving).
CHECKED_EVENT_KINDS: Tuple[str, ...] = ("cost", "link-down", "link-up")


@dataclass
class CheckedEpoch:
    """One epoch: the initial construction (0), then one per batch.

    ``flags`` are the wire-encoded mirror flags raised *within this
    epoch's* checkpoint — the epoch a flag fired in is the epoch of the
    report holding it.
    """

    epoch: int
    events: Tuple[ChurnEvent, ...]
    graph: ASGraph
    #: Epoch 0: phase 1.  Later epochs: the re-declaration flood.
    phase1_events: int
    #: Epoch 0: phase 2.  Later epochs: the reconvergence after the
    #: re-anchor.
    phase2_events: int
    flags: List[Tuple] = field(default_factory=list)
    #: Messages sent and simulated time elapsed from the epoch's events
    #: to its quiescence checkpoint (flood and reconvergence; the whole
    #: construction for epoch 0), before any traffic.
    reconvergence_messages: int = 0
    reconvergence_time: float = 0.0
    #: Execution-phase results (zeros unless traffic was supplied).
    routed_flows: int = 0
    unroutable_flows: int = 0
    payments_total: float = 0.0
    #: Settlement netting results (zeros unless traffic was supplied):
    #: the epoch's declared payment deltas netted into one batch
    #: transfer per debtor vs. the per-flow transfer count.
    net_transfers: int = 0
    net_payouts: int = 0
    per_flow_transfers: int = 0


@dataclass
class CheckedChurnRun:
    """A checked network driven through reconvergence epochs."""

    simulator: Simulator
    nodes: Dict[NodeId, FaithfulRoutingNode]
    graph: ASGraph
    pool: Optional[MirrorKernelPool]
    initial: CheckedEpoch
    epochs: List[CheckedEpoch] = field(default_factory=list)
    #: The run's netting ledger: each epoch's declared DATA4 payment
    #: deltas recorded as obligations and closed into batch transfers
    #: (None when the run carried no traffic).
    ledger: Optional[NettingLedger] = None

    @property
    def all_flags(self) -> List[Tuple[int, Tuple]]:
        """Every flag of the run as ``(epoch, encoded_flag)``."""
        out = [(0, f) for f in self.initial.flags]
        for report in self.epochs:
            out.extend((report.epoch, f) for f in report.flags)
        return out

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
    pool = MirrorKernelPool() if shared_checking else None
    simulator, nodes = build_checked_network(
        graph, pool, link_delays, batch_delivery, node_factory
    )
    node_ids = tuple(sorted(nodes, key=repr))
    flows = originating_flows(traffic or {})
    ledger = NettingLedger() if traffic else None
    #: Last-seen declared payment totals per payer; the per-epoch
    #: delta is what gets recorded as this epoch's obligations.
    payment_snapshots: Dict[NodeId, Dict[NodeId, float]] = {
        n: {} for n in node_ids
    }

    def run_epoch(
        epoch: int,
        events: Tuple[ChurnEvent, ...],
        current: ASGraph,
        step: Callable[[], Tuple[int, int, List[Flag]]],
    ) -> CheckedEpoch:
        """Run one epoch's ``step`` to its checkpoint, then report it."""
        messages_before = simulator.metrics.total_messages
        time_before = simulator.now
        phase1_events, phase2_events, flags = step()
        flags.sort(key=Flag.sort_key)
        report = CheckedEpoch(
            epoch=epoch,
            events=tuple(events),
            graph=current,
            phase1_events=phase1_events,
            phase2_events=phase2_events,
            flags=[encode_flag(f) for f in flags],
            reconvergence_messages=(
                simulator.metrics.total_messages - messages_before
            ),
            reconvergence_time=simulator.now - time_before,
        )
        if ledger is not None:
            _route_epoch(report)
        if verify and not report.flags:
            # The fixed-point oracle describes honest tables only; a
            # deviant nobody flagged (a shielding coalition) keeps its
            # manipulated ones, which is evasion, not a convergence bug.
            if all(type(node) is FaithfulRoutingNode for node in nodes.values()):
                verify_epoch_equivalence(current, nodes)
            verify_mirror_agreement(nodes)
        if epoch > 0:
            emit_counters(
                "churn",
                {
                    "checked_epochs": 1,
                    "checked_flags": len(report.flags),
                    "reconvergence_events": phase1_events + phase2_events,
                    "reconvergence_messages": report.reconvergence_messages,
                },
            )
        return report

    def reconverge(
        index: int, events: Tuple[ChurnEvent, ...], current: ASGraph
    ) -> Tuple[int, int, List[Flag]]:
        """Apply one epoch at quiescence and repair in place."""
        topology = simulator.topology
        redeclared = set()
        for event in events:
            if event.kind == "cost":
                nodes[event.node].true_cost = float(event.cost)  # type: ignore[index,arg-type]
                redeclared.add(event.node)
            elif event.kind == "link-down":
                topology.remove_link(*event.link)  # type: ignore[misc]
            else:  # link-up
                a, b = event.link  # type: ignore[misc]
                topology.add_link(a, b, delay=link_delay(link_delays, a, b))
        for node_id in sorted(redeclared, key=repr):
            simulator.schedule_local(
                node_id, 0.0, nodes[node_id].redeclare_cost,
                label="churn-redeclare",
            )
        flood_events = simulator.run_until_quiescent(max_events=max_events)

        fresh = [
            (node_id, peer)
            for node_id in node_ids
            for peer in current.neighbors(node_id)
            if peer not in nodes[node_id].comp.neighbors  # type: ignore[union-attr]
        ]
        for principal, checker in fresh:
            if pool is not None:
                log, owns = pool.shared_log(principal), False
            else:
                source = next(
                    nodes[old].mirrors[principal]
                    for old in nodes[principal].comp.neighbors  # type: ignore[union-attr]
                )
                log, owns = source.own_fork(), True
            mirror = nodes[checker].make_mirror(principal)
            mirror.take_over(log, owns)  # type: ignore[arg-type]
            nodes[checker].mirrors[principal] = mirror
        anchor_checkers(nodes, current)
        for node_id in node_ids:
            nodes[node_id].reanchor()
        for node_id in node_ids:
            nodes[node_id].reanchor_mirrors()
        emit_marker("mirror.epoch", sim_time=simulator.now, epoch=index)

        # Fresh-link resends go first; the kicks' deltas apply on top.
        for sender, receiver in fresh:
            simulator.schedule_local(
                sender, 0.0,
                partial(nodes[sender].resend_full_tables, receiver),
                label=f"churn-resend:->{receiver}",
            )
        for node_id in node_ids:
            simulator.schedule_local(
                node_id, 0.0, nodes[node_id].react_to_topology_change,
                label="churn-react",
            )
        repair_events = simulator.run_until_quiescent(max_events=max_events)
        flags = [
            flag
            for _checker, _principal, mirror in live_mirrors(nodes)
            for flag in mirror.checkpoint_flags()
        ]
        return flood_events, repair_events, flags

    def _route_epoch(report: CheckedEpoch) -> None:
        before = sum(nodes[n].data4.total for n in node_ids)
        routable = []
        for source, destination, volume in flows:
            comp = nodes[source].comp
            assert comp is not None
            entry = comp.routing.entry(destination)
            if entry is None:
                report.unroutable_flows += 1
                continue
            routable.append((source, destination, volume))
            # One per-flow transfer per transit hop on the LCP — the
            # payment count netting is measured against.
            report.per_flow_transfers += max(0, len(entry.path) - 2)
        report.routed_flows = len(routable)
        run_execution(simulator, nodes, routable, max_events)
        report.payments_total = (
            sum(nodes[n].data4.total for n in node_ids) - before
        )
        _net_epoch(report)

    def _net_epoch(report: CheckedEpoch) -> None:
        """Net the epoch's declared payment deltas into batch transfers.

        Obligations are the *declared* DATA4 increments (what each
        payer owes its transit carriers for this epoch's flows);
        catching under-declaration is the settlement audit's job, not
        the netting layer's.
        """
        assert ledger is not None
        closure_time = float(report.epoch)
        for node_id in node_ids:
            snapshot = payment_snapshots[node_id]
            for payee, total in sorted(
                nodes[node_id].report_payments().items(), key=repr
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

    initial = run_epoch(
        0, (), graph,
        partial(construct_checked, simulator, nodes, graph, pool, max_events),
    )
    run = CheckedChurnRun(
        simulator=simulator,
        nodes=nodes,
        graph=graph,
        pool=pool,
        initial=initial,
        ledger=ledger,
    )
    current = graph
    for index, events in enumerate(schedule.epochs, start=1):
        if on_epoch_start is not None:
            on_epoch_start(index, nodes)
        current = apply_churn_epoch(current, events)
        current.require_biconnected()
        run.graph = current
        run.epochs.append(
            run_epoch(
                index, events, current,
                partial(reconverge, index, events, current),
            )
        )
    return run


__all__ = [
    "CHECKED_EVENT_KINDS",
    "CheckedChurnRun",
    "CheckedEpoch",
    "run_checked_churn",
]
