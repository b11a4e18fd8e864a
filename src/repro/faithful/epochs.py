"""Checked (faithful) construction across reconvergence epochs.

Reproduces: Section 4 of Shneidman & Parkes (PODC'04), extended to the
recomputation setting the paper's faithfulness claims assume: when the
network changes, the construction phases re-run and every checker
mirror must *re-anchor* on the new topology before replaying.

Epoch semantics
---------------
:func:`run_checked_churn` drives a fully mirrored network (every node a
:class:`~repro.faithful.node.FaithfulRoutingNode` checking all of its
neighbours) through an initial construction plus one reconvergence
epoch per entry of a :class:`~repro.sim.churn.ChurnSchedule`.  Each
epoch applies its events at network quiescence, then re-runs both
construction phases from scratch — the paper's recomputation protocol,
where DATA1 re-floods and phase 2 restarts on the post-event graph.
Every epoch runs :func:`~repro.faithful.protocol.construct_checked`,
the step :func:`~repro.faithful.protocol.run_checked_construction`
runs once: checked construction is epoch 0 of checked churn.

Mirror re-anchoring is the load-bearing invariant: with shared
checking, :meth:`~repro.routing.kernel.MirrorKernelPool.new_epoch` must
be called before every phase-2 (re)start so no restarted mirror ever
attaches to a consumed op log.  Skipping the bump (``epoch_bump=False``,
kept as a regression seam) is *detected, never silent*: a stale shared
kernel's seed no longer matches the checkers' freshly derived one, so
:meth:`~repro.routing.kernel.MirrorKernelPool.acquire` refuses to share
(counting ``seed_mismatches``) and every mirror starts a replay log of
its own — digests stay correct, the pool stats scream.

Detection flags carry the epoch they fired in: each
:class:`CheckedEpoch` holds exactly the flags its own quiescence
checkpoint produced (mirrors reset their flag lists when they re-anchor
at the epoch boundary), so a deviation injected in epoch *k* surfaces
in epoch *k*'s report, not smeared across the run.

Membership churn (``leave`` / ``join``) is out of scope here — the
checker relation "every neighbour checks the node" is rebuilt per
epoch, but the bank/identity plumbing assumes a fixed principal set;
use :mod:`repro.routing.dynamic` for membership churn on the plain
mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..obs.trace import emit_counters
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
    build_checked_network,
    construct_checked,
    originating_flows,
    run_execution,
    verify_mirror_agreement,
)
from .settlement import NettingLedger

#: Event kinds the faithful epoch runner accepts (membership-preserving).
CHECKED_EVENT_KINDS: Tuple[str, ...] = ("cost", "link-down", "link-up")


@dataclass
class CheckedEpoch:
    """One construction pass (epoch 0 = initial, then one per batch).

    ``flags`` are the wire-encoded mirror flags raised *within this
    epoch's* checkpoint — the epoch a flag fired in is the epoch of the
    report holding it.
    """

    epoch: int
    events: Tuple[ChurnEvent, ...]
    graph: ASGraph
    phase1_events: int
    phase2_events: int
    flags: List[Tuple] = field(default_factory=list)
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
        """Sharing refusals — nonzero when an epoch bump was missed."""
        return self.kernel_stats().seed_mismatches


def run_checked_churn(
    graph: ASGraph,
    schedule: ChurnSchedule,
    traffic: Optional[TrafficMatrix] = None,
    shared_checking: bool = True,
    epoch_bump: bool = True,
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
    ``epoch_bump=False`` deliberately skips the
    :meth:`~repro.routing.kernel.MirrorKernelPool.new_epoch` call on
    reconvergence (regression seam; see module docstring).  Optional
    ``traffic`` is routed after every epoch (including the initial
    construction), accruing per-epoch VCG payments on the reports.

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

    def construct(epoch: int, events: Tuple[ChurnEvent, ...], current: ASGraph) -> CheckedEpoch:
        phase1_events, phase2_events, flags = construct_checked(
            simulator, nodes, current, pool, max_events,
            epoch=epoch, bump=epoch == 0 or epoch_bump,
        )
        flags.sort(key=Flag.sort_key)

        report = CheckedEpoch(
            epoch=epoch,
            events=tuple(events),
            graph=current,
            phase1_events=phase1_events,
            phase2_events=phase2_events,
            flags=[encode_flag(f) for f in flags],
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
                },
            )
        return report

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

    initial = construct(0, (), graph)
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
        topology = simulator.topology
        for event in events:
            if event.kind == "cost":
                nodes[event.node].true_cost = float(event.cost)  # type: ignore[index,arg-type]
            elif event.kind == "link-down":
                a, b = event.link  # type: ignore[misc]
                topology.remove_link(a, b)
            else:  # link-up
                a, b = event.link  # type: ignore[misc]
                topology.add_link(a, b, delay=link_delay(link_delays, a, b))
        run.graph = current
        run.epochs.append(construct(index, events, current))
    return run


__all__ = [
    "CHECKED_EVENT_KINDS",
    "CheckedChurnRun",
    "CheckedEpoch",
    "run_checked_churn",
]
