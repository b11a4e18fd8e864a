"""Protocol orchestration: faithful and plain FPSS mechanism runs.

Reproduces: Section 4 of Shneidman & Parkes (PODC'04).
:class:`FaithfulFPSSProtocol` drives the complete extended
specification: the two construction phases separated by bank
checkpoints (with restart semantics), then the execution phase with
settlement; checker mirrors replay principals through one shared
replay kernel per principal (:mod:`repro.routing.kernel`) unless
``shared_checking=False`` selects the per-neighbour reference path.
:class:`PlainFPSSProtocol` runs the original, trusting FPSS — no
checkers, no bank examination, reported payments taken at face value —
providing the baseline that shows *why* the extension is needed
(experiment E5).  :func:`run_checked_construction` isolates the fully
mirrored construction (no bank, no traffic) for the checker-scaling
benchmarks and parity tests; its step, :func:`construct_checked`, is
epoch 0 of :func:`~repro.faithful.epochs.run_checked_churn`, whose
later epochs re-anchor the live network in place.  All of them build
and run their phases through :mod:`repro.routing.convergence`.

Utility model (Section 4.3 assumptions):

* a node's money flow = payments received - charges paid - penalties;
* its real resource cost = true transit cost actually incurred;
* "every node wishes to make progress in the mechanism, and indeed has
  a strong negative value when a construction phase does not
  progress" — a run that exhausts its restart budget ends with every
  node receiving ``no_progress_utility``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from ..errors import ConvergenceError
from ..obs.trace import emit_marker
from ..routing.convergence import (
    TrafficMatrix,
    build_network,
    originating_flows,
    run_execution,
    run_phase,
    verify_against_oracle,
)
from ..routing.fpss import FPSSNode
from ..routing.graph import ASGraph, Cost, NodeId
from ..routing.kernel import KernelStats, MirrorKernelPool
from ..sim.crypto import SigningAuthority
from ..sim.simulator import Simulator
from .audit import DetectionReport, Flag
from .bank import BankNode
from .mirror import PrincipalMirror
from .node import BANK_ID, FaithfulRoutingNode, encode_flag

#: Builds the node for one vertex; manipulation strategies substitute
#: deviant subclasses for their target node here.
FaithfulNodeFactory = Callable[[NodeId, Cost, SigningAuthority], FaithfulRoutingNode]
PlainNodeFactory = Callable[[NodeId, Cost], FPSSNode]


@dataclass
class RunResult:
    """Everything a mechanism run produced."""

    progressed: bool
    utilities: Dict[NodeId, float]
    detection: DetectionReport
    received: Dict[NodeId, float] = field(default_factory=dict)
    charged: Dict[NodeId, float] = field(default_factory=dict)
    penalties: Dict[NodeId, float] = field(default_factory=dict)
    incurred: Dict[NodeId, float] = field(default_factory=dict)
    metrics: Dict[str, int] = field(default_factory=dict)
    construction_events: int = 0

    def utility_of(self, node_id: NodeId) -> float:
        """One node's realised utility."""
        return self.utilities[node_id]


def anchor_checkers(
    nodes: Mapping[NodeId, FaithfulRoutingNode], graph: ASGraph
) -> None:
    """The checker-setup handshake on ``graph``'s links.

    Mirrors of ex-neighbours are dropped (their flags were collected at
    an earlier checkpoint); every node learns its neighbours' links.
    """
    for node_id in sorted(nodes, key=repr):
        node = nodes[node_id]
        neighbors = graph.neighbors(node_id)
        for principal in tuple(node.mirrors):
            if principal not in neighbors:
                del node.mirrors[principal]
        node.prepare_checking(
            {neighbor: graph.neighbors(neighbor) for neighbor in neighbors}
        )


def live_mirrors(
    nodes: Mapping[NodeId, FaithfulRoutingNode]
) -> Iterator[Tuple[NodeId, NodeId, PrincipalMirror]]:
    """``(checker, principal, mirror)`` for every started mirror, in
    ``repr`` order of checker, then principal."""
    for node_id in sorted(nodes, key=repr):
        for principal, mirror in sorted(
            nodes[node_id].mirrors.items(), key=lambda kv: repr(kv[0])
        ):
            if mirror.comp is not None:
                yield node_id, principal, mirror


class FaithfulFPSSProtocol:
    """One complete run of the extended (faithful) FPSS specification.

    Parameters
    ----------
    graph:
        The AS graph with *true* transit costs (deviant nodes may
        declare otherwise through their node subclass).
    traffic:
        Execution-phase traffic matrix.
    node_factory:
        Optional substitution hook for deviant node subclasses.
    max_restarts:
        Restart budget per construction checkpoint before the run is
        declared non-progressing.
    epsilon:
        The execution-phase penalty margin ("epsilon-above the
        attempted deviation").
    no_progress_utility:
        Utility assigned to every node when construction never
        certifies.
    shared_checking:
        Share one replay kernel per principal across all of its
        checkers within this (single-process) run — the
        :class:`~repro.routing.kernel.MirrorKernelPool` dedup; flags
        and digests are bit-identical either way (the sharing
        invariant is verified per mirror, never assumed).  ``False``
        gives every mirror a replay log of its own, the per-neighbour
        reference path.
    """

    def __init__(
        self,
        graph: ASGraph,
        traffic: TrafficMatrix,
        node_factory: Optional[FaithfulNodeFactory] = None,
        max_restarts: int = 2,
        epsilon: float = 0.01,
        no_progress_utility: float = -1000.0,
        max_events: int = 2_000_000,
        link_delays=1.0,
        bank_honors_flags: bool = True,
        node_adapters: Optional[Callable[[FaithfulRoutingNode], None]] = None,
        shared_checking: bool = True,
    ) -> None:
        graph.require_biconnected()
        self.graph = graph
        self.traffic = dict(traffic)
        self.node_factory = node_factory or FaithfulRoutingNode
        self.max_restarts = max_restarts
        self.epsilon = epsilon
        self.no_progress_utility = no_progress_utility
        self.max_events = max_events
        #: Constant, mapping, or callable per-link delay (asynchrony).
        self.link_delays = link_delays
        #: Ablation switch: when False, BANK1/BANK2 compare digests
        #: only and ignore checker flags (used to show the flags are a
        #: necessary ingredient, not redundancy).
        self.bank_honors_flags = bank_honors_flags
        #: Optional hook applied to every node after construction,
        #: e.g. installing failure adapters for the Section 5
        #: experiments (omission faults on obedient nodes).
        self.node_adapters = node_adapters
        self.shared_checking = shared_checking
        #: The run's shared-replay pool (None until :meth:`run`, or
        #: with ``shared_checking=False``); exposes dedup counters.
        self.mirror_pool: Optional[MirrorKernelPool] = None
        #: The built network and bank (None until :meth:`run`); the
        #: bank retains the collected stage reports, so callers can
        #: re-settle them (e.g. per-flow vs. columnar equivalence).
        self.nodes: Optional[Dict[NodeId, FaithfulRoutingNode]] = None
        self.bank: Optional[BankNode] = None

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _build(self) -> Tuple[Simulator, Dict[NodeId, FaithfulRoutingNode], BankNode]:
        signing = SigningAuthority()
        self.mirror_pool = MirrorKernelPool() if self.shared_checking else None

        def make_node(node_id: NodeId, cost: Cost) -> FaithfulRoutingNode:
            signing.register(node_id)
            node = self.node_factory(node_id, cost, signing)
            if self.node_adapters is not None:
                self.node_adapters(node)
            node.mirror_pool = self.mirror_pool
            return node

        simulator, nodes = build_network(self.graph, make_node, self.link_delays)
        signing.register(BANK_ID)
        bank = BankNode(signing)
        simulator.add_node(bank, well_known=True)
        return simulator, nodes, bank

    def _quiesce(self, simulator: Simulator) -> int:
        return simulator.run_until_quiescent(max_events=self.max_events)

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute construction -> checkpoints -> execution -> settle."""
        simulator, nodes, bank = self._build()
        # Expose the built network so callers (e.g. the settlement
        # equivalence tests) can re-settle the collected reports.
        self.nodes = nodes
        self.bank = bank
        node_ids = tuple(sorted(nodes, key=repr))
        detection = DetectionReport()

        certified, construction_events = self._certify(
            simulator, nodes, bank, detection, "phase1", ("phase1",)
        )
        if certified:
            anchor_checkers(nodes, self.graph)
            certified, events = self._certify(
                simulator, nodes, bank, detection, "phase2", ("bank1", "bank2")
            )
            construction_events += events
        if not certified:
            return self._no_progress_result(
                simulator, nodes, detection, construction_events
            )

        # ---------------- execution phase ----------------------------
        run_execution(
            simulator, nodes, originating_flows(self.traffic), self.max_events
        )

        bank.request_reports("execution", node_ids)
        self._quiesce(simulator)
        records, settlement_flags = bank.settle(
            node_ids,
            declared_costs={n: nodes[n].comp.costs.cost(n) for n in node_ids},
            epsilon=self.epsilon,
        )
        detection.settlement_flags.extend(settlement_flags)

        utilities: Dict[NodeId, float] = {}
        received: Dict[NodeId, float] = {}
        charged: Dict[NodeId, float] = {}
        penalties: Dict[NodeId, float] = {}
        incurred: Dict[NodeId, float] = {}
        for node_id in node_ids:
            record = records[node_id]
            received[node_id] = record.received
            charged[node_id] = record.charged
            penalties[node_id] = record.penalties
            incurred[node_id] = nodes[node_id].incurred_cost
            utilities[node_id] = (
                record.received
                - record.charged
                - record.penalties
                - nodes[node_id].incurred_cost
            )

        return RunResult(
            progressed=True,
            utilities=utilities,
            detection=detection,
            received=received,
            charged=charged,
            penalties=penalties,
            incurred=incurred,
            metrics=simulator.metrics.summary(),
            construction_events=construction_events,
        )

    def _certify(
        self,
        simulator: Simulator,
        nodes: Mapping[NodeId, FaithfulRoutingNode],
        bank: BankNode,
        detection: DetectionReport,
        phase: str,
        stages: Tuple[str, ...],
    ) -> Tuple[bool, int]:
        """Run ``phase`` until every bank checkpoint green-lights it.

        Each attempt starts the phase on every node, then walks the
        checkpoint ``stages`` in order: the bank requests the stage's
        reports, the network quiesces, the bank decides, and a red
        light restarts the phase.  Returns whether the phase certified
        within the restart budget, and the events run.
        """
        node_ids = tuple(sorted(nodes, key=repr))
        # Every neighbour of a node is a checker for that node.
        checker_map = {n: self.graph.neighbors(n) for n in self.graph.nodes}
        events = 0
        for attempt in range(self.max_restarts + 1):
            emit_marker(
                "protocol.phase", sim_time=simulator.now, phase=phase,
                attempt=attempt,
            )
            if phase == "phase2" and self.mirror_pool is not None:
                # A restart replays the phase from scratch; restarted
                # mirrors must never attach to a consumed op log.
                self.mirror_pool.new_epoch()
                emit_marker("mirror.epoch", sim_time=simulator.now)
            events += run_phase(simulator, nodes, phase, self.max_events)
            for stage in stages:
                bank.request_reports(stage, node_ids)
                events += self._quiesce(simulator)
                if stage == "phase1":
                    decision = bank.decide_phase1(node_ids)
                elif stage == "bank1":
                    decision = bank.decide_bank1(
                        checker_map, honor_flags=self.bank_honors_flags
                    )
                else:
                    decision = bank.decide_bank2(
                        checker_map, honor_flags=self.bank_honors_flags
                    )
                detection.record(decision)
                if not decision.green_light:
                    break
            else:
                return True, events
        return False, events

    def _no_progress_result(
        self,
        simulator: Simulator,
        nodes: Mapping[NodeId, FaithfulRoutingNode],
        detection: DetectionReport,
        construction_events: int,
    ) -> RunResult:
        detection.progressed = False
        return RunResult(
            progressed=False,
            utilities={n: self.no_progress_utility for n in nodes},
            detection=detection,
            metrics=simulator.metrics.summary(),
            construction_events=construction_events,
        )


class PlainFPSSProtocol:
    """The original FPSS: trusting construction and settlement.

    Nodes exchange and believe each other's tables; at settlement each
    origin pays exactly what it *reports* owing, and transit nodes
    receive those reported amounts.  No deviation is ever detected —
    this is the baseline whose manipulation gains the faithful
    extension eliminates.
    """

    def __init__(
        self,
        graph: ASGraph,
        traffic: TrafficMatrix,
        node_factory: Optional[PlainNodeFactory] = None,
        max_events: int = 2_000_000,
        link_delays=1.0,
    ) -> None:
        graph.require_biconnected()
        self.graph = graph
        self.traffic = dict(traffic)
        self.node_factory = node_factory or FPSSNode
        self.max_events = max_events
        self.link_delays = link_delays

    def run(self) -> RunResult:
        """Construction to quiescence, traffic, trusting settlement."""
        simulator, nodes = build_network(
            self.graph, self.node_factory, self.link_delays
        )
        node_ids = tuple(sorted(nodes, key=repr))

        construction_events = 0
        for phase in ("phase1", "phase2"):
            emit_marker("protocol.phase", sim_time=simulator.now, phase=phase)
            construction_events += run_phase(
                simulator, nodes, phase, self.max_events
            )
        run_execution(
            simulator, nodes, originating_flows(self.traffic), self.max_events
        )

        # Trusting settlement: reported DATA4 is simply executed.
        received: Dict[NodeId, float] = {n: 0.0 for n in node_ids}
        charged: Dict[NodeId, float] = {n: 0.0 for n in node_ids}
        for node_id in node_ids:
            for payee, amount in nodes[node_id].report_payments().items():
                charged[node_id] += amount
                if payee in received:
                    received[payee] += amount

        utilities = {
            n: received[n] - charged[n] - nodes[n].incurred_cost for n in node_ids
        }
        return RunResult(
            progressed=True,
            utilities=utilities,
            detection=DetectionReport(),
            received=received,
            charged=charged,
            penalties={n: 0.0 for n in node_ids},
            incurred={n: nodes[n].incurred_cost for n in node_ids},
            metrics=simulator.metrics.summary(),
            construction_events=construction_events,
        )


@dataclass
class CheckedConstruction:
    """Result of a fully mirrored construction run (no bank, no traffic).

    The unit the checker-scaling benchmarks measure: every node both
    computes and checks all neighbours, and the run ends at phase-2
    quiescence with the quiescence-time mirror flags collected.
    """

    simulator: Simulator
    nodes: Dict[NodeId, FaithfulRoutingNode]
    phase1_events: int
    phase2_events: int
    flags: list
    #: Checking's own kernel work: the pool's counters (logs no
    #: principal leads, hits, forks) plus mirrors on logs of their own.
    #: A led log's kernel is its principal's ``comp`` and is not
    #: counted here, so an honest shared run counts hits and no kernel
    #: work.
    kernel_stats: KernelStats

    @property
    def metrics(self) -> Dict[str, int]:
        """The simulator's aggregate work counters."""
        return self.simulator.metrics.summary()


def build_checked_network(
    graph: ASGraph,
    pool: Optional[MirrorKernelPool],
    link_delays=1.0,
    batch_delivery: bool = True,
    node_factory: Optional[FaithfulNodeFactory] = None,
) -> Tuple[Simulator, Dict[NodeId, FaithfulRoutingNode]]:
    """A fully mirrored network: no bank, every mirror on ``pool``."""
    graph.require_biconnected()
    return build_network(
        graph, checked_node_factory(pool, node_factory), link_delays, batch_delivery
    )


def checked_node_factory(
    pool: Optional[MirrorKernelPool],
    node_factory: Optional[FaithfulNodeFactory] = None,
) -> Callable[[NodeId, Cost], FaithfulRoutingNode]:
    """``(node_id, cost) -> node`` for a fully mirrored network: no
    signing, every mirror on ``pool``."""
    factory = node_factory or FaithfulRoutingNode

    def make_node(node_id: NodeId, cost: Cost) -> FaithfulRoutingNode:
        node = factory(node_id, cost, None)
        node.mirror_pool = pool
        return node

    return make_node


def construct_checked(
    simulator: Simulator,
    nodes: Mapping[NodeId, FaithfulRoutingNode],
    graph: ASGraph,
    pool: Optional[MirrorKernelPool],
    max_events: int,
) -> Tuple[int, int]:
    """One checked construction on ``graph``: epoch 0 of a churn run.

    Phase 1, :func:`anchor_checkers`, the pool's epoch bump, phase 2.
    Returns both phases' event counts; the quiescence checkpoint is
    :func:`checkpoint_flags`.
    """
    emit_marker("protocol.phase", sim_time=simulator.now, phase="phase1")
    phase1_events = run_phase(simulator, nodes, "phase1", max_events)
    anchor_checkers(nodes, graph)
    if pool is not None:
        # Mirrors must never attach to a consumed op log.
        pool.new_epoch()
        emit_marker("mirror.epoch", sim_time=simulator.now, epoch=0)
    emit_marker("protocol.phase", sim_time=simulator.now, phase="phase2")
    phase2_events = run_phase(simulator, nodes, "phase2", max_events)
    return phase1_events, phase2_events


def checkpoint_flags(nodes: Mapping[NodeId, FaithfulRoutingNode]) -> List[Flag]:
    """Every live mirror's quiescence checkpoint flags, in
    :func:`live_mirrors` order."""
    return [
        flag
        for _checker, _principal, mirror in live_mirrors(nodes)
        for flag in mirror.checkpoint_flags()
    ]


def run_checked_construction(
    graph: ASGraph,
    link_delays=1.0,
    batch_delivery: bool = True,
    shared_checking: bool = True,
    max_events: int = 8_000_000,
    node_factory: Optional[FaithfulNodeFactory] = None,
) -> CheckedConstruction:
    """Drive both construction phases on a fully mirrored network.

    Every node is a :class:`FaithfulRoutingNode` checking all of its
    neighbours; there is no bank and no execution phase, so the result
    isolates exactly the checked-construction cost the shared replay
    kernel deduplicates; it is epoch 0 of
    :func:`~repro.faithful.epochs.run_checked_churn`.
    ``shared_checking`` toggles the
    :class:`~repro.routing.kernel.MirrorKernelPool` (True) against the
    per-neighbour reference replay (False); both produce bit-identical
    flags and digests.  Returns the quiesced network plus the
    quiescence-time checkpoint flags of every mirror (empty for an
    obedient network).
    """
    pool = MirrorKernelPool() if shared_checking else None
    simulator, nodes = build_checked_network(
        graph, pool, link_delays, batch_delivery, node_factory
    )
    phase1_events, phase2_events = construct_checked(
        simulator, nodes, graph, pool, max_events
    )
    flags = checkpoint_flags(nodes)
    kernel_stats = pool.collected_stats() if pool is not None else KernelStats()
    for _checker, _principal, mirror in live_mirrors(nodes):
        # Forked and seed-mismatched mirrors follow logs of their own;
        # their work lives on those kernels, not the pool.
        private = mirror.private_kernel_stats()
        if private is not None:
            kernel_stats.merge(private)
    return CheckedConstruction(
        simulator=simulator,
        nodes=nodes,
        phase1_events=phase1_events,
        phase2_events=phase2_events,
        flags=flags,
        kernel_stats=kernel_stats,
    )


def verify_mirror_agreement(nodes: Mapping[NodeId, FaithfulRoutingNode]) -> None:
    """Every live mirror's replayed digests equal its principal's own.

    The BANK1/BANK2 comparison without the bank; raises
    :class:`~repro.errors.ConvergenceError` naming the first mirror
    that disagrees.
    """
    for node_id, principal, mirror in live_mirrors(nodes):
        principal_comp = nodes[principal].comp
        assert principal_comp is not None
        if (
            mirror.routing_digest() != principal_comp.routing_digest()
            or mirror.pricing_digest() != principal_comp.pricing_digest()
        ):
            raise ConvergenceError(
                f"mirror of {principal!r} at {node_id!r} disagrees "
                f"with the principal's own tables"
            )


def verify_checked_network(graph: ASGraph, checked: CheckedConstruction) -> None:
    """Assert a checked run converged correctly and consistently.

    Three layers: no mirror raised a flag at quiescence, every mirror's
    replayed digests equal its principal's own table digests (the
    BANK1/BANK2 comparison, without the bank), and every node's tables
    equal the centralized routing oracle.

    Raises
    ------
    ConvergenceError
        On the first flag, digest disagreement, or oracle mismatch.
    """
    if checked.flags:
        raise ConvergenceError(
            f"checked run raised {len(checked.flags)} flag(s): "
            f"{checked.flags[:3]!r}"
        )
    verify_mirror_agreement(checked.nodes)
    verify_against_oracle(graph, checked.nodes)


def collect_construction_flags(
    nodes: Dict[NodeId, FaithfulRoutingNode]
) -> list:
    """Quiescence-time mirror flags across a network, stably ordered.

    Encodes each :class:`~repro.faithful.audit.Flag` via
    ``encode_flag`` after sorting by :meth:`~repro.faithful.audit.
    Flag.sort_key`, so two runs of one scenario can be compared for
    bit-identical detection output regardless of mirror iteration
    order.
    """
    flags: list = []
    for node_id in sorted(nodes, key=repr):
        node = nodes[node_id]
        flags.extend(node.execution_flags)
        for _principal, mirror in sorted(
            node.mirrors.items(), key=lambda kv: repr(kv[0])
        ):
            flags.extend(mirror.flags)
    flags.sort(key=Flag.sort_key)
    return [encode_flag(f) for f in flags]
