"""The faithful FPSS participant: principal + checker in one node.

Reproduces: Section 4.2/4.3 of Shneidman & Parkes (PODC'04), "every
node in the biconnected network plays the role of both a principal
node and a checker node for all of its neighbors".  A
:class:`FaithfulRoutingNode` therefore extends the plain
:class:`~repro.routing.fpss.FPSSNode` with

* [PRINC1]/[PRINC2] message-passing duties: every received routing or
  pricing update is forwarded as a *checker copy* to all checkers
  (i.e. all neighbours) before the node recomputes and re-announces;
* [CHECK1]/[CHECK2] checker duties: a
  :class:`~repro.faithful.mirror.PrincipalMirror` per neighbour replays
  that neighbour's computation incrementally — through one
  :class:`~repro.routing.kernel.SharedKernel` per principal when a
  :class:`~repro.routing.kernel.MirrorKernelPool` is installed on
  :attr:`FaithfulRoutingNode.mirror_pool` — and accumulates flags;
* one principal computation path: the node's own kernel is the kernel
  of the replay log it writes (:attr:`FaithfulRoutingNode.replay_log`).
  An obedient node (exactly this class, no deviation mixin or
  collusion role) leads its checkers' pooled log, so each principal is
  computed once per host; any other node, or one whose seed the pool
  refuses, writes a log of its own that no mirror follows;
* signed bank reporting for the BANK1/BANK2 checkpoints and the
  execution-phase settlement;
* execution-phase observation: each packet received from a neighbour
  is checked against the mirrored routing table (off-LCP forwarding is
  flagged), and originations are logged so the bank can verify DATA4.

Deviation seams inherited from :class:`FPSSNode` (declared cost, the
``announce_routes`` / ``announce_prices`` broadcast seams, charges,
hops, payment reports) plus the new ``forward_copy_to_checkers`` and
digest-report seams are what the manipulation catalogue overrides;
``make_mirror`` is the collusion seam
(:mod:`repro.faithful.collusion`).  This class overrides the broadcast
seams only to ledger what it sends.  Routing and pricing updates share
one handler body (``on_table_update``) and one copy-to-checkers hook
(``after_update_input``), keyed by the message kind.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ProtocolError
from ..routing.fpss import (
    KIND_COST_DECL,
    KIND_PRICE_UPDATE,
    KIND_RT_UPDATE,
    FPSSNode,
    delta_size,
)
from ..routing.graph import Cost
from ..routing.kernel import MirrorKernelPool, SharedKernel
from ..sim.crypto import SigningAuthority
from ..sim.messages import Message, NodeId
from .audit import Flag, FlagKind
from .mirror import PrincipalMirror

#: Message kinds added by the faithful extension.
KIND_CHECKER_COPY = "checker-copy"
KIND_BANK_REQUEST = "bank-request"
KIND_BANK_REPORT = "bank-report"

#: The bank's well-known node id.
BANK_ID = "__bank__"


def encode_flag(flag: Flag) -> Tuple:
    """Wire encoding of a flag for bank reports."""
    return (flag.kind.value, flag.checker, flag.principal, flag.phase, flag.detail)


def decode_flag(encoded: Sequence) -> Flag:
    """Inverse of :func:`encode_flag`."""
    kind, checker, principal, phase, detail = encoded
    return Flag(
        kind=FlagKind(kind),
        checker=checker,
        principal=principal,
        phase=phase,
        detail=tuple((k, v) for k, v in detail),
    )


class FaithfulRoutingNode(FPSSNode):
    """An FPSS node following the extended (faithful) specification."""

    def __init__(
        self,
        node_id: NodeId,
        true_cost: Cost,
        signing: Optional[SigningAuthority] = None,
    ) -> None:
        super().__init__(node_id, true_cost)
        self.signing = signing
        #: One mirror per neighbour-principal.
        self.mirrors: Dict[NodeId, PrincipalMirror] = {}
        #: Host-level shared-replay pool (one per simulator process),
        #: installed by the protocol driver.  ``None`` gives every
        #: mirror a replay log of its own — the per-neighbour reference
        #: path standalone nodes and the equivalence tests use.
        self.mirror_pool: Optional[MirrorKernelPool] = None
        #: The replay log this node writes as a principal (None before
        #: phase 2); :attr:`comp` is its kernel.
        self.replay_log: Optional[SharedKernel] = None
        #: neighbour -> that neighbour's own neighbour set, provided by
        #: the checker-setup handshake before phase 2.
        self._neighbor_neighbors: Dict[NodeId, Tuple[NodeId, ...]] = {}
        #: Execution-phase observations of flows originated by
        #: neighbours (this node as their first hop).
        self.observed_originations: Dict[Tuple[NodeId, NodeId], float] = {}
        self.execution_flags: List[Flag] = []
        #: Checker copies accumulated during the current delivery batch,
        #: coalesced into one multicast per batch at the flush boundary.
        self._pending_copies: List[Tuple[str, NodeId, Tuple]] = []
        self._pending_copy_size = 0
        #: Declarations flooded during a checked churn epoch, held out
        #: of every kernel until the epoch's re-anchor op.
        self._held_costs: Dict[NodeId, Cost] = {}

    # ------------------------------------------------------------------
    # checker setup
    # ------------------------------------------------------------------

    def prepare_checking(
        self, neighbor_neighbors: Mapping[NodeId, Sequence[NodeId]]
    ) -> None:
        """Install the connectivity each mirror needs to replay.

        Connectivity is semi-private type information: each link is
        common knowledge to its two endpoints, and the checker-setup
        handshake shares a principal's neighbour list with its
        checkers (who jointly observe all of its links anyway).
        """
        self._neighbor_neighbors = {
            neighbor: tuple(ns) for neighbor, ns in neighbor_neighbors.items()
        }

    # ------------------------------------------------------------------
    # phase 2 with mirrors
    # ------------------------------------------------------------------

    def start_phase2(self) -> None:
        """Reset mirrors, then start the principal-role computation.

        With a :attr:`mirror_pool` installed, each mirror is attached
        to the pool's shared kernel for its principal — but only when
        the pool confirms this checker's independently derived seed
        (principal neighbours, declared cost, converged DATA1) matches
        the kernel's; on a seed mismatch the mirror starts a replay log
        of its own.
        """
        if self.comp is None:
            raise ProtocolError(f"{self.node_id!r} cannot enter phase 2 before 1")
        known_costs = self.comp.costs.as_dict()
        pool = self.mirror_pool
        for principal in self.neighbors:
            mirror = self.mirrors.get(principal)
            if mirror is None:
                mirror = self.make_mirror(principal)
                self.mirrors[principal] = mirror
            principal_neighbors = self._neighbor_neighbors.get(principal)
            if principal_neighbors is None:
                raise ProtocolError(
                    f"{self.node_id!r} has no connectivity info for "
                    f"principal {principal!r}; call prepare_checking first"
                )
            declared = self.comp.costs.cost(principal)
            shared = None
            if pool is not None:
                shared = pool.acquire(
                    principal, principal_neighbors, declared, known_costs
                )
            mirror.start_phase2(
                principal_neighbors,
                declared_cost=declared,
                known_costs=known_costs,
                shared=shared,
            )
        super().start_phase2()

    def make_mirror(self, principal: NodeId) -> PrincipalMirror:
        """A new mirror of ``principal``, this node's checker role.

        Collusion seam: a complicit checker returns a mirror that never
        flags the principal it shields.
        """
        return PrincipalMirror(self.node_id, principal)

    # --- the principal computes on the log it writes ------------------

    def _restart_computation(self) -> Tuple[Optional[Tuple], Optional[Tuple]]:
        """Start this phase's replay log and compute on its kernel.

        An obedient node leads its pool's log, seeded like its
        checkers' (:meth:`MirrorKernelPool.lead
        <repro.routing.kernel.MirrorKernelPool.lead>`); any other node,
        or one the pool refuses, writes a log of its own.  The log
        already ran the phase start, so its recorded deltas are the
        first announcements.
        """
        comp = self.comp
        assert comp is not None
        seed = (self.node_id, self.neighbors, comp.own_cost, comp.costs.as_dict())
        log = None
        if self.mirror_pool is not None and type(self) is FaithfulRoutingNode:
            log = self.mirror_pool.lead(*seed)
        if log is None:
            log = SharedKernel.seeded(*seed)
            log.led = True
        # Work counters carry across phase-2 restarts, as they did on
        # one kernel.
        log.kernel.stats.merge(comp.stats)
        self.replay_log = log
        self.comp = log.kernel
        return log.initial_route, log.initial_price

    def _ingest(self, kind: str, src: NodeId, rows: Tuple) -> None:
        """Append one received update to the log (its next op)."""
        log = self.replay_log
        assert log is not None
        log.ingest(log.frontier, kind, src, rows, lead=True)

    def _settle(self) -> Tuple[Optional[Tuple], Optional[Tuple]]:
        """Settle the batch as the log's next flush op."""
        log = self.replay_log
        assert log is not None
        _pos, route_delta, price_delta, _ran = log.flush(log.frontier, lead=True)
        return route_delta, price_delta

    # --- announcements are ledgered per principal ---------------------

    def announce_routes(
        self, rows: Tuple, recipients: Optional[Sequence[NodeId]] = None
    ) -> None:
        """Ledger a copy-return per recipient, then send the rows, so
        dropped/altered checker copies are detectable."""
        self._ledger_sent(KIND_RT_UPDATE, rows, recipients)
        super().announce_routes(rows, recipients)

    def announce_prices(
        self, rows: Tuple, recipients: Optional[Sequence[NodeId]] = None
    ) -> None:
        """Ledger and send pricing rows, as :meth:`announce_routes`."""
        self._ledger_sent(KIND_PRICE_UPDATE, rows, recipients)
        super().announce_prices(rows, recipients)

    def _ledger_sent(
        self, kind: str, rows: Tuple, recipients: Optional[Sequence[NodeId]]
    ) -> None:
        """Ledger the rows in the mirror of each recipient, which must
        copy-return them."""
        for neighbor in self.neighbors if recipients is None else recipients:
            mirror = self.mirrors.get(neighbor)
            if mirror is not None and mirror.comp is not None:
                mirror.record_sent(kind, rows)

    # --- checker observation of the sender's broadcasts ---------------

    def on_table_update(self, message: Message) -> None:
        """Check the broadcast against the sender's mirror, then act.

        Any copies of the sender's batch still awaiting replay are
        flushed first: on the FIFO link they precede the broadcast they
        triggered, so the expected-broadcast queue is current by the
        time the comparison runs.
        """
        if self.phase == "phase2":
            mirror = self.mirrors.get(message.src)
            if mirror is not None and mirror.comp is not None:
                self._flush_mirror(mirror)
                mirror.observe_broadcast(message.kind, message.payload["vector"])
        super().on_table_update(message)

    # The aliases bind a function, so an override of the body re-binds them.
    on_rt_update = on_price_update = on_table_update

    def _flush_mirror(self, mirror: PrincipalMirror) -> None:
        """Run a mirror's deferred replay, accounting the computation.

        A checker computation is recorded only when the mirror actually
        executed the relaxation here — replays satisfied from a shared
        kernel's op log cost a cursor advance, not a computation, which
        is exactly the dedup the overhead metrics should show.  On a log
        its principal leads, no follower ever executes, so an honest
        shared run records none.
        """
        if mirror.flush_pending():
            self.sim.metrics.record_computation(self.node_id, as_checker=True)

    def flush_batch(self) -> None:
        """Batch boundary: send the coalesced checker-copy bundle,
        replay every mirror with pending copies, then run the own
        (principal-role) recomputation.

        The bundle goes out first: on the FIFO link it must precede the
        broadcasts the same batch triggers (sent by the super call), so
        receivers always ingest a principal's claimed inputs before
        observing the broadcast derived from them.
        """
        if self._pending_copies:
            copies = tuple(self._pending_copies)
            self._pending_copies.clear()
            size = self._pending_copy_size
            self._pending_copy_size = 0
            self.sim.metrics.record_uncoalesced_copies(
                len(copies) * len(self.neighbors)
            )
            self.multicast(
                self.neighbors, KIND_CHECKER_COPY, size_hint=size, copies=copies
            )
        for principal in self.neighbors:
            mirror = self.mirrors.get(principal)
            if mirror is not None and mirror.comp is not None:
                self._flush_mirror(mirror)
        super().flush_batch()

    # --- principal duty: forward copies before recomputing ------------

    def after_update_input(self, message: Message) -> None:
        """[PRINC1]/[PRINC2] message passing: copy the input to all
        checkers."""
        # The delivered message's size is already cached from its own
        # transmission; a copy adds two scalars (orig_kind, orig_src).
        self._copy_size_hint = message.size + 2
        self.forward_copy_to_checkers(
            message.kind, message.src, message.payload["vector"]
        )

    def forward_copy_to_checkers(
        self, orig_kind: str, orig_src: NodeId, vector: Tuple
    ) -> None:
        """Queue a checker copy of a received update for every neighbour.

        :meth:`flush_batch` sends the batch's queued copies to all
        neighbours as one checker-copy bundle.  Deviation seam:
        drop/alter/spoof variants override this (the message-passing
        manipulations 1 and 3 of Section 4.3).
        """
        # Copies dominate checked-network traffic; the input handler
        # stashes the delivered message's cached size so the forward
        # path never re-walks the payload.  Deviant overrides that
        # substitute a vector keep the row shape (scaled costs), so the
        # per-row delta formula covers any path without a stash.
        size_hint = self.__dict__.pop("_copy_size_hint", None)
        if size_hint is None:
            size_hint = delta_size(vector) + 2
        self._pending_copies.append((orig_kind, orig_src, vector))
        self._pending_copy_size += size_hint

    # --- checker duty: replay copies -----------------------------------

    def on_checker_copy(self, message: Message) -> None:
        """[CHECK1]/[CHECK2]: replay the principal's claimed input.

        The copies are only ingested; the mirror relaxation runs once
        per batch (before any broadcast of the same principal is
        observed, or at the batch boundary).
        """
        if self.phase != "phase2":
            return
        mirror = self.mirrors.get(message.src)
        if mirror is None or mirror.comp is None:
            return
        for orig_kind, orig_src, vector in message.payload["copies"]:
            mirror.apply_copy(orig_kind, orig_src, vector)

    # ------------------------------------------------------------------
    # checked churn epochs (re-anchoring in place)
    # ------------------------------------------------------------------

    def _note_cost(self, node: NodeId, cost: Cost) -> bool:
        """Phase 1 notes declarations; later, a churn epoch's flood is
        held until the epoch's re-anchor op (kernels change only
        through replay-log ops)."""
        if self.phase == "phase1":
            return super()._note_cost(node, cost)
        if self._known_cost(node) == cost:
            return False
        self._held_costs[node] = cost
        return True

    def _known_cost(self, node: NodeId) -> Optional[Cost]:
        held = self._held_costs.get(node)
        if held is not None:
            return held
        assert self.comp is not None
        return self.comp.costs.get(node)

    def redeclare_cost(self) -> None:
        """Flood a changed declared cost through the ordinary
        ``cost-decl`` path, holding it like any received one."""
        cost = self.declared_cost()
        if self._known_cost(self.node_id) == cost:
            return
        self._held_costs[self.node_id] = cost
        self.broadcast(KIND_COST_DECL, node=self.node_id, cost=cost)

    def anchor_view(
        self, principal: NodeId
    ) -> Tuple[Tuple[NodeId, ...], Cost, Tuple[Tuple[NodeId, Cost], ...]]:
        """The re-anchor op this node derives for ``principal``'s log.

        ``principal`` is this node or a neighbour: its neighbour set
        (own links, or the handshake's list), its declared cost and the
        epoch's other DATA1 changes, all from this node's own view.
        """
        assert self.comp is not None
        if principal == self.node_id:
            neighbors = self.neighbors
        else:
            neighbors = self._neighbor_neighbors[principal]
        changes = tuple(
            (node, cost)
            for node, cost in sorted(
                self._held_costs.items(), key=lambda kv: repr(kv[0])
            )
            if node != principal
        )
        return neighbors, self._known_cost(principal), changes

    def reanchor(
        self,
        neighbors: Sequence[NodeId],
        own_cost: Cost,
        changes: Sequence[Tuple[NodeId, Optional[Cost]]],
    ) -> None:
        """Epoch boundary, principal role: the re-anchor op goes through
        the replay log this node writes (:meth:`SharedKernel.anchor
        <repro.routing.kernel.SharedKernel.anchor>`), where its checkers
        verify it.

        A node that is no longer exactly this class stops leading its
        checkers' pooled log here: it continues on a fork of its own,
        and the pooled log passes to the mirrors.
        """
        log = self.replay_log
        assert log is not None
        pool = self.mirror_pool
        if (
            type(self) is not FaithfulRoutingNode
            and pool is not None
            and pool.shared_log(self.node_id) is log
            and log.led
        ):
            log.led = False
            own = log.fork_at(log.frontier)
            own.led = True
            # The principal's work counters stay the principal's.
            own.kernel.stats, log.kernel.stats = log.kernel.stats, own.kernel.stats
            self.replay_log = log = own
            self.comp = own.kernel
        result = log.anchor(
            log.frontier, tuple(neighbors), own_cost, tuple(changes), lead=True
        )
        assert result is not None
        self._anchor_deltas = result[1:3]
        self.phase = "phase2"

    def reanchor_mirrors(self) -> None:
        """Epoch boundary, checker role: every mirror submits the
        re-anchor op this node derives for its principal; the held
        declarations are spent."""
        for principal in self.neighbors:
            self.mirrors[principal].reanchor(*self.anchor_view(principal))
        self._held_costs.clear()

    # ------------------------------------------------------------------
    # execution phase observation
    # ------------------------------------------------------------------

    def observe_packet(self, message: Message) -> None:
        """Checker-side packet validation against the sender's mirror."""
        sender = message.src
        mirror = self.mirrors.get(sender)
        if mirror is None or mirror.comp is None:
            return
        origin = message.payload["origin"]
        destination = message.payload["destination"]
        volume = message.payload["volume"]
        if sender == origin:
            flow = (origin, destination)
            self.observed_originations[flow] = (
                self.observed_originations.get(flow, 0.0) + volume
            )
        # computation() settles the mirror to its own replay position
        # (a shared kernel may sit ahead of a mirror that stopped
        # replaying), so validation uses exactly this checker's state.
        entry = mirror.computation().routing.entry(destination)
        expected_next = entry.path[1] if entry is not None and len(entry.path) >= 2 else None
        if expected_next != self.node_id:
            self.execution_flags.append(
                Flag.make(
                    FlagKind.MISROUTE,
                    checker=self.node_id,
                    principal=sender,
                    phase="execution",
                    origin=origin,
                    destination=destination,
                    expected_next=expected_next,
                )
            )

    # ------------------------------------------------------------------
    # bank channel
    # ------------------------------------------------------------------

    def _send_bank_report(self, stage: str, **payload: Any) -> None:
        message = Message(
            src=self.node_id,
            dst=BANK_ID,
            kind=KIND_BANK_REPORT,
            payload={"stage": stage, **payload},
        )
        if self.signing is not None:
            message = self.signing.sign(self.node_id, message)
        self.send_message(message)

    def on_bank_request(self, message: Message) -> None:
        """Answer a signed bank query for the current checkpoint."""
        if self.signing is not None:
            self.signing.require_valid(BANK_ID, message)
        stage = message.payload["stage"]
        if stage == "phase1":
            self._send_bank_report(stage, cost_digest=self.report_cost_digest())
        elif stage == "bank1":
            flags = []
            for mirror in self.mirrors.values():
                flags.extend(mirror.checkpoint_flags())
            self._send_bank_report(
                stage,
                routing_digest=self.report_routing_digest(),
                mirror_routing=[
                    (principal, mirror.routing_digest())
                    for principal, mirror in sorted(
                        self.mirrors.items(), key=lambda kv: repr(kv[0])
                    )
                    if mirror.comp is not None
                ],
                flags=[encode_flag(f) for f in flags],
            )
        elif stage == "bank2":
            self._send_bank_report(
                stage,
                pricing_digest=self.report_pricing_digest(),
                mirror_pricing=[
                    (principal, mirror.pricing_digest())
                    for principal, mirror in sorted(
                        self.mirrors.items(), key=lambda kv: repr(kv[0])
                    )
                    if mirror.comp is not None
                ],
                flags=[],
            )
        elif stage == "execution":
            self._send_bank_report(stage, **self.execution_report())
        else:
            raise ProtocolError(f"unknown bank stage {stage!r}")

    # --- reporting seams (deviants may lie here) -----------------------

    def report_cost_digest(self) -> str:
        """DATA1 digest reported at the phase-1 checkpoint."""
        assert self.comp is not None
        return self.comp.cost_digest()

    def report_routing_digest(self) -> str:
        """Own DATA2 digest reported at BANK1."""
        assert self.comp is not None
        return self.comp.routing_digest()

    def report_pricing_digest(self) -> str:
        """Own DATA3* digest reported at BANK2."""
        assert self.comp is not None
        return self.comp.pricing_digest()

    def execution_report(self) -> Dict[str, Any]:
        """Everything the bank needs from this node for settlement."""
        observations = []
        for (origin, destination), volume in sorted(
            self.observed_originations.items(), key=repr
        ):
            mirror = self.mirrors.get(origin)
            if mirror is None or mirror.comp is None:
                continue
            replayed = mirror.computation()
            entry = replayed.routing.entry(destination)
            if entry is None:
                continue
            charges = [
                (transit, replayed.pricing.price(destination, transit) * volume)
                for transit in entry.path[1:-1]
            ]
            observations.append(
                (origin, destination, volume, entry.path, charges)
            )
        return {
            "reported_payments": sorted(
                self.report_payments().items(), key=repr
            ),
            "receipts": [
                (origin, destination, sender, volume)
                for (origin, destination), senders in sorted(
                    self.receipts.items(), key=repr
                )
                for sender, volume in sorted(senders.items(), key=repr)
            ],
            "delivered": [
                (origin, destination, volume)
                for (origin, destination), volume in sorted(
                    self.delivered.items(), key=repr
                )
            ],
            "observations": observations,
            "flags": [encode_flag(f) for f in self.execution_flags],
        }
