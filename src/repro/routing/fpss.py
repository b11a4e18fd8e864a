"""The distributed FPSS protocol (plain, trusting variant).

FPSS computes lowest-cost paths and VCG pricing tables "by each node
using information from neighbors in an iterative calculation",
following the Griffin-Wilfong abstract model of BGP.  This module
implements the *protocol* layers on top of the pure replay kernel of
:mod:`repro.routing.kernel`:

:class:`FPSSComputation`
    The principal-facing name for one :class:`~repro.routing.kernel.
    ReplayKernel` instance: a pure, deterministic state machine holding
    DATA1-DATA3* and the neighbour vectors, with explicit apply /
    recompute methods and no I/O.  Determinism matters beyond
    tidiness: the faithful extension's checker nodes replay a
    principal's computation on copies of its messages, and replay only
    works if the computation is a pure function of (identity,
    neighbour set, message sequence).

:class:`FPSSNode`
    A :class:`~repro.sim.node.ProtocolNode` driving one computation
    instance: it floods cost declarations (first construction phase)
    and exchanges routing/pricing updates (second construction phase),
    broadcasting whenever its own tables change.

This module also owns the *wire layer*: full-vector and delta
encodings of routing/avoidance announcements (withdrawal rows carry
``cost=None``) plus their payload sizing.

Incremental recomputation, batching, and the relaxation internals are
documented on the kernel (:mod:`repro.routing.kernel`).  Phase starts,
received messages, batch flushes and topology kicks all run the same
settle-and-announce step; at a phase start the freshly reset kernel
has every neighbour dirty, so that step is the initial relaxation.

Distributed pricing
-------------------
The per-packet VCG payment to transit node ``k`` on the LCP from ``i``
to ``j`` is ``p^{ij}_k = c_k + d^{-k}(i,j) - d(i,j)`` where ``d`` is
the LCP cost and ``d^{-k}`` the LCP cost avoiding ``k``.  FPSS computes
the prices iteratively from neighbours' pricing information; here the
exchanged quantity is the table of *avoidance costs* ``d^{-k}(a, j)``,
which carries the identical information (``d^{-k} = p - c_k + d``) and
admits the same Bellman-Ford style relaxation:

    d^{-k}(i, j) = min over neighbours a != k of
                   [ (c_a if a != j else 0) + d^{-k}(a, j) ]

Only ``d^{-k}(i, j)`` for ``k`` interior to ``P(i, j)`` is ever priced,
so only those entries are kept and announced; for a neighbour whose
route ``P(a, j)`` avoids ``k``, ``d^{-k}(a, j)`` is ``d(a, j)`` along
that route, which the receiver already holds from ``a``'s routing
rows (the sparse wire of :mod:`repro.routing.kernel`).

Identity tags (DATA3*)
----------------------
Each pricing entry carries the set of neighbours that *triggered* its
current value — the DATA3* extension of Section 4.3 ("this tag
identifies the node that triggered the most recent FPSS pricing table
update; in the case of a pricing tie, this tag field actually contains
the union of the nodes that suggested the same pricing entry").  Under
the (cost, hops, lex) total order no two neighbours tie, since each
offers a path that starts with itself, so the tag is the singleton
argmin supplier of the avoidance entry.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..errors import ProtocolError, RoutingError
from ..obs.events import BUS
from ..obs.trace import emit_counters, span
from ..sim.messages import Message, NodeId
from ..sim.node import ProtocolNode
from .graph import Cost
from .kernel import (
    KIND_PRICE_UPDATE,
    KIND_RT_UPDATE,
    AvoidKey,
    AvoidVector,
    ReplayKernel,
    RouteVector,
    _sort_key,
)
from .tables import (
    PaymentList,
    PricingTable,
    RouteEntry,
    RoutingTable,
)

#: Message kind used by the first construction phase.
KIND_COST_DECL = "cost-decl"
#: Message kind used by the execution phase.
KIND_PACKET = "packet"

__all__ = [
    "KIND_COST_DECL",
    "KIND_RT_UPDATE",
    "KIND_PRICE_UPDATE",
    "KIND_PACKET",
    "AvoidKey",
    "AvoidVector",
    "RouteVector",
    "FPSSComputation",
    "FPSSNode",
    "delta_size",
    "encode_route_vector",
    "decode_route_vector",
    "encode_avoid_vector",
    "decode_avoid_vector",
    "encode_route_delta",
    "encode_avoid_delta",
]


def delta_size(delta: Sequence[Tuple]) -> int:
    """Scalar count of a delta payload, matching ``Message.size``.

    Each row contributes its scalar fields plus its path length (an
    empty path counts as one scalar, like any empty container); an
    empty delta is one scalar.
    """
    if not delta:
        return 1
    return sum(len(row) - 1 + (len(row[-1]) or 1) for row in delta)


def encode_route_vector(vector: Mapping[NodeId, RouteEntry]) -> Tuple:
    """Wire encoding of a routing vector (repr-sorted, immutable).

    Rows are unique per destination; every decoder and differ below
    relies on that uniqueness.
    """
    return tuple(
        (dest, entry.cost, entry.path)
        for dest, entry in sorted(vector.items(), key=lambda kv: _sort_key(kv[0]))
    )


def decode_route_vector(encoded: Sequence[Tuple]) -> RouteVector:
    """Inverse of :func:`encode_route_vector`."""
    return {
        dest: RouteEntry(cost=cost, path=tuple(path)) for dest, cost, path in encoded
    }


def encode_avoid_vector(vector: Mapping[AvoidKey, RouteEntry]) -> Tuple:
    """Wire encoding of an avoidance-cost vector (repr-sorted)."""
    return tuple(
        (dest, avoided, entry.cost, entry.path)
        for (dest, avoided), entry in sorted(
            vector.items(), key=lambda kv: _sort_key(kv[0])
        )
    )


def decode_avoid_vector(encoded: Sequence[Tuple]) -> AvoidVector:
    """Inverse of :func:`encode_avoid_vector`."""
    return {
        (dest, avoided): RouteEntry(cost=cost, path=tuple(path))
        for dest, avoided, cost, path in encoded
    }


def encode_route_delta(current: Mapping[NodeId, RouteEntry],
                       last: Mapping[NodeId, RouteEntry]) -> Tuple:
    """Delta announcement: ``current`` relative to ``last``.

    Rows keep the full-vector shape ``(dest, cost, path)`` for changed
    or new destinations; a destination present in ``last`` but absent
    from ``current`` becomes the withdrawal row ``(dest, None, ())``
    (never produced by an obedient node, whose table only grows).
    Unchanged rows — the overwhelming majority after the first
    broadcast — are omitted, which is what keeps per-message work
    proportional to actual route churn.
    """
    rows = []
    for dest, entry in current.items():
        prev = last.get(dest)
        if prev is None or (prev is not entry and prev != entry):
            rows.append((dest, entry.cost, entry.path))
    for dest in last:
        if dest not in current:
            rows.append((dest, None, ()))
    rows.sort(key=lambda row: _sort_key(row[0]))
    return tuple(rows)


def encode_avoid_delta(current: Mapping[AvoidKey, RouteEntry],
                       last: Mapping[AvoidKey, RouteEntry]) -> Tuple:
    """Delta announcement for an avoidance vector.

    Same contract as :func:`encode_route_delta` with rows
    ``(dest, avoided, cost, path)`` and withdrawals
    ``(dest, avoided, None, ())``.
    """
    rows = []
    for key, entry in current.items():
        prev = last.get(key)
        if prev is None or (prev is not entry and prev != entry):
            rows.append((key[0], key[1], entry.cost, entry.path))
    for key in last:
        if key not in current:
            rows.append((key[0], key[1], None, ()))
    rows.sort(key=lambda row: (_sort_key(row[0]), _sort_key(row[1])))
    return tuple(rows)


class FPSSComputation(ReplayKernel):
    """Pure FPSS mechanism state for one node (or one mirror of one).

    The protocol-facing name of the replay kernel — see
    :class:`~repro.routing.kernel.ReplayKernel` for the state machine
    (ingestion, fused relaxation, changed-key sets, digests, snapshot).
    Kept as a distinct class so protocol code and the manipulation
    catalogue keep reading in the paper's vocabulary.

    Parameters
    ----------
    owner:
        The node whose computation this is.
    neighbors:
        The owner's neighbour set (semi-private connectivity
        information; common knowledge between link endpoints).
    own_cost:
        The transit cost the owner *declares* (truthful for obedient
        nodes; a lie is an information-revelation deviation).
    """


class FPSSNode(ProtocolNode):
    """A trusting FPSS participant (the original, non-faithful protocol).

    The node follows the suggested specification but performs *no*
    checking: there are no checkers, no bank examination, and nothing
    prevents a rational variant from manipulating tables — which is
    exactly the gap the faithful extension closes.

    Subclass hook methods (`declared_cost`, `make_route_broadcast`,
    `make_price_broadcast`) are the seams where manipulation strategies
    attach.
    """

    def __init__(self, node_id: NodeId, true_cost: Cost) -> None:
        super().__init__(node_id)
        self.true_cost = float(true_cost)
        self.comp: Optional[FPSSComputation] = None
        self.phase: str = "idle"
        #: Batched-delivery state: while a batch is being applied the
        #: phase-2 handlers only ingest inputs and set the pending
        #: flag; the relaxation and broadcasts run once at the batch
        #: boundary (:meth:`flush_batch`).
        self._batch_recompute_pending = False
        #: Last announced (hook-transformed) vectors, the baseline each
        #: delta broadcast is encoded against.
        self._announced_routes: RouteVector = {}
        self._announced_avoid: AvoidVector = {}
        # --- execution-phase state (DATA4 and usage logs) ---
        self.data4 = PaymentList(node_id)
        #: True transit cost actually incurred forwarding packets.
        self.incurred_cost: Cost = 0.0
        #: (origin, dest) -> {sender: volume} ground-truth receipts.
        self.receipts: Dict[Tuple[NodeId, NodeId], Dict[NodeId, float]] = {}
        #: (origin, dest) -> volume delivered here as destination.
        self.delivered: Dict[Tuple[NodeId, NodeId], float] = {}
        #: Kernel-stats snapshot at the last telemetry emission, so the
        #: ``kernel`` counter records carry deltas (ingest work between
        #: relaxation boundaries is attributed to the boundary that
        #: flushed it).
        self._kernel_emitted: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # deviation seams
    # ------------------------------------------------------------------

    def declared_cost(self) -> Cost:
        """The cost this node announces (information revelation)."""
        return self.true_cost

    def make_route_broadcast(self) -> RouteVector:
        """The routing vector this node announces (computation)."""
        assert self.comp is not None
        return {
            dest: entry
            for dest in self.comp.routing.destinations
            if (entry := self.comp.routing.entry(dest)) is not None
        }

    def make_price_broadcast(self) -> AvoidVector:
        """The avoidance/pricing vector this node announces."""
        assert self.comp is not None
        return dict(self.comp.avoid)

    # ------------------------------------------------------------------
    # phase 1
    # ------------------------------------------------------------------

    def start_phase1(self) -> None:
        """Begin the first construction phase: declare and flood costs."""
        self.comp = FPSSComputation(
            self.node_id, self.neighbors, self.declared_cost()
        )
        self._kernel_emitted = {}
        self.phase = "phase1"
        self.broadcast(
            KIND_COST_DECL, node=self.node_id, cost=self.comp.own_cost
        )

    def on_cost_decl(self, message: Message) -> None:
        """Flooding handler: record new declarations and relay them."""
        if self.comp is None:
            return
        node = message.payload["node"]
        cost = message.payload["cost"]
        if self.comp.note_cost_declaration(node, cost):
            self.sim.metrics.record_computation(self.node_id)
            self.relay_cost_declaration(message)

    def relay_cost_declaration(self, message: Message) -> None:
        """Forward a novel declaration to every neighbour.

        Message-passing action; a deviation seam for drop/alter tests.
        """
        for neighbor in self.neighbors:
            if neighbor != message.src:
                self.forward(message, neighbor)

    # ------------------------------------------------------------------
    # phase 2
    # ------------------------------------------------------------------

    def start_phase2(self) -> None:
        """Begin the second construction phase from converged DATA1."""
        if self.comp is None:
            raise ProtocolError(f"{self.node_id!r} cannot enter phase 2 before 1")
        self.phase = "phase2"
        self._batch_recompute_pending = False
        self._announced_routes = {}
        self._announced_avoid = {}
        self.comp.reset_phase2()
        self.recompute_and_announce(force_announce=True)

    def recompute_and_announce(self, force_announce: bool = False) -> None:
        """Phase start: settle the reset kernel and announce.

        ``reset_phase2`` left every neighbour dirty, so the ordinary
        settle is the initial relaxation; ``force_announce`` makes both
        first announcements unconditional (deltas against nothing).
        """
        assert self.comp is not None
        self.sim.metrics.record_computation(self.node_id)
        with span(
            "kernel.recompute",
            sim_time=self.now,
            owner=str(self.node_id),
            phase=self.phase,
        ):
            self._settle_and_announce(force_announce)

    def _settle_and_announce(self, force_announce: bool = False) -> None:
        """Relax the dirty entries once; broadcast each changed kind.

        The one settle step of the protocol: phase starts, the
        per-message path (unbatched mode), the batch-boundary flush and
        topology kicks all run it, so they emit identical broadcasts
        for identical ingested inputs.
        """
        assert self.comp is not None
        routes_changed = self.comp.recompute_routes()
        avoid_changed = self.comp.recompute_avoidance()
        self.comp.derive_pricing()
        if routes_changed or force_announce:
            self.announce_routes()
        if avoid_changed or force_announce:
            self.announce_prices()
        if BUS.enabled:
            self._emit_kernel_counters()

    def _emit_kernel_counters(self) -> None:
        """Emit the kernel-stats delta accrued since the last emission.

        The kernel itself is import-pure (``# purity: kernel``), so
        telemetry reads its counters from this call site rather than
        from inside the relaxations; snapshot differencing means row
        ingestion between relaxation boundaries is still captured.
        """
        comp = self.comp
        if comp is None:
            return
        current = comp.stats.as_dict()
        delta = {
            key: value - self._kernel_emitted.get(key, 0)
            for key, value in current.items()
            if value != self._kernel_emitted.get(key, 0)
        }
        self._kernel_emitted = current
        if delta:
            emit_counters("kernel", delta, sim_time=self.now)

    # ------------------------------------------------------------------
    # batched delivery
    # ------------------------------------------------------------------

    def flush_batch(self) -> None:
        """Batch boundary: run the deferred recomputation, if any.

        Every message of the batch has already passed the inbound
        filter and its handler individually (checker copies forwarded
        per input, per [PRINC1]/[PRINC2]); only the relaxation and the
        resulting broadcasts were deferred here, so a flooding round
        costs one recomputation instead of one per neighbour.
        """
        if not self._batch_recompute_pending:
            return
        self._batch_recompute_pending = False
        self.sim.metrics.record_computation(self.node_id)
        if not BUS.enabled:
            self._settle_and_announce()
            return
        with span(
            "kernel.flush", sim_time=self.now, owner=str(self.node_id)
        ):
            self._settle_and_announce()

    def _next_route_announcement(self) -> Tuple:
        """Encode the next routing delta and advance the baseline.

        When the broadcast hook is unmodified (the suggested
        specification), the delta is read straight off the
        computation's changed-key set in O(|changes|); a hooked
        (deviant) broadcast falls back to diffing the transformed
        vector against the previously announced one.
        """
        comp = self.comp
        if comp is not None and type(self).make_route_broadcast is FPSSNode.make_route_broadcast:
            return comp.consume_route_delta()
        vector = self.make_route_broadcast()
        delta = encode_route_delta(vector, self._announced_routes)
        self._announced_routes = dict(vector)
        return delta

    def _next_price_announcement(self) -> Tuple:
        """Encode the next avoidance delta and advance the baseline."""
        comp = self.comp
        if comp is not None and type(self).make_price_broadcast is FPSSNode.make_price_broadcast:
            return comp.consume_avoid_delta()
        vector = self.make_price_broadcast()
        delta = encode_avoid_delta(vector, self._announced_avoid)
        self._announced_avoid = dict(vector)
        return delta

    def announce_routes(self) -> None:
        """Broadcast the delta of the (hook-provided) routing vector."""
        delta = self._next_route_announcement()
        self.multicast(
            self.neighbors, KIND_RT_UPDATE, size_hint=delta_size(delta), vector=delta
        )

    def announce_prices(self) -> None:
        """Broadcast the delta of the (hook-provided) avoidance vector."""
        delta = self._next_price_announcement()
        self.multicast(
            self.neighbors,
            KIND_PRICE_UPDATE,
            size_hint=delta_size(delta),
            vector=delta,
        )

    def on_rt_update(self, message: Message) -> None:
        """[PRINC1] computation half: recompute LCPs on new input."""
        if self.comp is None or self.phase != "phase2":
            return
        self.comp.apply_route_delta(message.src, message.payload["vector"])
        self.after_route_input(message)
        if self._in_batch:
            self._batch_recompute_pending = True
            return
        self.sim.metrics.record_computation(self.node_id)
        self._settle_and_announce()

    def on_price_update(self, message: Message) -> None:
        """[PRINC2] computation half: recompute pricing on new input."""
        if self.comp is None or self.phase != "phase2":
            return
        self.comp.apply_avoid_delta(message.src, message.payload["vector"])
        self.after_price_input(message)
        if self._in_batch:
            self._batch_recompute_pending = True
            return
        self.sim.metrics.record_computation(self.node_id)
        self._settle_and_announce()

    # Hooks the faithful extension overrides to forward copies to
    # checkers *before* recomputation, per PRINC1/PRINC2 ordering.
    def after_route_input(self, message: Message) -> None:
        """Called after storing a route update (pre-recompute)."""

    def after_price_input(self, message: Message) -> None:
        """Called after storing a price update (pre-recompute)."""

    # ------------------------------------------------------------------
    # dynamic topology (reconvergence epochs)
    # ------------------------------------------------------------------

    def react_to_topology_change(self) -> None:
        """Settle and announce after an out-of-band topology delta.

        The dynamic engine mutates the computation directly at network
        quiescence (detach/attach/DATA1 changes); this kick then runs
        the same incremental settle-and-broadcast step a received
        message would, so withdrawal storms propagate through the
        ordinary delta machinery.
        """
        if self.comp is None or self.phase != "phase2":
            return
        self.sim.metrics.record_computation(self.node_id)
        self._settle_and_announce()

    def resend_full_tables(self, neighbor: NodeId) -> None:
        """Unicast the announced full vectors across a new or restored link.

        Delta broadcasts assume the receiver holds the previously
        announced vector; a fresh link starts from nothing, so both
        endpoints send once what their other neighbours already hold.
        Under the suggested specification that is the tables
        themselves, built without consuming the changed-key sets so the
        regular delta streams stay untouched.  A hooked broadcast seam
        resends its last announced (transformed) vector instead — the
        baseline its next delta is encoded against — so the new
        neighbour ends up holding exactly what the old ones hold.
        """
        assert self.comp is not None
        cls = type(self)
        route_rows = encode_route_vector(
            self.make_route_broadcast()
            if cls.make_route_broadcast is FPSSNode.make_route_broadcast
            else self._announced_routes
        )
        avoid_rows = encode_avoid_vector(
            self.comp.avoid
            if cls.make_price_broadcast is FPSSNode.make_price_broadcast
            else self._announced_avoid
        )
        self.multicast(
            (neighbor,),
            KIND_RT_UPDATE,
            size_hint=delta_size(route_rows),
            vector=route_rows,
        )
        self.multicast(
            (neighbor,),
            KIND_PRICE_UPDATE,
            size_hint=delta_size(avoid_rows),
            vector=avoid_rows,
        )

    def join_network(self, known_costs: Mapping[NodeId, Cost]) -> None:
        """Bootstrap a node joining mid-run, DATA1 seeded out of band.

        The compressed equivalent of flooding phase 1 and then starting
        phase 2 on the current graph: build the computation over the
        live neighbour set, note every known declaration, and run the
        initial full relaxation.  The first announcements — the full
        tables as a delta against nothing — reach the new neighbours
        through the normal broadcast path.
        """
        self.comp = FPSSComputation(
            self.node_id, self.neighbors, self.declared_cost()
        )
        self._kernel_emitted = {}
        for node, cost in sorted(known_costs.items(), key=lambda kv: _sort_key(kv[0])):
            self.comp.note_cost_declaration(node, cost)
        self.phase = "phase2"
        self._batch_recompute_pending = False
        self._announced_routes = {}
        self._announced_avoid = {}
        self.comp.reset_phase2()
        self.recompute_and_announce(force_announce=True)

    # ------------------------------------------------------------------
    # execution phase (mechanism usage)
    # ------------------------------------------------------------------

    def start_execution(self) -> None:
        """Enter the execution phase (after construction certifies)."""
        self.phase = "execution"

    def originate_flow(self, destination: NodeId, volume: float) -> None:
        """Send ``volume`` packets toward a destination along the LCP,
        recording the per-packet payments owed into DATA4."""
        if self.comp is None:
            raise ProtocolError(f"{self.node_id!r} has no converged tables")
        entry = self.comp.routing.entry(destination)
        if entry is None:
            raise RoutingError(
                f"{self.node_id!r} has no route to {destination!r}"
            )
        for payee, amount in self.compute_charges(destination, volume).items():
            self.data4.charge(payee, amount)
        first_hop = self.choose_first_hop(destination)
        # TTL bounds forwarding loops created by misrouting deviants,
        # as IP's hop limit does; honest LCP forwarding never hits it.
        ttl = 4 * max(4, len(self.comp.known_nodes()))
        self.send(
            first_hop,
            KIND_PACKET,
            origin=self.node_id,
            destination=destination,
            volume=volume,
            ttl=ttl,
        )

    def on_packet(self, message: Message) -> None:
        """Receive a packet: deliver locally or transit it onward."""
        origin = message.payload["origin"]
        destination = message.payload["destination"]
        volume = message.payload["volume"]
        flow = (origin, destination)
        self.receipts.setdefault(flow, {})
        self.receipts[flow][message.src] = (
            self.receipts[flow].get(message.src, 0.0) + volume
        )
        self.observe_packet(message)
        if destination == self.node_id:
            self.delivered[flow] = self.delivered.get(flow, 0.0) + volume
            return
        if not self.should_forward(origin, destination, volume):
            return
        ttl = message.payload.get("ttl", 64) - 1
        if ttl <= 0:
            return  # loop guard; settlement treats it as a drop
        self.incurred_cost += self.true_cost * volume
        next_hop = self.choose_next_hop(origin, destination)
        self.send(
            next_hop,
            KIND_PACKET,
            origin=origin,
            destination=destination,
            volume=volume,
            ttl=ttl,
        )

    def observe_packet(self, message: Message) -> None:
        """Hook for checker-side packet observation (faithful mode)."""

    # --- execution deviation seams -----------------------------------

    def compute_charges(
        self, destination: NodeId, volume: float
    ) -> Dict[NodeId, float]:
        """Per-payee charges for one originated flow, from DATA3*."""
        assert self.comp is not None
        entry = self.comp.routing.entry(destination)
        if entry is None:
            return {}
        # Prices are non-negative at the honest fixed point; off the
        # fixed point (deviant runs) a stale table can yield a negative
        # price, which no node would ever accept as a charge.
        return {
            transit: max(0.0, self.comp.pricing.price(destination, transit))
            * volume
            for transit in entry.path[1:-1]
        }

    def choose_first_hop(self, destination: NodeId) -> NodeId:
        """First hop for own traffic (suggested: the LCP next hop)."""
        assert self.comp is not None
        entry = self.comp.routing.entry(destination)
        assert entry is not None and len(entry.path) >= 2
        return entry.path[1]

    def choose_next_hop(self, origin: NodeId, destination: NodeId) -> NodeId:
        """Next hop for transited traffic (suggested: own LCP)."""
        assert self.comp is not None
        entry = self.comp.routing.entry(destination)
        if entry is None or len(entry.path) < 2:
            raise RoutingError(
                f"{self.node_id!r} cannot transit toward {destination!r}"
            )
        return entry.path[1]

    def should_forward(
        self, origin: NodeId, destination: NodeId, volume: float
    ) -> bool:
        """Whether to forward a transiting flow (suggested: always)."""
        return True

    def report_payments(self) -> Dict[NodeId, float]:
        """The DATA4 report submitted for settlement."""
        return self.data4.as_dict()

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def routing_table(self) -> RoutingTable:
        """This node's DATA2."""
        if self.comp is None:
            raise ProtocolError(f"{self.node_id!r} has not started")
        return self.comp.routing

    def pricing_table(self) -> PricingTable:
        """This node's DATA3*."""
        if self.comp is None:
            raise ProtocolError(f"{self.node_id!r} has not started")
        return self.comp.pricing

