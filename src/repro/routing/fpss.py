"""The distributed FPSS protocol (plain, trusting variant).

FPSS computes lowest-cost paths and VCG pricing tables "by each node
using information from neighbors in an iterative calculation",
following the Griffin-Wilfong abstract model of BGP.  This module
implements the *protocol* layers on top of the pure replay kernel of
:mod:`repro.routing.kernel`:

:class:`FPSSNode`
    A :class:`~repro.sim.node.ProtocolNode` driving one
    :class:`~repro.routing.kernel.ReplayKernel` (its ``comp``): it
    floods cost declarations (first construction phase) and exchanges
    routing/pricing updates (second construction phase), broadcasting
    whenever its own tables change.  The kernel is a pure,
    deterministic state machine holding DATA1-DATA3* and the neighbour
    vectors, with no I/O.  Determinism matters beyond tidiness: the
    faithful extension's checker nodes replay a principal's
    computation on copies of its messages, and replay only works if
    the computation is a pure function of (identity, neighbour set,
    message sequence).

This module also owns the *wire layer*: full-vector and delta
encodings of routing/avoidance announcements (withdrawal rows carry
``cost=None``) plus their payload sizing.

Incremental recomputation, batching, and the relaxation internals are
documented on the kernel (:mod:`repro.routing.kernel`).  Phase starts,
delivery-batch flushes and churn epochs all run the same settle step:
:meth:`ReplayKernel.settle <repro.routing.kernel.ReplayKernel.settle>`,
the step every checker mirror replays; the changed tables' deltas then
leave through the broadcast seams.  At a phase start the freshly reset
kernel has every neighbour dirty, so that step is the initial
relaxation.  A churn epoch reaches the kernel as one re-anchor op
(:meth:`FPSSNode.reanchor`), settled at the epoch boundary and
announced by the epoch's kick.  Inputs, settles and phase starts reach
the kernel through three private seams (``_ingest``, ``_settle``,
``_restart_computation``); the faithful node runs them, and
``reanchor``, through the replay log its checkers follow.  A flooded
declaration reaches it through ``_note_cost``, which the faithful node
holds back during a checked churn epoch.

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
    "FPSSNode",
    "delta_size",
    "encode_route_vector",
    "decode_route_vector",
    "encode_avoid_vector",
    "decode_avoid_vector",
    "encode_full_tables",
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
        for dest, entry in sorted(vector.items(), key=lambda kv: repr(kv[0]))
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
            vector.items(), key=lambda kv: repr(kv[0])
        )
    )


def decode_avoid_vector(encoded: Sequence[Tuple]) -> AvoidVector:
    """Inverse of :func:`encode_avoid_vector`."""
    return {
        (dest, avoided): RouteEntry(cost=cost, path=tuple(path))
        for dest, avoided, cost, path in encoded
    }


def encode_full_tables(comp: ReplayKernel) -> Tuple[Tuple, Tuple]:
    """A kernel's whole DATA2 and avoidance table as wire rows.

    What a node resends across a fresh link, and what a checker that
    gains the link expects to see.
    """
    routing = comp.routing
    return (
        encode_route_vector(
            {dest: routing.entry(dest) for dest in routing.destinations}
        ),
        encode_avoid_vector(comp.avoid),
    )


def encode_route_delta(current: Mapping[NodeId, RouteEntry],
                       last: Mapping[NodeId, RouteEntry]) -> Tuple:
    """Delta announcement: ``current`` relative to ``last``.

    The wire-format reference: nodes announce the kernel's changed-key
    deltas (:meth:`ReplayKernel.consume_route_delta
    <repro.routing.kernel.ReplayKernel.consume_route_delta>`), and tests
    write the same rows from plain vectors with this encoder.  Rows
    keep the full-vector shape ``(dest, cost, path)`` for changed or
    new destinations; a destination present in ``last`` but absent
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
    rows.sort(key=lambda row: repr(row[0]))
    return tuple(rows)


def encode_avoid_delta(current: Mapping[AvoidKey, RouteEntry],
                       last: Mapping[AvoidKey, RouteEntry]) -> Tuple:
    """Delta announcement for an avoidance vector.

    Same contract as :func:`encode_route_delta` (a wire-format
    reference for tests) with rows ``(dest, avoided, cost, path)`` and
    withdrawals ``(dest, avoided, None, ())``.
    """
    rows = []
    for key, entry in current.items():
        prev = last.get(key)
        if prev is None or (prev is not entry and prev != entry):
            rows.append((key[0], key[1], entry.cost, entry.path))
    for key in last:
        if key not in current:
            rows.append((key[0], key[1], None, ()))
    rows.sort(key=lambda row: (repr(row[0]), repr(row[1])))
    return tuple(rows)


class FPSSNode(ProtocolNode):
    """A trusting FPSS participant (the original, non-faithful protocol).

    The node follows the suggested specification but performs *no*
    checking: there are no checkers, no bank examination, and nothing
    prevents a rational variant from manipulating tables — which is
    exactly the gap the faithful extension closes.

    Subclass hook methods are the seams where manipulation strategies
    attach: :meth:`declared_cost` (information revelation), the two
    broadcast seams :meth:`announce_routes` / :meth:`announce_prices`
    (every routing or pricing row this node sends — settled deltas and
    fresh-link resends alike — leaves through them), the
    cost-flooding relay, and the execution-phase seams (charges, hops,
    forwarding, payment reports).  Both phase-2 update kinds reach one
    handler body, :meth:`on_table_update`, whose input hook
    :meth:`after_update_input` is where the faithful extension copies
    each input to its checkers.
    """

    def __init__(self, node_id: NodeId, true_cost: Cost) -> None:
        super().__init__(node_id)
        self.true_cost = float(true_cost)
        self.comp: Optional[ReplayKernel] = None
        self.phase: str = "idle"
        #: Set by the phase-2 handlers, which only ingest inputs; the
        #: relaxation and broadcasts run once at the delivery batch's
        #: boundary (:meth:`flush_batch`).
        self._batch_recompute_pending = False
        # --- execution-phase state (DATA4 and usage logs) ---
        self.data4 = PaymentList(node_id)
        #: True transit cost actually incurred forwarding packets.
        self.incurred_cost: Cost = 0.0
        #: (origin, dest) -> {sender: volume} ground-truth receipts.
        self.receipts: Dict[Tuple[NodeId, NodeId], Dict[NodeId, float]] = {}
        #: (origin, dest) -> volume delivered here as destination.
        self.delivered: Dict[Tuple[NodeId, NodeId], float] = {}
        #: The deltas the epoch's re-anchor op settled, until the kick.
        self._anchor_deltas: Optional[Tuple[Optional[Tuple], Optional[Tuple]]] = None
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

    def announce_routes(
        self, rows: Tuple, recipients: Optional[Sequence[NodeId]] = None
    ) -> None:
        """Send routing rows to ``recipients`` (default: every neighbour).

        The one routing broadcast seam (computation): settled deltas and
        fresh-link resends both leave here, so a deviant that rewrites
        or drops its announcements does so on every path.
        """
        self.multicast(
            self.neighbors if recipients is None else recipients,
            KIND_RT_UPDATE,
            size_hint=delta_size(rows),
            vector=rows,
        )

    def announce_prices(
        self, rows: Tuple, recipients: Optional[Sequence[NodeId]] = None
    ) -> None:
        """Send avoidance rows to ``recipients`` (default: every neighbour).

        The one pricing broadcast seam, the counterpart of
        :meth:`announce_routes`.
        """
        self.multicast(
            self.neighbors if recipients is None else recipients,
            KIND_PRICE_UPDATE,
            size_hint=delta_size(rows),
            vector=rows,
        )

    # ------------------------------------------------------------------
    # phase 1
    # ------------------------------------------------------------------

    def start_phase1(self) -> None:
        """Begin the first construction phase: declare and flood costs."""
        self.comp = ReplayKernel(
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
        if self._note_cost(message.payload["node"], message.payload["cost"]):
            self.sim.metrics.record_computation(self.node_id)
            self.relay_cost_declaration(message)

    def _note_cost(self, node: NodeId, cost: Cost) -> bool:
        """Record a flooded declaration; True if it is new here."""
        assert self.comp is not None
        return self.comp.note_cost_declaration(node, cost)

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
        self.recompute_and_announce()

    def recompute_and_announce(self) -> None:
        """Phase start: restart the computation and announce both tables.

        Both first announcements are unconditional (deltas against
        nothing).
        """
        assert self.comp is not None
        self.sim.metrics.record_computation(self.node_id)
        with span(
            "kernel.recompute",
            sim_time=self.now,
            owner=str(self.node_id),
            phase=self.phase,
        ):
            self._announce(*self._restart_computation(), force=True)

    # --- computation seams (see the module docstring) ----------------

    def _restart_computation(self) -> Tuple[Optional[Tuple], Optional[Tuple]]:
        """Reset the kernel for a phase start; returns its first deltas.

        ``reset_phase2`` leaves every neighbour dirty, so the ordinary
        settle is the initial relaxation.
        """
        assert self.comp is not None
        self.comp.reset_phase2()
        return self.comp.settle()

    def _ingest(self, kind: str, src: NodeId, rows: Tuple) -> None:
        """Feed one received update's rows to the computation."""
        assert self.comp is not None
        if kind == KIND_RT_UPDATE:
            self.comp.apply_route_delta(src, rows)
        else:
            self.comp.apply_avoid_delta(src, rows)

    def _settle(self) -> Tuple[Optional[Tuple], Optional[Tuple]]:
        """Relax the dirty entries once: :meth:`ReplayKernel.settle`."""
        assert self.comp is not None
        return self.comp.settle()

    def _announce(
        self,
        route_delta: Optional[Tuple],
        avoid_delta: Optional[Tuple],
        force: bool = False,
    ) -> None:
        """Broadcast each changed table's delta (both when ``force``)."""
        if route_delta is not None or force:
            self.announce_routes(route_delta or ())
        if avoid_delta is not None or force:
            self.announce_prices(avoid_delta or ())
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
        resulting broadcasts were left to here, so under batched
        delivery a flooding round costs one recomputation instead of
        one per neighbour.  The settle is :meth:`ReplayKernel.settle`,
        the step every checker mirror replays, so identical ingested
        inputs give identical deltas on both sides.
        """
        if not self._batch_recompute_pending:
            return
        self._batch_recompute_pending = False
        self.sim.metrics.record_computation(self.node_id)
        if not BUS.enabled:
            self._announce(*self._settle())
            return
        with span(
            "kernel.flush", sim_time=self.now, owner=str(self.node_id)
        ):
            self._announce(*self._settle())

    def on_table_update(self, message: Message) -> None:
        """[PRINC1]/[PRINC2] computation half, for either table.

        Routing and pricing updates take one path, keyed by the message
        kind: ingest the rows, run the input hook, and leave the
        recomputation to the batch boundary (:meth:`flush_batch`).
        """
        if self.comp is None or self.phase != "phase2":
            return
        self._ingest(message.kind, message.src, message.payload["vector"])
        self.after_update_input(message)
        self._batch_recompute_pending = True

    # ``dispatch`` resolves ``on_<kind>``: both kinds reach one body.
    on_rt_update = on_price_update = on_table_update

    def after_update_input(self, message: Message) -> None:
        """Called after storing an update, before the recomputation.

        The faithful extension copies the input to its checkers here,
        per the [PRINC1]/[PRINC2] ordering.
        """

    # ------------------------------------------------------------------
    # dynamic topology (reconvergence epochs)
    # ------------------------------------------------------------------

    def reanchor(
        self,
        neighbors: Sequence[NodeId],
        own_cost: Cost,
        changes: Sequence[Tuple[NodeId, Optional[Cost]]],
    ) -> None:
        """Epoch boundary: apply the re-anchor op
        (:meth:`ReplayKernel.reanchor`) and settle it, holding the
        deltas for :meth:`react_to_topology_change` so fresh-link
        resends can go out first."""
        assert self.comp is not None
        self.comp.reanchor(neighbors, own_cost, changes)
        self._anchor_deltas = self.comp.settle()
        self.phase = "phase2"

    def react_to_topology_change(self) -> None:
        """The epoch kick: announce what the re-anchor op settled,
        through the ordinary broadcast seams (a node that did not
        re-anchor announces nothing)."""
        deltas, self._anchor_deltas = self._anchor_deltas, None
        if deltas is None:
            return
        self.sim.metrics.record_computation(self.node_id)
        self._announce(*deltas)

    def resend_full_tables(self, neighbor: NodeId) -> None:
        """Unicast the full tables across a new or restored link.

        Delta broadcasts assume the receiver holds the previously
        announced rows; a fresh link starts from nothing, so both
        endpoints send their current tables once, through the same
        broadcast seams as every delta.  The changed-key sets are left
        untouched, so the regular delta streams go on as before, and a
        seam that rewrites or drops rows does the same to the resend.
        """
        assert self.comp is not None
        route_rows, avoid_rows = encode_full_tables(self.comp)
        self.announce_routes(route_rows, (neighbor,))
        self.announce_prices(avoid_rows, (neighbor,))

    def join_network(self, known_costs: Mapping[NodeId, Cost]) -> None:
        """Bootstrap a node joining mid-run, DATA1 seeded out of band.

        The compressed equivalent of flooding phase 1 and then starting
        phase 2 on the current graph: build the computation over the
        live neighbour set, note every known declaration, and run the
        initial full relaxation (:meth:`start_phase2`).  The first
        announcements — the full tables as a delta against nothing —
        reach the new neighbours through the normal broadcast path.
        A joiner has no kernel at the epoch boundary, so it takes no
        re-anchor op; its neighbours attach it in theirs and resend
        their full tables to it.
        """
        self.comp = ReplayKernel(
            self.node_id, self.neighbors, self.declared_cost()
        )
        self._kernel_emitted = {}
        for node, cost in sorted(known_costs.items(), key=lambda kv: repr(kv[0])):
            self.comp.note_cost_declaration(node, cost)
        self.start_phase2()

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
        ttl = 4 * max(4, len(self.comp.costs))
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

