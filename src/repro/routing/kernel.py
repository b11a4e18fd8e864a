"""The shared FPSS replay kernel: one incremental computation, many clients.

Reproduces: the iterative FPSS calculation of Shneidman & Parkes,
"Specification Faithfulness in Networks with Rational Nodes" (PODC'04),
Section 4 — DATA1-DATA3* and the checker replay of Section 4.2/4.3.

:class:`ReplayKernel` is the *pure, message-driven state machine* at the
centre of every FPSS computation in this repository: ingest wire deltas,
run the fused monotone relaxation, expose changed-key sets, hash the
tables.  It has no I/O and no simulator coupling, so it is consumed by
three very different clients, all of which settle through
:meth:`ReplayKernel.settle`:

* the principal's own :class:`~repro.routing.fpss.FPSSNode`, whose
  ``comp`` is a kernel and whose settle-and-announce step sends the
  deltas :meth:`ReplayKernel.settle` returns (a faithful principal
  settles through the :class:`SharedKernel` log it writes);
* a checker's :class:`~repro.faithful.mirror.PrincipalMirror`, which
  replays a neighbouring principal on forwarded copies through a
  :class:`SharedKernel` replay log; and
* :func:`kernel_fixed_point`, a test helper that iterates synchronous
  rounds of the same state machine with no simulator at all, so tests
  can check the distribution layer against the bare kernel.

Columnar hot path
-----------------
The ingest → fused relaxation → changed-key-set hot path runs over flat
parallel lists indexed by dense int ids: node ids and
``(destination, avoided)`` keys are interned once per kernel, replay
state lives in id-indexed columns, and every canonical drain sorts ids
by a precomputed id→rank permutation instead of re-deriving ``repr``
sort keys per call (rank order equals ``repr`` order by
construction — see the :class:`ReplayKernel` docstring and
``docs/determinism.md``).

One relaxation path
-------------------
Every relaxation settles through the dirty set, phase starts included:
a fresh or reset kernel enters each neighbour (the base case) into the
destination universe through the same rule as any later entry, so its
neighbours start dirty and its first :meth:`ReplayKernel.settle` *is*
the phase-start relaxation.  There is no full-rescan twin; the
kernel's independent check is the engine oracle
(:func:`~repro.routing.engine.fixed_point_digests`).

Sparse avoidance wire
---------------------
FPSS prices transit node ``k`` on ``P(i,j)`` with ``d^{-k}(i,j)``, so a
node keeps — and announces — avoidance entries only for keys ``(j, k)``
with ``k`` interior to its own current route ``P(i,j)``: a few keys per
destination instead of one per node.  Receivers rebuild the dense
candidate set with FPSS's case split per neighbour ``a``: if ``k`` lies
on ``a``'s announced route to ``j`` the candidate is ``a``'s avoidance
row ``(j, k)``; otherwise it is ``a``'s route offer itself, because
``P(a,j)`` is also ``a``'s argmin among the paths avoiding ``k`` (the
same total order ranks both).  At every fixed point this candidate set
equals the dense one, ties included.  A key that leaves a node's path
is dropped and announced as a withdrawal row, so each receiver's store
mirrors the sender's current on-path table exactly.  The kernel's
semantic check is the engine oracle,
:func:`~repro.routing.engine.fixed_point_digests`.

Checker replay logs
-------------------
Every checker mirror replays its principal through a
:class:`SharedKernel`: one :class:`ReplayKernel` paired with an
append-only *op log*, started from the checker's seed by
:meth:`SharedKernel.seeded`.  The mirror that reaches the log frontier
executes its op (ingest or flush) and records it together with its
observable results (the predicted broadcast deltas); a mirror behind
the frontier *verifies* that its own op is bit-identical to the logged
one and reuses the recorded result for the cost of a tuple compare.

A principal's broadcast reaches all of its k checkers identically, so k
independent mirrors would replay the *identical* op stream — the
~O(deg²) redundancy that made checked networks lag plain ones by two
size rungs.  :class:`MirrorKernelPool` removes it within one simulated
host (one OS process running the whole network): all mirrors of a
principal follow one pooled log, and per-checker state shrinks to the
cheap parts: the own-sent ledger, expected-broadcast queues, and a
cursor into the log.  A mirror without a pool starts a log of its own
and is always at its frontier; that is the per-neighbour reference
(``shared_checking=False``) the pooled path is property-tested against
(``tests/faithful/test_shared_mirror.py``).

The principal's own computation is the same op stream once more: its
received updates are the copies, its batch settles the flushes.  So an
*obedient* principal (an unhooked
:class:`~repro.faithful.node.FaithfulRoutingNode`) **leads** its pooled
log (:meth:`MirrorKernelPool.lead`): its ``comp`` is the log's kernel,
it appends every input through :meth:`SharedKernel.ingest` and settles
every batch through :meth:`SharedKernel.flush`, and it announces the
log's recorded deltas.  One kernel per principal is left per host.  The
principal always reaches an op first, because its copies leave at its
flush boundary and reach checkers a link delay later.  Any other
faithful principal writes a log of its own that no mirror follows.

Sharing invariant
-----------------
Mirrors of one principal may share a log **iff** they replay the same
op stream from the same seed.  Both conditions are checked, never
assumed:

* *seed*: :meth:`MirrorKernelPool.acquire` compares the principal's
  neighbour set, declared cost, and the checker's converged DATA1
  against the pooled log's seed; any mismatch (possible off the honest
  path, e.g. divergent phase-1 state) refuses sharing and the mirror
  starts a log of its own.
* *stream*: every op a follower submits is compared against the log.
  The first divergence — a deviant principal sending different copies
  to different checkers, dropping copies selectively, or a lazy checker
  that stopped replaying — **forks** the mirror:
  :meth:`SharedKernel.fork_at` starts a new log that replays the
  *agreed* prefix (exactly the ops this mirror already verified)
  through the same :meth:`SharedKernel.ingest` / :meth:`SharedKernel.
  flush`, and the mirror continues on it alone.  Fork cost is one
  replay of the prefix, paid only on divergence — i.e. only in deviant
  runs, where detection work is the point.
* *leader*: only the principal writes a led log.  A follower that
  reaches its frontier gets ``False`` from :meth:`SharedKernel.ingest`
  or ``None`` from :meth:`SharedKernel.flush` and forks, as on any
  divergence, so no checker can ever mutate the principal's state.  A
  node with a deviation mixin or a collusion role, or whose seed the
  pool refuses, never leads: every deviation is computed apart from
  the log it is checked against.
  What this gives up, and the guards that remain, are in
  ``docs/architecture.md`` §4.
* *epoch*: a checked churn epoch reaches a log as one re-anchor op
  (:meth:`SharedKernel.anchor`): the principal's new neighbour set,
  declared cost and DATA1 changes.  Every follower submits the op it
  derives from its own handshake and DATA1, so the seed rule applies
  to each epoch's change: a match is a hit, a mismatch forks.

The kernel keeps no state outside its instances: ``repr`` sort keys
are derived per call, so replay cannot depend on what else the process
ran before.
"""

from __future__ import annotations

# purity: kernel

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import ConvergenceError, ProtocolError
from ..sim.crypto import stable_hash
from ..sim.messages import NodeId
from .graph import Cost
from .tables import PricingTable, RouteEntry, RoutingTable, TransitCostTable

#: Message kinds of the second construction phase (also re-exported by
#: :mod:`repro.routing.fpss`, which owns the protocol nodes).
KIND_RT_UPDATE = "rt-update"
KIND_PRICE_UPDATE = "price-update"
#: Both kinds, in the order :meth:`ReplayKernel.settle` returns their
#: deltas.
UPDATE_KINDS = (KIND_RT_UPDATE, KIND_PRICE_UPDATE)

RouteVector = Dict[NodeId, RouteEntry]
AvoidKey = Tuple[NodeId, NodeId]  # (destination, avoided node)
AvoidVector = Dict[AvoidKey, RouteEntry]

#: Relaxation sentinel: the argmin supplier for the directly-connected
#: base case (whose candidate never changes).
_BASE = object()


def _lex_key(path: Tuple) -> Tuple[str, ...]:
    """Lexicographic tie-break key of a path.

    Only consulted when two candidates tie on cost *and* hop count,
    which keeps the common relaxation path free of repr calls.
    """
    return tuple(repr(node) for node in path)


def _tag_of(state: Tuple, destination: NodeId) -> FrozenSet[NodeId]:
    """The DATA3* identity tag of an avoidance entry: its supplier.

    ``state`` is the key's relaxation state.  Every neighbour offers a
    path that starts with itself, so no two suppliers tie on the full
    (cost, hops, lex) order: the argmin supplier is unique and the tag
    is the singleton ``{Q[1]}`` of the entry's path ``Q``, with the
    base case standing for the destination itself.
    """
    supplier = state[0]
    return frozenset((destination if supplier is _BASE else supplier,))


def _stripped_worse(cand: Tuple, state: Tuple) -> bool:
    """True if candidate ``cand`` orders strictly after ``state``.

    Both are ``(supplier, cost, hops, path)`` stripped candidates; the
    lexicographic component is materialised only on full ties.
    """
    if cand[1] != state[1]:
        return cand[1] > state[1]
    if cand[2] != state[2]:
        return cand[2] > state[2]
    if cand[3] is state[3]:
        return False
    return _lex_key(cand[3]) > _lex_key(state[3])


def _stripped_equal(cand: Tuple, state: Tuple) -> bool:
    """True if two stripped candidates denote the same table entry."""
    return (
        cand[1] == state[1]
        and cand[2] == state[2]
        and (cand[3] is state[3] or _lex_key(cand[3]) == _lex_key(state[3]))
    )


def _stripped_beats_base(destination, best: Tuple) -> bool:
    """True if the base candidate ``(0.0, 1, (destination,))`` beats
    the current ``best`` stripped candidate."""
    # lint: allow[float-eq] base-case transit cost is exactly 0.0 by construction, never a computed sum
    if best[1] != 0.0:
        return best[1] > 0.0
    if best[2] != 1:
        return best[2] > 1
    return (repr(destination),) < _lex_key(best[3])


@dataclass
class KernelStats:
    """Work counters of one :class:`ReplayKernel` (or a shared pool).

    ``rows_ingested`` counts wire rows entering the fused relaxation
    (the per-row ingestion constant ROADMAP flags), ``route_rescans`` /
    ``avoid_rescans`` count full candidate scans (the expensive,
    argmin-invalidated path), and ``shared_hits`` / ``forks`` count the
    checker-side dedup (ops satisfied from a shared log, and mirrors
    that diverged off it).
    """

    rows_ingested: int = 0
    route_relaxations: int = 0
    route_rescans: int = 0
    avoid_rescans: int = 0
    shared_hits: int = 0
    forks: int = 0
    seed_mismatches: int = 0

    def merge(self, other: "KernelStats") -> None:
        """Accumulate another counter set into this one."""
        self.rows_ingested += other.rows_ingested
        self.route_relaxations += other.route_relaxations
        self.route_rescans += other.route_rescans
        self.avoid_rescans += other.avoid_rescans
        self.shared_hits += other.shared_hits
        self.forks += other.forks
        self.seed_mismatches += other.seed_mismatches

    def as_dict(self) -> Dict[str, int]:
        """Plain dict view for benchmark tables."""
        return {
            "rows_ingested": self.rows_ingested,
            "route_relaxations": self.route_relaxations,
            "route_rescans": self.route_rescans,
            "avoid_rescans": self.avoid_rescans,
            "shared_hits": self.shared_hits,
            "forks": self.forks,
            "seed_mismatches": self.seed_mismatches,
        }


class ReplayKernel:
    """Pure FPSS mechanism state for one node, over columnar storage.

    A message-driven state machine: :meth:`apply_route_delta` /
    :meth:`apply_avoid_delta` ingest wire rows (fusing the monotone
    avoidance relaxation into ingestion), :meth:`recompute_routes`,
    :meth:`recompute_avoidance` and :meth:`derive_pricing` settle the
    dirty keys, :meth:`consume_route_delta` / :meth:`consume_avoid_delta`
    read the changed-key sets off as the next suggested-specification
    broadcasts, and the digest methods hash the tables for bank
    comparison.  Determinism matters beyond
    tidiness: checker mirrors replay a principal's kernel on copies of
    its messages, and replay only works because the kernel is a pure
    function of (identity, neighbour set, op sequence).

    Columnar layout
    ---------------
    Every node id and every ``(destination, avoided)`` key is interned
    once per kernel into a contiguous int id (:meth:`_intern_node`,
    :meth:`_intern_avoid`); the hot-path state lives in flat parallel
    lists indexed by those ids:

    * ``_ref_col[did]`` — destination-universe reference counts;
    * ``_route_state_col[did]`` / ``_avoid_state_col[aid]`` — the
      reigning argmin per key (stripped candidates);
    * ``_avoid_dest[aid]`` / ``_avoid_avoided[aid]`` /
      ``_avoid_keys[aid]`` — key-id decomposition columns;
    * ``_avoid_active[aid]`` / ``_dest_keys[did]`` — the on-path key
      set: ``(j, k)`` is active iff ``k`` is interior to the owner's
      current route to ``j`` (and has a DATA1 entry);
    * per-neighbour offer stores (``_route_offers[n][did]``, and
      ``_avoid_offers[n][(dest, avoided)]`` keyed on the raw key, so
      rows for keys the owner does not hold are never interned).

    Dirty/changed bookkeeping is sets of int ids, and every canonical
    drain sorts ids by the precomputed ``_node_rank`` permutation
    instead of re-deriving ``repr`` sort keys per call.  Ranks are
    maintained by ordered insertion at interning time, so rank order
    equals ``repr`` order over all interned ids at every drain —
    the equivalence argument for replacing repr-sort on the hot path
    (see ``docs/determinism.md``).  Interning tables survive
    :meth:`reset_phase2` (they are pure key-to-id maps); all replay
    state columns are rebuilt.

    Avoidance keys follow the owner's routes (see the module docstring
    for the sparse wire): a route change queues its destination for a
    key resync at the next avoidance settle, which drops keys that
    left the path (announcing withdrawals) and rescans keys that
    entered it.  A neighbour's route offer for ``j`` is itself a
    candidate for every off-route key, so a routing row also runs the
    fused relaxation step for the destination's active keys.

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

    def __init__(
        self, owner: NodeId, neighbors: Sequence[NodeId], own_cost: Cost
    ) -> None:
        self.owner = owner
        self.neighbors: Tuple[NodeId, ...] = tuple(sorted(neighbors, key=repr))
        self._neighbor_set: FrozenSet[NodeId] = frozenset(self.neighbors)
        self.own_cost = float(own_cost)

        self.costs = TransitCostTable()  # DATA1
        self.costs.declare(owner, own_cost)
        self.routing = RoutingTable(owner)  # DATA2
        self.pricing = PricingTable(owner)  # DATA3*
        self.avoid: AvoidVector = {}
        #: Last offers received from each neighbour: routing rows keyed
        #: on the destination's dense id, avoidance rows on their
        #: ``(destination, avoided)`` key.
        self._route_offers: Dict[NodeId, Dict[int, Tuple]] = {}
        self._avoid_offers: Dict[NodeId, Dict[AvoidKey, Tuple]] = {}
        self.stats = KernelStats()

        # Interning tables: node -> did, (destination, avoided) -> aid,
        # plus the id -> key / id -> rank decomposition columns.  These
        # are pure key-to-id maps, independent of replay state, so they
        # survive reset_phase2 (ids stay stable across phase restarts).
        self._node_ids: Dict[NodeId, int] = {}
        self._node_keys: List[NodeId] = []
        #: did -> position of the node in ``repr`` order over all
        #: interned nodes; maintained by ordered insertion so sorting
        #: ids by rank is identical to sorting nodes by ``repr``.
        self._node_rank: List[int] = []
        self._rank_ids: List[int] = []  # ids in rank order
        self._rank_sort_keys: List[str] = []  # their sort keys, ascending
        self._avoid_ids: Dict[AvoidKey, int] = {}
        self._avoid_keys: List[AvoidKey] = []
        self._avoid_dest: List[int] = []  # aid -> destination did
        self._avoid_avoided: List[int] = []  # aid -> avoided did

        # did/aid-indexed state columns; grown by interning, rebuilt by
        # _reset_incremental_state.
        self._ref_col: List[int] = []
        self._route_state_col: List[Optional[Tuple]] = []
        self._avoid_state_col: List[Optional[Tuple]] = []
        self._avoid_active: List[bool] = []

        self._owner_id = self._intern_node(owner)
        for neighbor in self.neighbors:
            self._intern_node(neighbor)
        self._reset_incremental_state()

    # ------------------------------------------------------------------
    # key interning
    # ------------------------------------------------------------------

    def _intern_node(self, node: NodeId) -> int:
        """The dense id of ``node``, interning it on first sight.

        New ids are inserted into the rank permutation at their
        ``repr`` position (binary search over the sorted key
        column), shifting the ranks of all ids ordering after them —
        O(n) per *new* node, amortised away because the node universe
        of a run is small and recurs across every broadcast.
        """
        nid = self._node_ids.get(node)
        if nid is not None:
            return nid
        nid = len(self._node_keys)
        self._node_ids[node] = nid
        self._node_keys.append(node)
        sort_key = repr(node)
        sort_keys = self._rank_sort_keys
        lo = 0
        hi = len(sort_keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if sort_keys[mid] < sort_key:
                lo = mid + 1
            else:
                hi = mid
        sort_keys.insert(lo, sort_key)
        rank_ids = self._rank_ids
        rank_ids.insert(lo, nid)
        rank_col = self._node_rank
        rank_col.append(lo)
        for shifted in rank_ids[lo + 1 :]:
            rank_col[shifted] += 1
        self._ref_col.append(0)
        self._route_state_col.append(None)
        return nid

    def _intern_avoid(self, key: AvoidKey) -> int:
        """The dense id of an avoidance key, interning it on first sight."""
        aid = self._avoid_ids.get(key)
        if aid is None:
            aid = len(self._avoid_keys)
            self._avoid_ids[key] = aid
            self._avoid_keys.append(key)
            self._avoid_dest.append(self._intern_node(key[0]))
            self._avoid_avoided.append(self._intern_node(key[1]))
            self._avoid_state_col.append(None)
            self._avoid_active.append(False)
        return aid

    def _reset_incremental_state(self) -> None:
        """(Re)initialise the delta-recomputation bookkeeping.

        The interning tables persist (ids are stable for the kernel's
        lifetime); every replay-state column and dirty/changed set is
        rebuilt at its current interned size.  Each neighbour then enters
        the universe dirty, so the next settle is the phase start.
        """
        #: Routing dirty map: destination did -> the set of neighbours
        #: whose input changed since the last relaxation, or ``None``
        #: for "rescan every candidate" (universe (re)entry, DATA1
        #: change).
        self._dirty_routes: Dict[int, Optional[Set[NodeId]]] = {}
        #: Active avoidance key ids whose reigning argmin was
        #: invalidated and that need a full candidate rescan.
        #: Improvements never land here — they are adopted directly
        #: during ingestion (the common, monotone case), with
        #: :attr:`_avoid_changed` accumulating whether any entry moved
        #: since the last recompute call.
        self._avoid_rescan: Set[int] = set()
        self._avoid_changed = False
        self._dirty_pricing: Set[int] = set()
        #: Destination dids whose route changed since the last
        #: avoidance settle: their on-path key sets are resynced there.
        self._key_resync: Set[int] = set()
        #: did -> the active aids of that destination, in path order.
        self._dest_keys: Dict[int, Tuple[int, ...]] = {}
        self._avoid_active = [False] * len(self._avoid_keys)
        #: Ids whose DATA2/avoidance entries changed since the last
        #: announcement was encoded — the O(|changes|) source for delta
        #: broadcasts of the unmodified (suggested) specification.
        self._route_changes: Set[int] = set()
        self._avoid_changes: Set[int] = set()
        #: Last relaxation result per key: ``(supplier, stripped key)``
        #: where the supplier is the neighbour whose candidate won (or
        #: ``_BASE`` for the directly-connected base case) and the
        #: stripped key orders candidates without materialising them.
        #: Tracking the argmin makes a relaxation O(|changed inputs|)
        #: unless the winning input itself worsened.
        self._route_state_col = [None] * len(self._node_keys)
        self._avoid_state_col = [None] * len(self._avoid_keys)
        #: Reference counts for the destination universe: +1 per
        #: neighbour vector currently announcing the destination, +1 if
        #: it is a neighbour (the base case of the relaxation).  A
        #: destination is relaxed only while its count is positive.
        self._ref_col = [0] * len(self._node_keys)
        owner_id = self._owner_id
        node_ids = self._node_ids
        for neighbor in self.neighbors:
            nid = node_ids[neighbor]
            if nid != owner_id:
                self._universe_add(nid)

    # ------------------------------------------------------------------
    # phase 1: transit cost dissemination
    # ------------------------------------------------------------------

    def note_cost_declaration(self, node: NodeId, cost: Cost) -> bool:
        """Record a flooded declaration; True if DATA1 changed.

        A changed entry of another node marks exactly the keys it feeds
        (:meth:`_cost_entry_moved`); the owner's own entry feeds none.
        Declarations made before phase-2 state exists (phase 1 of every
        honest run) mark nothing.
        """
        changed = self.costs.declare(node, cost)
        if changed and node != self.owner:
            self._cost_entry_moved(node)
        return changed

    def _cost_entry_moved(self, node: NodeId) -> None:
        """Mark the keys fed by ``node``'s changed, new or retracted
        DATA1 entry (``node`` is not the owner).

        As a neighbour, ``c_node`` prices every candidate it supplies:
        each destination it offers gets it as a changed supplier, and
        its repriced offer is fused into that destination's avoidance
        keys, exactly as a wire row from it would be.  As a transit
        node, ``c_node`` is a price term and ``knows(node)`` decides
        which keys exist, so every routed destination with ``node``
        interior to its path has its pricing row marked and its key set
        resynced.  No route reads the owner's own cost.
        """
        if not (self._route_offers or self.routing.destinations):
            return  # no phase-2 state derived yet
        offers = self._route_offers.get(node)
        if offers and node in self._neighbor_set:
            owner_id = self._owner_id
            dest_keys = self._dest_keys
            for did in offers:
                if did == owner_id:
                    continue
                self._mark_supplier(did, node)
                if did in dest_keys:
                    self._route_offer_moved(node, did)
        pricing = self._dirty_pricing
        resync = self._key_resync
        # A route state's offer path ends at its destination, so
        # ``node`` is interior to the route iff it is on the offer path
        # and is not its last hop.
        for did, state in enumerate(self._route_state_col):
            if state is not None and node in state[3] and state[3][-1] != node:
                pricing.add(did)
                resync.add(did)

    def _mark_supplier(self, did: int, neighbor: NodeId) -> None:
        """Mark ``neighbor`` a changed supplier of destination ``did``."""
        suppliers = self._dirty_routes.get(did)
        if suppliers is not None:
            suppliers.add(neighbor)
        elif did not in self._dirty_routes:
            self._dirty_routes[did] = {neighbor}

    def _rescan_destination(self, did: int) -> None:
        """Queue a full rescan of a destination and its active keys
        (its base case appeared or disappeared)."""
        self._dirty_routes[did] = None
        self._avoid_rescan.update(self._dest_keys.get(did, ()))

    def _mark_all_dirty(self) -> None:
        """Mark every derived entry dirty; the next settle re-relaxes all.

        The full re-relaxation reference: no event calls it.
        ``tests/routing/test_incremental_property.py`` settles the
        kernel's per-key marks against it after every wire delta and
        every event.
        """
        dirty = self._dirty_routes
        pricing = self._dirty_pricing
        for did, count in enumerate(self._ref_col):
            if count > 0:
                dirty[did] = None
                pricing.add(did)
        # Every key set is resynced (DATA1 decides which transit nodes
        # may key an entry) and every active key rescanned.
        self._key_resync.update(self._dest_keys)
        for aids in self._dest_keys.values():
            self._avoid_rescan.update(aids)
        # Routed destinations that dropped out of the universe (stranded
        # by topology events) are marked too, so the settle withdraws
        # their entries and clears their pricing rows; inert on static
        # runs, where the universe covers every routed destination.
        ref_col = self._ref_col
        intern = self._intern_node
        for dest in self.routing.destinations:
            did = intern(dest)
            if ref_col[did] == 0:
                dirty[did] = None
            pricing.add(did)
            self._key_resync.add(did)

    def known_nodes(self) -> Tuple[NodeId, ...]:
        """Every node with a DATA1 entry, repr-sorted."""
        return tuple(sorted(self.costs.as_dict(), key=repr))

    # ------------------------------------------------------------------
    # topology deltas (dynamic networks)
    # ------------------------------------------------------------------
    #
    # These mutators model rare events — a link failing or being
    # restored, a node leaving or changing its declared cost.  Churn
    # reaches them only through an epoch's re-anchor op
    # (:meth:`reanchor`), applied at network quiescence.
    # Each one follows the rule wire ingestion follows: it marks exactly
    # the route, avoidance and pricing keys whose inputs it changed, and
    # the next settle relaxes them through the same supplier sets and
    # rescans as any wire delta.

    def detach_neighbor(self, neighbor: NodeId) -> None:
        """Remove a failed or departed link's peer from this kernel.

        Drops the neighbour's stored vectors (releasing their universe
        references) and its base-case candidacy.  Before they go, every
        destination the neighbour offered gets it as a changed
        supplier, every active key it reigns is queued for a rescan,
        and its own destination gets a full rescan (its base case is
        gone); the next settle withdraws every entry it was supporting.
        """
        if neighbor not in self._neighbor_set:
            raise ProtocolError(
                f"{self.owner!r} cannot detach non-neighbour {neighbor!r}"
            )
        self.neighbors = tuple(n for n in self.neighbors if n != neighbor)
        self._neighbor_set = frozenset(self.neighbors)
        routes = self._route_offers.pop(neighbor, None)
        if routes:
            owner_id = self._owner_id
            dest_keys = self._dest_keys
            state_col = self._avoid_state_col
            rescan = self._avoid_rescan
            for did in routes:
                if did == owner_id:
                    continue
                self._universe_discard(did)
                self._mark_supplier(did, neighbor)
                for aid in dest_keys.get(did, ()):
                    state = state_col[aid]
                    if state is not None and state[0] == neighbor:
                        rescan.add(aid)
        self._avoid_offers.pop(neighbor, None)
        # The base-case reference held for the neighbour itself.
        nid = self._node_ids[neighbor]
        self._universe_discard(nid)
        self._rescan_destination(nid)

    def attach_neighbor(self, neighbor: NodeId) -> None:
        """Add a restored or newly created link's peer to this kernel.

        The peer's destination and its active keys get a full rescan
        (a new base case).  The peer starts with no stored vectors; the
        protocol layer is responsible for the one-off full-table
        exchange that re-seeds the delta streams across the new link,
        and its offers arrive as ordinary deltas.
        """
        if neighbor == self.owner or neighbor in self._neighbor_set:
            raise ProtocolError(
                f"{self.owner!r} cannot attach {neighbor!r} as a new neighbour"
            )
        self.neighbors = tuple(sorted(self.neighbors + (neighbor,), key=repr))
        self._neighbor_set = frozenset(self.neighbors)
        nid = self._intern_node(neighbor)
        self._universe_add(nid)
        self._rescan_destination(nid)

    def retract_cost_declaration(self, node: NodeId) -> bool:
        """Forget a departed node's DATA1 entry; True if it was known.

        Avoidance keys on the departed node are withdrawn at the next
        settle: a fresh computation on the post-event graph never forms
        ``(dest, node)`` keys for a node it has no declaration for, and
        the key resync (queued by :meth:`_cost_entry_moved`) skips
        unknown transit nodes.
        """
        if node == self.owner:
            raise ProtocolError(f"{self.owner!r} cannot retract its own cost")
        if not self.costs.retract(node):
            return False
        self._cost_entry_moved(node)
        return True

    def change_own_cost(self, cost: Cost) -> bool:
        """Adopt a new declared transit cost for the owner itself."""
        self.own_cost = float(cost)
        return self.note_cost_declaration(self.owner, cost)

    def reanchor(
        self,
        neighbors: Sequence[NodeId],
        own_cost: Cost,
        changes: Sequence[Tuple[NodeId, Optional[Cost]]],
    ) -> None:
        """Move the kernel onto an epoch's topology and declarations.

        Detaches lost neighbours, attaches new ones, adopts the owner's
        declared cost and notes every other changed DATA1 entry; a
        ``(node, None)`` change retracts that node's declaration.  It
        is the one way churn changes a kernel: the state change of an
        epoch's re-anchor op (:meth:`SharedKernel.anchor` on a replay
        log, ``FPSSNode.reanchor`` on a plain node).
        """
        wanted = frozenset(neighbors)
        for neighbor in self.neighbors:
            if neighbor not in wanted:
                self.detach_neighbor(neighbor)
        for neighbor in sorted(wanted - self._neighbor_set, key=repr):
            self.attach_neighbor(neighbor)
        self.change_own_cost(own_cost)
        for node, cost in changes:
            if cost is None:
                self.retract_cost_declaration(node)
            else:
                self.note_cost_declaration(node, cost)

    # ------------------------------------------------------------------
    # phase 2: routing and pricing
    # ------------------------------------------------------------------

    def reset_phase2(self) -> None:
        """Clear DATA2/DATA3* state for a phase restart."""
        self.routing = RoutingTable(self.owner)
        self.pricing = PricingTable(self.owner)
        self.avoid = {}
        self._route_offers = {}
        self._avoid_offers = {}
        self._reset_incremental_state()

    # --- destination-universe reference counting ----------------------

    def _universe_add(self, did: int) -> None:
        count = self._ref_col[did]
        self._ref_col[did] = count + 1
        if count == 0:
            # The destination just (re)entered the universe (a phase
            # start's neighbours included): its route is relaxed from
            # every stored offer.  Avoidance keys follow the route.
            self._dirty_routes[did] = None
            self._dirty_pricing.add(did)

    def _universe_discard(self, did: int) -> None:
        col = self._ref_col
        count = col[did]
        if count <= 1:
            col[did] = 0
            if count == 1:
                # The destination left the universe (its last offer was
                # withdrawn); the route relaxation withdraws its entry,
                # and the key resync its avoidance entries with it.
                self._dirty_pricing.add(did)
        else:
            col[did] = count - 1

    def consume_route_delta(self) -> Tuple:
        """The next suggested-specification routing delta broadcast.

        Reads the changed-key set in O(|changes|) and consumes it,
        draining ids in rank order (== ``repr`` order; see the
        class docstring).  Principals and checker mirrors both encode
        from here (through :meth:`settle`), which is what keeps actual
        and predicted broadcast streams bit-identical.  A
        changed key whose entry was deleted (a destination withdrawn by
        a topology event) becomes the withdrawal row
        ``(dest, None, ())``; on a static graph deletions never happen
        and no withdrawal is ever emitted.
        """
        changes = self._route_changes
        self._route_changes = set()
        routing = self.routing
        keys = self._node_keys
        rank = self._node_rank
        rows = []
        for did in sorted(changes, key=rank.__getitem__):
            dest = keys[did]
            entry = routing.entry(dest)
            if entry is not None:
                rows.append((dest, entry.cost, entry.path))
            else:
                rows.append((dest, None, ()))
        return tuple(rows)

    def consume_avoid_delta(self) -> Tuple:
        """The next suggested-specification avoidance delta broadcast.

        Deleted avoidance entries become withdrawal rows
        ``(dest, avoided, None, ())``, mirroring
        :meth:`consume_route_delta`.
        """
        changes = self._avoid_changes
        self._avoid_changes = set()
        avoid = self.avoid
        akeys = self._avoid_keys
        rank = self._node_rank
        dest_col = self._avoid_dest
        avoided_col = self._avoid_avoided
        rows = []
        for aid in sorted(
            changes, key=lambda a: (rank[dest_col[a]], rank[avoided_col[a]])
        ):
            key = akeys[aid]
            entry = avoid.get(key)
            if entry is not None:
                rows.append((key[0], key[1], entry.cost, entry.path))
            else:
                rows.append((key[0], key[1], None, ()))
        return tuple(rows)

    # --- neighbour vector ingestion -----------------------------------
    #
    # Offers are stored *raw* as ``(cost, path)`` tuples straight off
    # the wire: with broadcast fan-out every announcement is ingested
    # by every neighbour, so per-row materialisation (entry objects,
    # sort keys) would dominate the hot path.  Entries are only
    # materialised for adopted winners.

    def _route_offer_moved(self, neighbor: NodeId, did: int) -> None:
        """Fuse a neighbour's changed route offer into the keys of ``did``.

        The route offer is the neighbour's candidate for every active
        key whose avoided node is off that route, and for the others it
        selects the neighbour's avoidance row; either way one candidate
        per key changed, and :meth:`_fuse_candidate` settles it.  A
        neighbour without a DATA1 entry offers no candidate; if its
        entry was just retracted, the keys it reigned are rescanned.
        """
        ncost = self.costs.get(neighbor)
        new = self._route_offers[neighbor].get(did) if ncost is not None else None
        offers_get = self._avoid_offers.get(neighbor, {}).get
        owner = self.owner
        akeys = self._avoid_keys
        for aid in self._dest_keys[did]:
            key = akeys[aid]
            avoided = key[1]
            if avoided == neighbor:
                continue  # never a candidate for its own avoidance keys
            # Route and avoidance rows both end in (cost, path).
            cand = None
            if new is not None:
                row = offers_get(key) if avoided in new[2] else new
                if row is not None:
                    path = row[-1]
                    if owner not in path and avoided not in path:
                        cand = (neighbor, ncost + row[-2], len(path), path)
            self._fuse_candidate(aid, did, key, neighbor, cand)

    def _fuse_candidate(
        self,
        aid: int,
        did: int,
        key: AvoidKey,
        neighbor: NodeId,
        cand: Optional[Tuple],
    ) -> None:
        """The fused relaxation step for one active key.

        ``cand`` is ``neighbor``'s new stripped candidate (``None`` when
        it has none).  An improvement on the reigning argmin is adopted
        immediately — a running min, confluent, so the batch-boundary
        result equals a batch-end relaxation; a worsened or withdrawn
        reigning candidate schedules a full rescan of the key; anything
        else costs a comparison.  Only an adopted entry marks the
        pricing row: a DATA3* cell reads the entry and its reigning
        supplier, and a candidate that loses changes neither (the rescan
        marks the row if the entry moves).
        """
        st = self._avoid_state_col[aid]
        if st is None or (cand is not None and _stripped_worse(st, cand)):
            if cand is not None:
                self._avoid_state_col[aid] = cand
                self.avoid[key] = RouteEntry(
                    cost=cand[1], path=(self.owner,) + tuple(cand[3])
                )
                self._avoid_changes.add(aid)
                self._avoid_changed = True
                self._dirty_pricing.add(did)
            return
        if st[0] == neighbor and (cand is None or _stripped_worse(cand, st)):
            self._avoid_rescan.add(aid)  # the reigning input worsened

    def apply_route_delta(self, neighbor: NodeId, rows: Sequence[Tuple]) -> None:
        """Ingest a wire delta produced by ``encode_route_delta``.

        Upserts ``(dest, cost, path)`` rows, removes withdrawal rows
        (``cost is None``), marks each touched destination dirty with
        this neighbour as the changed supplier, and fuses the changed
        offer into the destination's avoidance keys
        (:meth:`_route_offer_moved`).
        """
        if neighbor not in self.neighbors:
            raise ProtocolError(
                f"{self.owner!r} got a route update from non-neighbour {neighbor!r}"
            )
        stored = self._route_offers.get(neighbor)
        if stored is None:
            stored = self._route_offers[neighbor] = {}
        owner_id = self._owner_id
        dirty = self._dirty_routes
        node_ids_get = self._node_ids.get
        intern = self._intern_node
        dest_keys = self._dest_keys
        stored_get = stored.get
        self.stats.rows_ingested += len(rows)
        for row in rows:
            dest = row[0]
            did = node_ids_get(dest)
            if did is None:
                did = intern(dest)
            old = stored_get(did)
            if row[1] is None:  # withdrawal
                if old is not None:
                    del stored[did]
                    if did != owner_id:
                        self._universe_discard(did)
            else:
                if did != owner_id and old is None:
                    self._universe_add(did)
                stored[did] = row  # rows are shared across receivers
            if did != owner_id:
                suppliers = dirty.get(did)
                if suppliers is not None:
                    suppliers.add(neighbor)
                elif did not in dirty:
                    dirty[did] = {neighbor}
                if did in dest_keys:
                    self._route_offer_moved(neighbor, did)

    def apply_avoid_delta(self, neighbor: NodeId, rows: Sequence[Tuple]) -> None:
        """Ingest a wire delta, fusing the monotone relaxation step.

        Every ``(dest, avoided, cost, path)`` row is stored as a raw
        offer, and a withdrawal row (``cost is None``) deletes one.  A
        row is a *candidate* only for an active key whose avoided node
        lies on this neighbour's stored route to ``dest``; for any
        other key the neighbour's route offer is its candidate (the
        sparse wire's case split), so storing is all there is to do.
        A candidate row goes through the fused relaxation step
        (:meth:`_fuse_candidate`).  Every per-row invariant is hoisted
        out of the loop; per row the key resolves to one interned
        ``aid`` and all state lives in list columns indexed by it.
        """
        if neighbor not in self.neighbors:
            raise ProtocolError(
                f"{self.owner!r} got a price update from non-neighbour {neighbor!r}"
            )
        stored = self._avoid_offers.get(neighbor)
        if stored is None:
            stored = self._avoid_offers[neighbor] = {}
        routes_get = self._route_offers.get(neighbor, {}).get
        ncost = self.costs.get(neighbor)
        owner = self.owner
        active = self._avoid_active
        dest_col = self._avoid_dest
        avoid_ids_get = self._avoid_ids.get
        fuse = self._fuse_candidate
        self.stats.rows_ingested += len(rows)
        for row in rows:
            dest, avoided, cost, path = row
            key = (dest, avoided)
            if cost is None:  # withdrawal
                if stored.pop(key, None) is None:
                    continue
            else:
                stored[key] = row  # rows are shared across receivers
            if ncost is None:
                continue
            aid = avoid_ids_get(key)
            if aid is None or not active[aid]:
                continue
            did = dest_col[aid]
            route = routes_get(did)
            if route is None or avoided not in route[2]:
                continue  # the neighbour's route offer is its candidate
            cand = None
            if cost is not None and owner not in path and avoided not in path:
                cand = (neighbor, ncost + cost, len(path), path)
            fuse(aid, did, key, neighbor, cand)

    # --- routing relaxation -------------------------------------------
    #
    # Candidates are compared through *stripped* keys ``(cost, hops,
    # lex)``: the actual candidate sort key is ``(cost, hops + 1,
    # (repr(owner),) + lex)`` with the owner prefix shared by every
    # candidate of a node, so dropping it is a monotone transformation
    # that preserves the argmin and every tie.  Cost is compared first
    # and the lexicographic component is built only on full ties, so
    # the common case never touches repr.  The per-key relaxation state
    # ``(supplier, cost, hops, path)`` remembers the reigning argmin:
    # as long as the winner's own input did not worsen, a relaxation
    # only scans the suppliers whose input changed.

    def recompute_routes(self) -> bool:
        """Relax the dirty destinations; True if DATA2 changed.

        The relaxation is the path-vector Bellman-Ford of the
        Griffin-Wilfong model with the deterministic (cost, hops,
        lexicographic) tie-break shared with the centralized oracle.
        Relaxing only the dirty destinations suffices because a
        destination's candidate set depends only on its own rows in the
        neighbour vectors (diffed on ingestion), on the neighbour set
        and on its neighbours' DATA1 entries, and every event that
        changes the latter two marks the destinations they feed
        (:meth:`detach_neighbor`, :meth:`attach_neighbor`,
        :meth:`_cost_entry_moved`).
        """
        dirty = self._dirty_routes
        if not dirty:
            return False
        self._dirty_routes = {}
        ref_col = self._ref_col
        keys = self._node_keys
        changed = False
        for did, suppliers in dirty.items():
            if not ref_col[did]:
                # Outside the universe there are no candidates:
                # withdraw any retained entry; rejoining re-marks the
                # destination dirty.
                if self._drop_route_entry(did):
                    changed = True
                continue
            if self._relax_route(keys[did], suppliers, did):
                changed = True
        return changed

    def _drop_route_entry(self, did: int) -> bool:
        """Withdraw a destination's DATA2 entry; True if one existed."""
        self._route_state_col[did] = None
        if self.routing.remove(self._node_keys[did]):
            self._route_changes.add(did)
            self._dirty_pricing.add(did)
            self._key_resync.add(did)
            return True
        return False

    def _drop_avoid_entry(self, aid: int) -> bool:
        """Withdraw one avoidance entry; True if one existed."""
        self._avoid_state_col[aid] = None
        if self.avoid.pop(self._avoid_keys[aid], None) is not None:
            self._avoid_changes.add(aid)
            self._dirty_pricing.add(self._avoid_dest[aid])
            return True
        return False

    def _relax_route(
        self, destination: NodeId, suppliers: Optional[Set[NodeId]], did: int
    ) -> bool:
        """Relax one destination; True if its DATA2 entry changed.

        ``suppliers`` limits the scan to the neighbours whose input
        changed (``None`` rescans everything): if the previous winner
        is not among them it still bounds the minimum, and if it is but
        improved, it still wins against the unchanged rest — only a
        worsened winner forces the full rescan.  ``did`` is the
        destination's interned id.  A DATA2 entry exists exactly when
        its route state does, so the state says whether one is installed.
        """
        owner = self.owner
        state_col = self._route_state_col
        state = state_col[did]
        full = suppliers is None
        self.stats.route_relaxations += 1
        # best: (supplier, cost, hops, offer path) stripped candidate.
        best = None
        keep = False
        if not full and state is not None:
            sup = state[0]
            if sup is not _BASE and sup in suppliers:
                vec = self._route_offers.get(sup)
                offer = vec.get(did) if vec else None
                cand = None
                if offer is not None:
                    cost = self.costs.get(sup)
                    opath = offer[2]
                    if cost is not None and owner not in opath:
                        cand = (sup, cost + offer[1], len(opath), opath)
                if cand is None or _stripped_worse(cand, state):
                    full = True  # the reigning input worsened: rescan
                else:
                    best = cand
            else:
                best = state
                keep = True
        if full:
            self.stats.route_rescans += 1
        costs_get = self.costs.get
        routes_get = self._route_offers.get
        # lint: allow[unordered-iter] argmin over the strict total order (cost, hops, lex key) is iteration-order independent
        for neighbor in (self.neighbors if full else suppliers):
            if neighbor == destination:
                if state is None or full:
                    if best is None or _stripped_beats_base(destination, best):
                        best = (_BASE, 0.0, 1, (destination,))
                        keep = False
                continue
            if best is not None and neighbor == best[0]:
                continue
            vec = routes_get(neighbor)
            offer = vec.get(did) if vec else None
            if offer is None:
                continue
            ncost = costs_get(neighbor)
            if ncost is None:
                continue
            total = ncost + offer[1]
            opath = offer[2]
            if best is not None:
                bcost = best[1]
                if total > bcost:
                    continue
                hops = len(opath)
                if total == bcost:
                    bhops = best[2]
                    if hops > bhops:
                        continue
                    if hops == bhops and _lex_key(opath) >= _lex_key(best[3]):
                        continue
            if owner in opath:
                continue
            best = (neighbor, total, len(opath), opath)
            keep = False
        if best is None:
            # Only a full rescan can reach here with an entry installed
            # (partial scans keep the reigning argmin as a bound), so a
            # surviving entry genuinely has no candidate left anywhere:
            # the destination became unreachable and is withdrawn, just
            # as a fresh computation on the shrunken graph would never
            # have derived it.  On a static graph this never fires —
            # obedient neighbours never retract their offers.
            return self._drop_route_entry(did)
        if keep:
            return False
        if state is not None and _stripped_equal(best, state):
            state_col[did] = best
            return False
        state_col[did] = best
        # The base case's offer path is (destination,) at cost 0.0.
        self.routing.update(
            destination, RouteEntry(cost=best[1], path=(owner,) + tuple(best[3]))
        )
        self._route_changes.add(did)
        self._dirty_pricing.add(did)
        self._key_resync.add(did)
        return True

    # --- avoidance relaxation -----------------------------------------

    def recompute_avoidance(self) -> bool:
        """Settle the avoidance table; True if it changed.

        Improvements were already adopted during ingestion (the
        :attr:`_avoid_changed` flag); what remains is resyncing the key
        sets of destinations whose route moved and rescanning the keys
        whose reigning argmin was invalidated — worsened, withdrawn,
        supplied by a moved route offer, or newly on the path.
        """
        changed = self._avoid_changed
        self._avoid_changed = False
        if self._key_resync and self._resync_keys():
            changed = True
        rescan = self._avoid_rescan
        if rescan:
            self._avoid_rescan = set()
            active = self._avoid_active
            rank = self._node_rank
            dest_col = self._avoid_dest
            avoided_col = self._avoid_avoided
            for aid in sorted(
                rescan, key=lambda a: (rank[dest_col[a]], rank[avoided_col[a]])
            ):
                if active[aid] and self._relax_avoid(aid):
                    changed = True
        return changed

    def _resync_keys(self) -> bool:
        """Align queued destinations' key sets with their routes.

        A key ``(j, k)`` is active iff ``k`` is interior to the owner's
        route to ``j`` and has a DATA1 entry.  Keys that left are
        dropped (their entries become withdrawal rows on the wire);
        keys that entered are queued for a rescan from the stored
        offers.  True if an entry was dropped.
        """
        pending = self._key_resync
        self._key_resync = set()
        changed = False
        routing = self.routing
        knows = self.costs.knows
        keys = self._node_keys
        rank = self._node_rank
        active = self._avoid_active
        dest_keys = self._dest_keys
        intern_avoid = self._intern_avoid
        for did in sorted(pending, key=rank.__getitem__):
            dest = keys[did]
            entry = routing.entry(dest)
            new: Tuple[int, ...] = ()
            if entry is not None:
                new = tuple(
                    intern_avoid((dest, transit))
                    for transit in entry.path[1:-1]
                    if knows(transit)
                )
            old = dest_keys.get(did, ())
            if new == old:
                continue
            for aid in old:
                if aid not in new:
                    active[aid] = False
                    if self._drop_avoid_entry(aid):
                        changed = True
            for aid in new:
                if not active[aid]:
                    active[aid] = True
                    self._avoid_rescan.add(aid)
            if new:
                dest_keys[did] = new
            else:
                del dest_keys[did]
        return changed

    def _relax_avoid(self, aid: int) -> bool:
        """Fully rescan one active avoidance key; True if it changed.

        Same stripped-candidate scan as :meth:`_relax_route`, with the
        avoided node excluded both as a neighbour and inside paths.
        Each neighbour's candidate follows the sparse wire's case
        split: its avoidance row when the avoided node lies on its
        stored route to the destination, that route offer otherwise.
        """
        owner = self.owner
        key = self._avoid_keys[aid]
        destination, avoided = key
        did = self._avoid_dest[aid]
        state_col = self._avoid_state_col
        state = state_col[aid]
        best = None
        self.stats.avoid_rescans += 1
        costs_get = self.costs.get
        routes_get = self._route_offers.get
        offers_get = self._avoid_offers.get
        for neighbor in self.neighbors:
            if neighbor == avoided:
                continue
            if neighbor == destination:
                if best is None or _stripped_beats_base(destination, best):
                    best = (_BASE, 0.0, 1, (destination,))
                continue
            vec = routes_get(neighbor)
            route = vec.get(did) if vec else None
            if route is None:
                continue
            ncost = costs_get(neighbor)
            if ncost is None:
                continue
            opath = route[2]
            if avoided in opath:
                vec = offers_get(neighbor)
                offer = vec.get(key) if vec else None
                if offer is None:
                    continue
                total = ncost + offer[2]
                opath = offer[3]
            else:
                total = ncost + route[1]
            if best is not None:
                bcost = best[1]
                if total > bcost:
                    continue
                hops = len(opath)
                if total == bcost:
                    bhops = best[2]
                    if hops > bhops:
                        continue
                    if hops == bhops and _lex_key(opath) >= _lex_key(best[3]):
                        continue
            if owner in opath or avoided in opath:
                continue
            best = (neighbor, total, len(opath), opath)
        if best is None:
            # No candidate supports this key: withdraw the entry.
            return self._drop_avoid_entry(aid)
        if state is not None and _stripped_equal(best, state):
            state_col[aid] = best
            return False
        state_col[aid] = best
        self.avoid[key] = RouteEntry(cost=best[1], path=(owner,) + tuple(best[3]))
        self._avoid_changes.add(aid)
        self._dirty_pricing.add(did)
        return True

    # --- pricing derivation -------------------------------------------

    def derive_pricing(self) -> bool:
        """Re-derive the dirty DATA3* rows; True if any cell changed.

        For a dirty destination ``j`` with a route, and every transit
        node ``k`` interior to that route, install

            price = c_k + d^{-k}(owner, j) - d(owner, j)

        tagged with the avoidance entry's reigning supplier
        (:func:`_tag_of`); a dirty destination without a route has its
        row cleared.  A row reads only its destination's DATA2 entry,
        the avoidance entries along that path (each with its supplier)
        and DATA1, so it is marked dirty exactly when one of those
        changes: route adoption or withdrawal, an avoidance entry
        adopted, rescanned to a new value or dropped, and a DATA1 change
        of a node interior to the route (:meth:`_cost_entry_moved`).
        Topology events reach a row only through the route and
        avoidance entries they move.
        """
        dirty = self._dirty_pricing
        if not dirty:
            return False
        self._dirty_pricing = set()
        changed = False
        keys = self._node_keys
        rank = self._node_rank
        for did in sorted(dirty, key=rank.__getitem__):
            destination = keys[did]
            if self.routing.entry(destination) is None:
                # No route (possibly withdrawn): clear any retained row;
                # a route arriving later re-marks it.
                if self._clear_pricing_row(destination):
                    changed = True
                continue
            if self._derive_pricing_row(destination):
                changed = True
        return changed

    def _clear_pricing_row(self, destination: NodeId) -> bool:
        """Clear one DATA3* row; True if it held any cell."""
        if self.pricing.row(destination):
            self.pricing.clear_destination(destination)
            return True
        return False

    def _derive_pricing_row(self, destination: NodeId) -> bool:
        """Re-derive one destination's DATA3* row; True if it changed."""
        entry = self.routing.entry(destination)
        assert entry is not None
        desired: Dict[NodeId, Tuple[Cost, FrozenSet[NodeId]]] = {}
        for transit in entry.path[1:-1]:
            key = (destination, transit)
            avoid_entry = self.avoid.get(key)
            if avoid_entry is None or not self.costs.knows(transit):
                continue
            price = self.costs.cost(transit) + avoid_entry.cost - entry.cost
            tag = _tag_of(self._avoid_state_col[self._avoid_ids[key]], destination)
            desired[transit] = (price, tag)
        current_row = self.pricing.row(destination)
        current_view = {
            transit: (cell.price, cell.tag) for transit, cell in current_row.items()
        }
        if current_view == desired:
            return False
        self.pricing.clear_destination(destination)
        for transit, (price, tag) in desired.items():
            self.pricing.set_price(destination, transit, price, tag)
        return True

    # ------------------------------------------------------------------
    # digests for bank comparison
    # ------------------------------------------------------------------

    def routing_digest(self) -> str:
        """Hash of DATA2 (BANK1 material)."""
        return self.routing.stable_digest()

    def pricing_digest(self) -> str:
        """Hash of DATA3* including tags (BANK2 material)."""
        return self.pricing.stable_digest()

    def cost_digest(self) -> str:
        """Hash of DATA1 (first-construction-phase checkpoint)."""
        return self.costs.stable_digest()

    def full_digest(self) -> str:
        """Combined digest over all construction state."""
        return stable_hash(
            (self.cost_digest(), self.routing_digest(), self.pricing_digest())
        )

    def settle(self) -> Tuple[Optional[Tuple], Optional[Tuple]]:
        """Run one incremental settle step; returns the emitted deltas.

        Relaxes routes, settles the avoidance table, re-derives dirty
        pricing rows, and consumes the changed-key sets into the
        suggested-specification broadcast deltas — ``(route_delta,
        avoid_delta)``, each ``None`` when that table did not change.
        Every client settles through here: the principal
        (``FPSSNode.flush_batch`` and ``reanchor``; the node announces
        the returned deltas), replay logs (:class:`SharedKernel`, hence every checker
        mirror and every faithful principal) and
        :func:`kernel_fixed_point`.  One step on both sides
        is the replay-exactness contract that keeps predicted and
        actual broadcast streams bit-identical.
        """
        route_delta = (
            self.consume_route_delta() if self.recompute_routes() else None
        )
        avoid_delta = (
            self.consume_avoid_delta() if self.recompute_avoidance() else None
        )
        self.derive_pricing()
        return route_delta, avoid_delta

    # Old names of the three settle steps, still looked up by the
    # benchmark tracer's wrap list.
    recompute_routes_incremental = recompute_routes
    recompute_avoidance_incremental = recompute_avoidance
    derive_pricing_incremental = derive_pricing


# ----------------------------------------------------------------------
# shared checker replay
# ----------------------------------------------------------------------

@dataclass
class SharedKernel:
    """One principal's replayed kernel plus the verified op log.

    Built from the *seed* every checker derives independently (the
    principal's neighbour set from the checker-setup handshake, its
    declared cost, and the converged DATA1), then advanced op by op by
    whichever client reaches the log frontier first — or, once
    :attr:`led`, by the principal alone.  See the module docstring for
    the sharing invariant, the leader rule and fork semantics.
    """

    owner: NodeId
    seed_neighbors: Tuple[NodeId, ...]
    seed_cost: Cost
    seed_known_costs: Dict[NodeId, Cost]
    kernel: ReplayKernel = field(init=False)
    #: Verified op log: ``("apply", kind, src, rows)`` for ingested
    #: copies, ``("flush", route_delta|None, price_delta|None)`` for
    #: relaxation boundaries with their recorded broadcast predictions,
    #: and ``("anchor", neighbors, cost, changes, route_delta|None,
    #: price_delta|None)`` for a checked epoch's re-anchor and settle.
    ops: List[Tuple] = field(default_factory=list)
    initial_route: Tuple = field(init=False)
    initial_price: Tuple = field(init=False)
    stats: KernelStats = field(default_factory=KernelStats)
    #: Whether a principal writes this log: followers may then only
    #: verify ops, never append them.
    led: bool = False

    def __post_init__(self) -> None:
        """Replicate the principal's ``start_phase2`` exactly once."""
        kernel = ReplayKernel(self.owner, self.seed_neighbors, self.seed_cost)
        for node, cost in self.seed_known_costs.items():
            kernel.note_cost_declaration(node, cost)
        # A reset kernel's first settle is the phase-2 start; the
        # principal announces both tables unconditionally.
        kernel.reset_phase2()
        route_delta, price_delta = kernel.settle()
        self.kernel = kernel
        self.initial_route = route_delta or ()
        self.initial_price = price_delta or ()

    @classmethod
    def seeded(
        cls,
        owner: NodeId,
        neighbors: Sequence[NodeId],
        cost: Cost,
        known_costs: Mapping[NodeId, Cost],
    ) -> "SharedKernel":
        """A fresh log replaying ``owner`` from one checker's seed.

        The one way a log is started: :meth:`MirrorKernelPool.acquire`
        builds the log its mirrors share here, a mirror with no pool
        (or whose seed the pool refused) builds a log of its own, and
        :meth:`fork_at` starts its fork from the parent's seed.
        """
        return cls(
            owner=owner,
            seed_neighbors=tuple(sorted(neighbors, key=repr)),
            seed_cost=float(cost),
            seed_known_costs=dict(known_costs),
        )

    def matches_seed(
        self,
        neighbors: Sequence[NodeId],
        declared_cost: Cost,
        known_costs: Mapping[NodeId, Cost],
    ) -> bool:
        """Whether a mirror seeded like this may share the kernel."""
        return (
            tuple(sorted(neighbors, key=repr)) == self.seed_neighbors
            # lint: allow[float-eq] seed identity must be exact; any bit difference forbids kernel sharing
            and float(declared_cost) == self.seed_cost
            and dict(known_costs) == self.seed_known_costs
        )

    @property
    def frontier(self) -> int:
        """The log position the kernel state corresponds to."""
        return len(self.ops)

    def ingest(
        self, pos: int, kind: str, src: NodeId, rows: Tuple, lead: bool = False
    ) -> bool:
        """Submit one copy-apply op at log position ``pos``.

        Returns False when the op conflicts with the log, or reaches
        the frontier of a :attr:`led` log without ``lead`` (the caller
        must fork), else True: the op either matched the logged one
        (nothing ran; counted in ``stats.shared_hits``) or was appended
        at the frontier and ingested.  Honest multicast shares one rows
        tuple across all receivers, so the verification compare is an
        identity check on the hot path.  The leading principal passes
        ``lead=True`` at the frontier.
        """
        ops = self.ops
        if pos < len(ops):
            logged = ops[pos]
            if (
                logged[0] == "apply"
                and logged[1] == kind
                and logged[2] == src
                and (logged[3] is rows or logged[3] == rows)
            ):
                self.stats.shared_hits += 1
                return True
            return False
        if self.led and not lead:
            return False
        ops.append(("apply", kind, src, rows))
        if kind == KIND_RT_UPDATE:
            self.kernel.apply_route_delta(src, rows)
        else:
            self.kernel.apply_avoid_delta(src, rows)
        return True

    def flush(
        self, pos: int, lead: bool = False
    ) -> Optional[Tuple[int, Optional[Tuple], Optional[Tuple], bool]]:
        """Submit one relaxation-boundary op at log position ``pos``.

        Returns ``(new_pos, route_delta, price_delta, ran)`` where the
        deltas are the predicted broadcasts (``None`` when that table
        did not change) and ``ran`` says whether this call executed the
        relaxation (False on a log hit).  Returns ``None`` when the log
        holds a conflicting op at ``pos``, or when ``pos`` is the
        frontier of a :attr:`led` log and ``lead`` is not set — the
        caller must fork.
        """
        ops = self.ops
        if pos < len(ops):
            logged = ops[pos]
            if logged[0] != "flush":
                return None
            self.stats.shared_hits += 1
            return (pos + 1, logged[1], logged[2], False)
        if self.led and not lead:
            return None
        route_delta, price_delta = self.kernel.settle()
        ops.append(("flush", route_delta, price_delta))
        return (pos + 1, route_delta, price_delta, True)

    def anchor(
        self,
        pos: int,
        neighbors: Tuple[NodeId, ...],
        cost: Cost,
        changes: Tuple[Tuple[NodeId, Cost], ...],
        lead: bool = False,
    ) -> Optional[Tuple[int, Optional[Tuple], Optional[Tuple], bool]]:
        """Submit an epoch's re-anchor op at log position ``pos``.

        The op moves the kernel onto the epoch's neighbour set, the
        owner's declared cost and the epoch's other DATA1 changes
        (:meth:`ReplayKernel.reanchor`), then settles once; the deltas
        are recorded as the epoch's first broadcasts.  Returns and
        refuses exactly like :meth:`flush`: a matching logged op is a
        hit, a different one (another neighbour list, another DATA1
        view) or the frontier of a :attr:`led` log without ``lead``
        returns ``None`` and the caller forks.
        """
        op = ("anchor", neighbors, cost, changes)
        ops = self.ops
        if pos < len(ops):
            logged = ops[pos]
            if logged[:4] != op:
                return None
            self.stats.shared_hits += 1
            return (pos + 1, logged[4], logged[5], False)
        if self.led and not lead:
            return None
        self.kernel.reanchor(neighbors, cost, changes)
        route_delta, price_delta = self.kernel.settle()
        ops.append(op + (route_delta, price_delta))
        return (pos + 1, route_delta, price_delta, True)

    def fork_at(self, pos: int) -> "SharedKernel":
        """A new log, from this log's seed, replaying its prefix ``[:pos]``.

        This is the state fork of the sharing design: the prefix is
        exactly the ops the forking mirror already verified as its own,
        and the fork replays them through :meth:`ingest` and
        :meth:`flush` like any other log, so the forked mirror stands
        where its own log would.  Paid only on divergence (deviant
        runs) or when a straggler mirror needs state behind the
        frontier.
        """
        self.stats.forks += 1
        fork = SharedKernel.seeded(
            self.owner, self.seed_neighbors, self.seed_cost, self.seed_known_costs
        )
        for op in self.ops[:pos]:
            if op[0] == "apply":
                fork.ingest(fork.frontier, op[1], op[2], op[3])
            elif op[0] == "flush":
                fork.flush(fork.frontier)
            else:
                fork.anchor(fork.frontier, op[1], op[2], op[3])
        return fork


class MirrorKernelPool:
    """Per-host registry of :class:`SharedKernel` keyed by principal.

    One pool serves one simulated host (one process running the whole
    network); :meth:`new_epoch` must be called before every phase-2
    (re)start so restarted mirrors never attach to a consumed log.  A
    checked churn epoch restarts nothing: its logs live on and take
    the epoch as one re-anchor op (:meth:`SharedKernel.anchor`).
    """

    def __init__(self) -> None:
        self._kernels: Dict[NodeId, SharedKernel] = {}
        self.epoch = 0
        #: Seed-mismatch refusals across all epochs (sharing declined).
        self.stats = KernelStats()

    def new_epoch(self) -> None:
        """Drop every shared kernel (a phase-2 restart begins)."""
        self._collect_stats()
        self._kernels = {}
        self.epoch += 1

    def acquire(
        self,
        principal: NodeId,
        neighbors: Sequence[NodeId],
        declared_cost: Cost,
        known_costs: Mapping[NodeId, Cost],
    ) -> Optional[SharedKernel]:
        """The shared kernel for a principal, or None if seeds differ.

        The first client to ask (a checker, or the principal through
        :meth:`lead`) creates the kernel from its own seed; later ones
        share only if their independently derived seed is identical
        (the sharing invariant) — otherwise they get None and start a
        log of their own (:meth:`SharedKernel.seeded`).
        """
        entry = self._kernels.get(principal)
        if entry is None:
            entry = SharedKernel.seeded(
                principal, neighbors, declared_cost, known_costs
            )
            self._kernels[principal] = entry
            return entry
        if not entry.matches_seed(neighbors, declared_cost, known_costs):
            self.stats.seed_mismatches += 1
            return None
        return entry

    def shared_log(self, principal: NodeId) -> Optional[SharedKernel]:
        """The log this pool keeps for ``principal``, if any."""
        return self._kernels.get(principal)

    def lead(
        self,
        principal: NodeId,
        neighbors: Sequence[NodeId],
        declared_cost: Cost,
        known_costs: Mapping[NodeId, Cost],
    ) -> Optional[SharedKernel]:
        """The principal's pooled log, now led by the principal itself.

        Acquires with the principal's own seed (:meth:`acquire`, which
        counts a refusal).  ``None`` when the pool refuses the seed or
        the log has already advanced or is led (a stale log kept by a
        missed :meth:`new_epoch`); the principal then writes a log of
        its own.
        """
        entry = self.acquire(principal, neighbors, declared_cost, known_costs)
        if entry is None or entry.led or entry.ops:
            return None
        entry.led = True
        return entry

    @staticmethod
    def _merge_entry(total: KernelStats, entry: SharedKernel) -> None:
        """One log's counters; a led kernel's work is its principal's
        (``node.comp.stats``), so it is not counted here."""
        total.merge(entry.stats)
        if not entry.led:
            total.merge(entry.kernel.stats)

    def _collect_stats(self) -> None:
        for entry in self._kernels.values():
            self._merge_entry(self.stats, entry)

    def collected_stats(self) -> KernelStats:
        """Aggregated counters over all epochs (live kernels included).

        Counts checking's own work: every log's hits and forks, and the
        kernels of logs no principal leads.
        """
        total = KernelStats()
        total.merge(self.stats)
        for entry in self._kernels.values():
            self._merge_entry(total, entry)
        return total


# ----------------------------------------------------------------------
# pure-kernel convergence oracle
# ----------------------------------------------------------------------


def kernel_fixed_point(
    graph, max_rounds: int = 100_000
) -> Dict[NodeId, "ReplayKernel"]:
    """Run the FPSS relaxation to its fixed point with no simulator.

    A test helper, not a correctness oracle: it iterates the kernel
    under test, so it cannot catch a bug inside the kernel.  Programs
    check converged tables against
    :func:`~repro.routing.engine.fixed_point_digests` instead.

    One :class:`ReplayKernel` per vertex, iterated in synchronous
    rounds (every kernel ingests all deltas addressed to it, relaxes
    once, and emits its changed-key deltas) until no kernel changes.
    Because the fixed point of the monotone relaxation is unique and
    the tie-breaks deterministic, the resulting tables — and hence
    digests — are identical to any asynchronous protocol execution on
    the same graph, so tests use it to check the distribution layer
    (batching, delta wire format, delivery order) against the bare
    kernel, and the engine oracle against the kernel.

    Raises
    ------
    ConvergenceError
        If ``max_rounds`` synchronous rounds do not reach quiescence
        (impossible for a static graph unless the kernel is buggy).
    """
    order = sorted(graph.nodes, key=repr)
    kernels = {
        node: ReplayKernel(node, graph.neighbors(node), graph.cost(node))
        for node in order
    }
    for kernel in kernels.values():
        for node in order:
            kernel.note_cost_declaration(node, graph.cost(node))
    # receiver -> [(kind, src, rows)] queued for the next round.
    mailbox: Dict[NodeId, List[Tuple[str, NodeId, Tuple]]] = {n: [] for n in order}

    def post(src: NodeId, kind: str, rows: Tuple) -> None:
        if rows:
            for neighbor in kernels[src].neighbors:
                mailbox[neighbor].append((kind, src, rows))

    for node in order:
        kernel = kernels[node]
        kernel.reset_phase2()
        route_delta, price_delta = kernel.settle()
        post(node, KIND_RT_UPDATE, route_delta or ())
        post(node, KIND_PRICE_UPDATE, price_delta or ())

    for _round in range(max_rounds):
        if not any(mailbox.values()):
            return kernels
        inbox, mailbox = mailbox, {n: [] for n in order}
        for node in order:
            kernel = kernels[node]
            for kind, src, rows in inbox[node]:
                if kind == KIND_RT_UPDATE:
                    kernel.apply_route_delta(src, rows)
                else:
                    kernel.apply_avoid_delta(src, rows)
            route_delta, price_delta = kernel.settle()
            if route_delta is not None:
                post(node, KIND_RT_UPDATE, route_delta)
            if price_delta is not None:
                post(node, KIND_PRICE_UPDATE, price_delta)
    raise ConvergenceError(
        f"kernel fixed point not reached within {max_rounds} rounds"
    )
