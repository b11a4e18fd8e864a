"""The memoizing routing engine: single-source LCP trees at scale.

The seed repository's oracle enumerated whole paths in its priority
queue, which is exponential in the worst case and quadratic in path
length even on friendly graphs; it survives only as the test reference
in ``tests/routing/test_engine.py``.  This module replaces it with a
proper node-weighted Dijkstra that keeps ``(cost, hops)`` keys and
predecessor pointers in the heap, resolves lexicographic ties once per
settled node, and computes a *whole single-source tree* per run —
including the ``LCP_{-k}`` avoidance trees.

Tie-breaking is bit-identical to the seed oracle (and to
:meth:`repro.routing.tables.RouteEntry.sort_key`): among equal-cost
paths prefer fewer hops, then the lexicographically smallest
``repr``-keyed node sequence.  The per-node ``repr`` keys are computed
once per graph instead of once per heap operation.

:class:`RoutingEngine` memoizes every tree it computes, keyed by
``(source, avoiding)``.  Graphs are immutable, so a module-level weak
cache (:func:`engine_for`) shares one engine per live graph across the
functional APIs in :mod:`repro.routing.lcp` and
:mod:`repro.routing.vcg_payments`.

The VCG payment rule needs ``LCP_{-k}(i, j)`` for every transit ``k``
of every route, and one decremental repair sweep per source is its
one source: it re-relaxes only the destinations routed through ``k``,
ranked and tie-broken as the trees are.
:meth:`RoutingEngine.source_detour_labels` reads the sweep's costs,
left-to-right sums from the source, bit-equal to the seed formula, so
every payment is computed the same way and in the same order;
:meth:`RoutingEngine.source_detour_paths` rebuilds its paths from one
predecessor per settled node, equal to the ``avoiding`` trees' paths.

:func:`fixed_point_digests` turns one tree and one sweep per source
into the protocol's own currency: the DATA1/DATA2/DATA3* digests every
node must hold at the FPSS fixed point, identity tags included.  It
shares no code with the replay kernel, so it is an independent oracle
for the kernel's relaxation, pricing and tag semantics, not only for
the distribution layer around it.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import GraphError, RoutingError
from .graph import ASGraph, Cost, NodeId, PathCost
from .tables import PricingTable, RouteEntry, RoutingTable, TransitCostTable

_INF = float("inf")


def _lex_prefers(challenger: Tuple[str, ...], incumbent: Tuple[str, ...]) -> bool:
    """Whether a tying detour path beats the current one: the smaller
    ``repr``-keyed node sequence wins, as in :meth:`RoutingEngine._sssp`."""
    return challenger < incumbent


class RoutingEngine:
    """Cached lowest-cost-path trees over one immutable :class:`ASGraph`.

    One engine instance indexes the graph once (node order, costs,
    adjacency, per-node ``repr`` tie-break keys) and then serves LCP
    queries from memoized single-source trees.  ``avoiding`` trees —
    the ``-k`` restriction of the VCG payment rule — are ordinary trees
    on the graph minus one node and are cached the same way.
    """

    def __init__(self, graph: ASGraph) -> None:
        # Only extracted arrays are kept — a strong reference to the
        # graph here would pin every WeakKeyDictionary entry in
        # engine_for's cache forever (value referencing key).
        ids = graph.nodes
        self._ids: Tuple[NodeId, ...] = ids
        self._index: Dict[NodeId, int] = {node: i for i, node in enumerate(ids)}
        self._costs: List[Cost] = [graph.cost(node) for node in ids]
        #: Per-node repr computed once; the lex tie-break compares these.
        self._rkeys: List[str] = [repr(node) for node in ids]
        index = self._index
        self._adj: List[Tuple[int, ...]] = [
            tuple(index[m] for m in graph.neighbors(node)) for node in ids
        ]
        #: (source index, avoided index or -1) -> destination -> PathCost.
        self._trees: Dict[Tuple[int, int], Mapping[NodeId, PathCost]] = {}
        #: (source, avoided, frozenset of target indices) -> partial tree.
        self._partials: Dict[
            Tuple[int, int, frozenset], Mapping[NodeId, PathCost]
        ] = {}
        #: Dijkstra runs actually performed (cache misses).
        self.runs = 0
        #: Early-exit (partial) runs among ``runs``.
        self.partial_runs = 0
        #: Nodes settled across all runs (early exit keeps this low).
        self.settled = 0
        #: Tree queries served from cache.
        self.hits = 0
        #: The last source's repair sweep, ``(source, labels,
        #: predecessors)``: one entry, so a source-major loop of per-pair
        #: payment queries sweeps once per source without pinning every
        #: source's labels.
        self._last_sweep: Optional[
            Tuple[
                NodeId,
                Dict[NodeId, Dict[NodeId, Cost]],
                Optional[Dict[int, Dict[int, int]]],
            ]
        ] = None
        #: Repair sweeps actually run (one-entry memo misses).
        self.sweeps = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def tree(
        self, source: NodeId, avoiding: Optional[NodeId] = None
    ) -> Mapping[NodeId, PathCost]:
        """The LCP tree from ``source`` to every reachable destination.

        With ``avoiding`` set, paths through that node are forbidden
        (``LCP_{-k}``); destinations it disconnects are simply absent.
        The mapping is cached and read-only — copy before mutating.
        """
        src = self._index.get(source)
        if src is None:
            raise GraphError(f"unknown source {source!r}")
        if avoiding is None:
            avoid = -1
        else:
            maybe = self._index.get(avoiding)
            if maybe is None:
                raise GraphError(f"unknown node {avoiding!r}")
            if maybe == src:
                raise RoutingError(
                    f"cannot avoid the tree source {avoiding!r}"
                )
            avoid = maybe
        key = (src, avoid)
        cached = self._trees.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        tree = MappingProxyType(self._sssp(src, avoid))
        self._trees[key] = tree
        return tree

    # No library caller; the benchmark reads ``partial_runs`` and its
    # tracer's wrap list names this method.
    def partial_tree(
        self,
        source: NodeId,
        targets: Iterable[NodeId],
        avoiding: Optional[NodeId] = None,
    ) -> Mapping[NodeId, PathCost]:
        """The LCP entries for just ``targets``, via early-exit Dijkstra.

        The run stops relaxing as soon as every requested target is
        settled, so on large graphs a handful of destinations costs a
        fraction of a full tree.  Entries are bit-identical to the
        corresponding :meth:`tree` entries (settled labels never change
        after settling), which the property tests assert.  Targets the
        restriction disconnects are absent, exactly as in :meth:`tree`.

        A full cached tree is reused when available; otherwise the
        partial result is cached under its own target set and promoted
        to nothing — full-tree queries stay full-tree computations.
        """
        src = self._index.get(source)
        if src is None:
            raise GraphError(f"unknown source {source!r}")
        avoid = -1
        if avoiding is not None:
            maybe = self._index.get(avoiding)
            if maybe is None:
                raise GraphError(f"unknown node {avoiding!r}")
            if maybe == src:
                raise RoutingError(
                    f"cannot avoid the tree source {avoiding!r}"
                )
            avoid = maybe
        wanted = []
        for target in targets:
            index = self._index.get(target)
            if index is None:
                raise GraphError(f"unknown destination {target!r}")
            if index != src and index != avoid:
                wanted.append(index)
        until = frozenset(wanted)

        full = self._trees.get((src, avoid))
        if full is not None:
            self.hits += 1
            ids = self._ids
            return MappingProxyType(
                {
                    ids[i]: full[ids[i]]
                    for i in sorted(until)
                    if ids[i] in full
                }
            )
        key = (src, avoid, until)
        cached = self._partials.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        settled = self._sssp(src, avoid, until=until)
        ids = self._ids
        partial = MappingProxyType(
            {
                ids[i]: settled[ids[i]]
                for i in sorted(until)
                if ids[i] in settled
            }
        )
        self._partials[key] = partial
        return partial

    def path(
        self,
        source: NodeId,
        destination: NodeId,
        avoiding: Optional[NodeId] = None,
    ) -> PathCost:
        """The LCP for one pair, with the seed oracle's exact contract.

        Raises :class:`GraphError` for unknown nodes and
        :class:`RoutingError` when ``avoiding`` is an endpoint or the
        pair is disconnected.
        """
        if source not in self._index:
            raise GraphError(f"unknown source {source!r}")
        if destination not in self._index:
            raise GraphError(f"unknown destination {destination!r}")
        if avoiding is not None and avoiding in (source, destination):
            raise RoutingError(
                f"cannot avoid endpoint {avoiding!r} of pair "
                f"({source!r}, {destination!r})"
            )
        if source == destination:
            return PathCost(path=(source,), cost=0.0)
        found = self.tree(source, avoiding).get(destination)
        if found is None:
            detail = f" avoiding {avoiding!r}" if avoiding is not None else ""
            raise RoutingError(
                f"no path from {source!r} to {destination!r}{detail}"
            )
        return found

    def cost(
        self,
        source: NodeId,
        destination: NodeId,
        avoiding: Optional[NodeId] = None,
    ) -> Cost:
        """Just the LCP cost for one pair; same contract as :meth:`path`."""
        return self.path(source, destination, avoiding).cost

    # No library caller; the benchmark tracer's wrap list still names it.
    def detour_costs(
        self,
        source: NodeId,
        avoiding: NodeId,
        destinations: Iterable[NodeId],
    ) -> Dict[NodeId, Cost]:
        """``LCP_{-k}`` costs from one source to many destinations."""
        return {d: self.path(source, d, avoiding).cost for d in destinations}

    def source_detour_labels(
        self, source: NodeId
    ) -> Dict[NodeId, Dict[NodeId, Cost]]:
        """Every VCG detour cost from one source, in one repair sweep.

        Returns ``{k: {d: cost(source, d, avoiding=k)}}`` for each
        transit node ``k`` of the source's LCP tree, covering exactly
        the destinations routed through ``k``.  Instead of one Dijkstra
        per transit node, each ``LCP_{-k}`` is obtained by *decremental
        repair* of the base tree: a node whose tree path avoids ``k``
        keeps its path in the ``-k`` subgraph (its witness path
        survives, and no path can beat it once paths are removed), so
        only the below-``k`` group is re-relaxed, seeded from its
        frozen boundary.  Group members are ranked as :meth:`_sssp`
        ranks them — cost, then hop count, then the ``repr``-lex order
        of the whole path — so each settled member's one predecessor
        (:meth:`source_detour_paths`) gives the same path as
        ``tree(source, avoiding=k)``.  Labels are bit-identical to a
        from-scratch run: every label is the minimum over the same set
        of left-to-right path-cost sums.

        A destination that ``k`` cuts off from the source (possible
        only when the graph is not biconnected) is absent from
        ``k``'s mapping; the caller decides whether that pair matters.

        The last source's sweep is memoized (one entry, dropped by
        :meth:`clear_cache`) and handed to every caller asking for that
        source, so its labels must not be mutated; :attr:`sweeps`
        counts the sweeps actually run.  Labels and predecessors stay
        plain dicts of node ids, ints and floats, which the cyclic
        garbage collector does not track (a read-only proxy per inner
        dict would be tracked, and cost settle-256's set-up one more
        full collection).
        """
        return self._sweep(source, False)[1]

    def source_detour_paths(
        self, source: NodeId
    ) -> Dict[NodeId, Dict[NodeId, Tuple[NodeId, ...]]]:
        """The ``LCP_{-k}`` paths behind :meth:`source_detour_labels`.

        Returns ``{k: {d: path}}`` over the same ``(k, d)`` pairs, each
        path equal to ``tree(source, avoiding=k)[d].path``.  The paths
        are rebuilt on each call from the sweep's predecessor chains (a
        group member's chain ends at a frozen node, whose path is its
        base-tree path).  Only a sweep run for this method keeps its
        predecessors, so cost-only callers never pay for them; a
        memoized cost-only sweep of the same source is run again.
        """
        _, _, preds = self._sweep(source, True)
        base = self.tree(source)
        ids = self._ids
        root = (source,)
        out: Dict[NodeId, Dict[NodeId, Tuple[NodeId, ...]]] = {}
        for k, group in preds.items():
            built: Dict[int, Tuple[NodeId, ...]] = {}
            for member in group:
                chain = []
                node = member
                while node in group and node not in built:
                    chain.append(node)
                    node = group[node]
                if node in built:
                    path = built[node]
                else:
                    found = base.get(ids[node])
                    path = root if found is None else found.path
                for node in reversed(chain):
                    path = path + (ids[node],)
                    built[node] = path
            out[ids[k]] = {ids[member]: built[member] for member in group}
        return out

    def _sweep(
        self, source: NodeId, keep_preds: bool
    ) -> Tuple[
        NodeId,
        Dict[NodeId, Dict[NodeId, Cost]],
        Optional[Dict[int, Dict[int, int]]],
    ]:
        """The source's repair sweep: ``(source, labels, predecessors)``.

        ``labels`` is :meth:`source_detour_labels`' result.  With
        ``keep_preds``, ``predecessors`` maps each transit index to
        ``{member index: predecessor index}`` over the members it does
        not cut off; otherwise it is ``None``.
        """
        last = self._last_sweep
        if (
            last is not None
            and last[0] == source
            and (last[2] is not None or not keep_preds)
        ):
            return last
        base = self.tree(source)
        index = self._index
        ids = self._ids
        costs = self._costs
        adj = self._adj
        src = index[source]
        n = len(ids)
        base_label: List[Cost] = [_INF] * n
        base_label[src] = 0.0
        # Node counts of the base paths (the source's own path is 1).
        base_plen = [0] * n
        base_plen[src] = 1
        groups: Dict[int, List[int]] = {}
        for destination, entry in base.items():
            d = index[destination]
            path = entry.path
            base_label[d] = entry.cost
            base_plen[d] = len(path)
            for transit in path[1:-1]:
                groups.setdefault(index[transit], []).append(d)
        push = heapq.heappush
        pop = heapq.heappop
        # Per-``k`` scratch state is stamped with ``k`` instead of
        # reallocated: a slot belongs to the current group only when
        # its stamp matches (``k`` values are distinct node indices).
        member_of = [-1] * n
        dist: List[Cost] = [0.0] * n
        plen = [0] * n
        pred = [-1] * n
        dist_stamp = [-1] * n
        settled_val: List[Cost] = [0.0] * n
        settled_stamp = [-1] * n
        out: Dict[NodeId, Dict[NodeId, Cost]] = {}
        preds: Optional[Dict[int, Dict[int, int]]] = {} if keep_preds else None
        rkeys = self._rkeys

        def lex_path(node: int, k: int) -> Tuple[str, ...]:
            # The repr keys of ``node``'s current path in the ``-k``
            # sweep: its member chain, then a frozen node's base path.
            tail = []
            while member_of[node] == k:
                tail.append(rkeys[node])
                node = pred[node]
            if node == src:
                head: Tuple[str, ...] = (rkeys[src],)
            else:
                head = tuple(
                    rkeys[index[hop]] for hop in base[ids[node]].path
                )
            return head + tuple(reversed(tail))

        for k, members in groups.items():
            for u in members:
                member_of[u] = k
            heap: List[Tuple[Cost, int, int]] = []
            # Boundary seeds: the best single step from any frozen
            # neighbour into each group member.
            for u in members:
                best = _INF
                best_len = 0
                best_m = -1
                for m in adj[u]:
                    if m == k or member_of[m] == k:
                        continue
                    cand = 0.0 if m == src else base_label[m] + costs[m]
                    if cand > best:
                        continue
                    length = base_plen[m] + 1
                    if cand < best or length < best_len:
                        best = cand
                        best_len = length
                        best_m = m
                    elif length == best_len and _lex_prefers(
                        lex_path(m, k), lex_path(best_m, k)
                    ):
                        best_m = m
                if best < _INF:
                    dist[u] = best
                    plen[u] = best_len
                    pred[u] = best_m
                    dist_stamp[u] = k
                    heap.append((best, best_len, u))
            heapq.heapify(heap)
            while heap:
                label, length, u = pop(heap)
                if settled_stamp[u] == k:
                    continue
                settled_stamp[u] = k
                settled_val[u] = label
                through = label + costs[u]
                longer = length + 1
                for v in adj[u]:
                    if member_of[v] != k or settled_stamp[v] == k:
                        continue
                    if (
                        dist_stamp[v] != k
                        or through < dist[v]
                        or (through == dist[v] and longer < plen[v])
                    ):
                        dist[v] = through
                        plen[v] = longer
                        pred[v] = u
                        dist_stamp[v] = k
                        push(heap, (through, longer, v))
                    elif (
                        through == dist[v]
                        and longer == plen[v]
                        and _lex_prefers(lex_path(u, k), lex_path(pred[v], k))
                    ):
                        pred[v] = u
            out[ids[k]] = {
                ids[u]: settled_val[u]
                for u in members
                if settled_stamp[u] == k
            }
            if preds is not None:
                preds[k] = {
                    u: pred[u] for u in members if settled_stamp[u] == k
                }
        self.sweeps += 1
        memo = (source, out, preds)
        self._last_sweep = memo
        return memo

    # ------------------------------------------------------------------
    # cache control
    # ------------------------------------------------------------------

    def clear_cache(self) -> None:
        """Drop every memoized tree and detour sweep (the graph index
        is kept)."""
        self._trees.clear()
        self._partials.clear()
        self._last_sweep = None

    @property
    def cached_trees(self) -> int:
        """How many single-source trees are currently memoized."""
        return len(self._trees)

    # ------------------------------------------------------------------
    # the Dijkstra core
    # ------------------------------------------------------------------

    def _sssp(
        self, src: int, avoid: int, until: Optional[frozenset] = None
    ) -> Dict[NodeId, PathCost]:
        """One node-weighted Dijkstra run from ``src``.

        The heap holds ``(cost, path_len, seq)`` keys only; predecessor
        pointers replace full paths.  Lexicographic ties are resolved
        once per settled node by comparing candidate predecessors'
        repr-key sequences, which reproduces the seed oracle's
        ``(cost, len(path), tuple(repr(n) for n in path))`` preference
        exactly: a settled node's interior prefixes always settle
        first, so every tying predecessor is available for comparison.

        With ``until`` (a set of node indices) the run stops once every
        listed index is settled.  Settling order is identical to the
        full run up to that point, so the labels of settled nodes —
        including their tie-breaks — match the full tree exactly.
        """
        self.runs += 1
        remaining = None
        if until is not None:
            self.partial_runs += 1
            remaining = set(until)
            remaining.discard(src)
            remaining.discard(avoid)
            if not remaining:
                return {}
        ids = self._ids
        costs = self._costs
        adj = self._adj
        rkeys = self._rkeys
        n = len(ids)

        dist: List[Cost] = [_INF] * n
        # Mirrors the seed's len(path) component (nodes, not edges).
        plen: List[int] = [0] * n
        settled: List[bool] = [False] * n
        paths: List[Optional[Tuple[NodeId, ...]]] = [None] * n
        lexpaths: List[Optional[Tuple[str, ...]]] = [None] * n

        dist[src] = 0.0
        plen[src] = 1
        heap: List[Tuple[Cost, int, int, int]] = [(0.0, 1, 0, src)]
        seq = 1
        push = heapq.heappush
        pop = heapq.heappop
        result: Dict[NodeId, PathCost] = {}

        while heap:
            cost, length, _, node = pop(heap)
            if settled[node]:
                continue
            settled[node] = True
            self.settled += 1
            if node == src:
                paths[src] = (ids[src],)
                lexpaths[src] = (rkeys[src],)
            else:
                # Choose the predecessor: every settled neighbour whose
                # own label extends to exactly this (cost, length) label
                # ties; the lexicographically smallest extension wins.
                best_u = -1
                best_lex: Optional[Tuple[str, ...]] = None
                rk = rkeys[node]
                for u in adj[node]:
                    if not settled[u]:
                        continue
                    step = 0.0 if u == src else costs[u]
                    if dist[u] + step == cost and plen[u] + 1 == length:
                        if best_u < 0:
                            best_u = u
                        else:
                            if best_lex is None:
                                best_lex = lexpaths[best_u] + (rk,)
                            challenger = lexpaths[u] + (rk,)
                            if challenger < best_lex:
                                best_u = u
                                best_lex = challenger
                paths[node] = paths[best_u] + (ids[node],)
                lexpaths[node] = lexpaths[best_u] + (rk,)
                result[ids[node]] = PathCost(path=paths[node], cost=cost)
            if remaining is not None:
                remaining.discard(node)
                if not remaining:
                    break
            extension = 0.0 if node == src else costs[node]
            base = cost + extension
            next_length = length + 1
            for v in adj[node]:
                if v == avoid or settled[v]:
                    continue
                label = dist[v]
                if base < label or (base == label and next_length < plen[v]):
                    dist[v] = base
                    plen[v] = next_length
                    push(heap, (base, next_length, seq, v))
                    seq += 1
        return result


#: One shared engine per live graph; graphs are immutable, so trees
#: computed for any caller stay valid for every other caller.
_ENGINES: "weakref.WeakKeyDictionary[ASGraph, RoutingEngine]" = (
    weakref.WeakKeyDictionary()
)


def engine_for(graph: ASGraph) -> RoutingEngine:
    """The shared :class:`RoutingEngine` for a graph (weakly cached)."""
    engine = _ENGINES.get(graph)
    if engine is None:
        engine = RoutingEngine(graph)
        _ENGINES[graph] = engine
    return engine


@dataclass(frozen=True)
class TableDigests:
    """The digests one node's tables must have at the FPSS fixed point.

    Field names match the kernel's digest methods, so a converged
    computation compares field by field.
    """

    cost_digest: str
    routing_digest: str
    pricing_digest: str


def fixed_point_digests(graph: ASGraph) -> Dict[NodeId, TableDigests]:
    """Every node's DATA1/DATA2/DATA3* digests, from one LCP tree and
    one repair sweep per source.

    The centralized counterpart of a converged FPSS network, bit-exact
    with the distributed relaxation (identity tags included):

    * **DATA1** holds every graph node's declared cost.
    * **DATA2** holds ``P(i, j)`` from ``tree(i)``.  Its cost is
      re-summed in the protocol's order: a neighbour offering a route
      adds its own cost in front of the offered total, so the sum is a
      right fold ``c_a1 + (c_a2 + (... + (c_am + 0.0)))`` over the
      transit nodes, where Dijkstra sums left to right.  Float addition
      is not associative, so only the right fold matches bit for bit.
      The path itself needs no re-derivation: the two orders can rank
      two paths differently only when their exact sums agree to within
      rounding, and integer-valued costs (where ties are common) sum
      exactly in either order.
    * **DATA3*** holds one cell per transit ``k`` of ``P(i, j)``: with
      ``Q`` the ``LCP_{-k}`` from ``i`` to ``j`` (read from
      :meth:`RoutingEngine.source_detour_paths`, the path
      ``tree(i, avoiding=k)`` would give), the price is
      ``c_k + cost(Q) - d(i, j)`` (same fold, same operation order as
      the protocol) and the tag is ``{Q[1]}``.  Each neighbour offers a
      path that starts with itself, so the argmin supplier of an
      avoidance entry is unique: its first hop.  A transit that cuts
      ``i`` off from ``j`` gets no cell.

    Each call uses a private :class:`RoutingEngine`, released per
    source, so no tree outlives the call (:func:`engine_for` would pin
    every tree for as long as the graph lives).  It runs ``n`` Dijkstras
    and ``n`` sweeps and no ``avoiding`` tree: on perfbench's 64-node
    graphs that is about 0.12-0.15 s of CPU where one ``-k`` tree per
    cell took 0.30-0.39 s, and 0.75-0.85 s against 3.5-3.7 s at 128
    nodes (one core of a 2-vCPU VM, seeds 1 and 7).
    """
    engine = RoutingEngine(graph)
    costs = graph.costs
    declared = TransitCostTable()
    for node in graph.nodes:
        declared.declare(node, costs[node])
    cost_digest = declared.stable_digest()

    def folded(path: Tuple[NodeId, ...]) -> Cost:
        total = 0.0
        for transit in reversed(path[1:-1]):
            total = costs[transit] + total
        return total

    digests: Dict[NodeId, TableDigests] = {}
    for source in graph.nodes:
        routing = RoutingTable(source)
        pricing = PricingTable(source)
        detours = engine.source_detour_paths(source)
        for destination, entry in engine.tree(source).items():
            distance = folded(entry.path)
            routing.update(destination, RouteEntry(cost=distance, path=entry.path))
            for transit in entry.transit_nodes:
                detour = detours[transit].get(destination)
                if detour is None:
                    continue
                price = costs[transit] + folded(detour) - distance
                pricing.set_price(
                    destination, transit, price, frozenset((detour[1],))
                )
        engine.clear_cache()
        digests[source] = TableDigests(
            cost_digest=cost_digest,
            routing_digest=routing.stable_digest(),
            pricing_digest=pricing.stable_digest(),
        )
    return digests
