"""The memoizing routing engine: single-source LCP trees at scale.

The seed oracle in :mod:`repro.routing.lcp` enumerated whole paths in
its priority queue, which is exponential in the worst case and
quadratic in path length even on friendly graphs.  This module replaces
it with a proper node-weighted Dijkstra that keeps ``(cost, hops)``
keys and predecessor pointers in the heap, resolves lexicographic ties
once per settled node, and computes a *whole single-source tree* per
run — including the ``LCP_{-k}`` avoidance trees the VCG payment
formula needs.

Tie-breaking is bit-identical to the seed oracle (and to
:meth:`repro.routing.tables.RouteEntry.sort_key`): among equal-cost
paths prefer fewer hops, then the lexicographically smallest
``repr``-keyed node sequence.  The per-node ``repr`` keys are computed
once per graph instead of once per heap operation.

:class:`RoutingEngine` memoizes every tree it computes, keyed by
``(source, avoiding)``.  All-pairs payments therefore cost one Dijkstra
run per source plus one per *distinct transit node* of that source's
tree, instead of one exponential search per (pair, transit) triple.
Graphs are immutable, so a module-level weak cache
(:func:`engine_for`) shares one engine per live graph across the
functional APIs in :mod:`repro.routing.lcp` and
:mod:`repro.routing.vcg_payments`.

Cost-only queries are cheaper still.  Node-weighted path costs are
direction-symmetric — reversing a path keeps its interior (transit)
set, so ``cost(i, j, avoiding=k) == cost(j, i, avoiding=k)`` — which
lets :meth:`RoutingEngine.cost` and the batched
:meth:`RoutingEngine.detour_costs` serve a query from a tree rooted at
*either* endpoint.  When no tree covers the pair, a cost-only Dijkstra
(no path reconstruction, no lexicographic tie-breaks: the minimum cost
is the same for every tying path) fills a separate, lighter cache.

:func:`fixed_point_digests` turns the trees into the protocol's own
currency: the DATA1/DATA2/DATA3* digests every node must hold at the
FPSS fixed point, identity tags included.  It shares no code with the
replay kernel, so it is an independent oracle for the kernel's
relaxation, pricing and tag semantics, not only for the distribution
layer around it.
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

#: Cache-miss sentinel for cost lookups, distinct from ``None`` (which
#: is an authoritative "disconnected" answer from a complete tree).
_MISS = object()


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
        #: (source index, avoided index or -1) -> (labels, complete):
        #: cost-only labels by node index — no paths, so far cheaper
        #: than ``_trees``.  ``complete`` False marks an early-exit
        #: run, where an absent index means "not settled", not
        #: "disconnected".
        self._cost_trees: Dict[
            Tuple[int, int], Tuple[Dict[int, Cost], bool]
        ] = {}
        #: Dijkstra runs actually performed (cache misses).
        self.runs = 0
        #: Early-exit (partial) runs among ``runs``.
        self.partial_runs = 0
        #: Cost-only runs (tracked separately from ``runs``).
        self.cost_runs = 0
        #: Nodes settled across all runs (early exit keeps this low).
        self.settled = 0
        #: Tree queries served from cache.
        self.hits = 0
        #: Cost queries served from a tree rooted at the other endpoint.
        self.symmetry_hits = 0

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
        """Just the LCP cost for one pair (cost-only, symmetry-aware).

        A path's cost is the sum of its interior node costs, and
        reversing a path keeps its interior set, so
        ``cost(i, j, -k) == cost(j, i, -k)``: a cached tree rooted at
        either endpoint answers the query.  When neither endpoint has
        one, a cost-only Dijkstra runs from ``source`` — no path
        reconstruction and no lexicographic tie-breaks, because every
        tying path has the same (minimum) cost.  Validation matches
        :meth:`path` exactly.
        """
        src = self._index.get(source)
        if src is None:
            raise GraphError(f"unknown source {source!r}")
        dst = self._index.get(destination)
        if dst is None:
            raise GraphError(f"unknown destination {destination!r}")
        if avoiding is not None and avoiding in (source, destination):
            raise RoutingError(
                f"cannot avoid endpoint {avoiding!r} of pair "
                f"({source!r}, {destination!r})"
            )
        if src == dst:
            return 0.0
        avoid = -1
        if avoiding is not None:
            maybe = self._index.get(avoiding)
            if maybe is None:
                raise GraphError(f"unknown node {avoiding!r}")
            avoid = maybe
        found = self._pair_cost(src, dst, avoid)
        if found is None:
            detail = f" avoiding {avoiding!r}" if avoiding is not None else ""
            raise RoutingError(
                f"no path from {source!r} to {destination!r}{detail}"
            )
        return found

    def detour_costs(
        self,
        source: NodeId,
        avoiding: NodeId,
        destinations: Iterable[NodeId],
    ) -> Dict[NodeId, Cost]:
        """Batched ``LCP_{-k}`` costs: one source, many destinations.

        The batch shape of the VCG payment rule — every destination
        routed through transit node ``avoiding`` needs the detour cost
        around it.  Each destination is served from any cached tree
        rooted at either endpoint (cost symmetry); the remainder, if
        any, is covered by a *single* cost-only Dijkstra from
        ``source``.  Raises :class:`RoutingError` when a destination is
        disconnected by the restriction or coincides with an endpoint.
        """
        src = self._index.get(source)
        if src is None:
            raise GraphError(f"unknown source {source!r}")
        avoid = self._index.get(avoiding)
        if avoid is None:
            raise GraphError(f"unknown node {avoiding!r}")
        result: Dict[NodeId, Cost] = {}
        missing: List[Tuple[NodeId, int]] = []
        full = self._trees.get((src, avoid))
        cached = None if full is not None else self._cost_trees.get(
            (src, avoid)
        )
        for destination in destinations:
            dst = self._index.get(destination)
            if dst is None:
                raise GraphError(f"unknown destination {destination!r}")
            if destination in (source, avoiding):
                raise RoutingError(
                    f"cannot avoid endpoint {avoiding!r} of pair "
                    f"({source!r}, {destination!r})"
                )
            found: object
            if full is not None:
                entry = full.get(destination)
                found = None if entry is None else entry.cost
                self.hits += 1
            elif cached is not None:
                labels, labels_complete = cached
                found = labels.get(dst)
                if found is None and not labels_complete:
                    found = _MISS
                else:
                    self.hits += 1
            else:
                found = self._reverse_cost(src, dst, avoid)
            if found is _MISS:
                missing.append((destination, dst))
                continue
            if found is None:
                raise RoutingError(
                    f"no path from {source!r} to {destination!r} "
                    f"avoiding {avoiding!r}"
                )
            result[destination] = found
        if missing:
            fresh, complete = self._sssp_costs(
                src, avoid, until=[dst for _, dst in missing]
            )
            if cached is not None:
                stale, stale_complete = cached
                merged = dict(stale)
                merged.update(fresh)
                fresh, complete = merged, complete or stale_complete
            self._cost_trees[(src, avoid)] = (fresh, complete)
            for destination, dst in missing:
                found = fresh.get(dst)
                if found is None:
                    raise RoutingError(
                        f"no path from {source!r} to {destination!r} "
                        f"avoiding {avoiding!r}"
                    )
                result[destination] = found
        return result

    def source_detour_labels(
        self, source: NodeId
    ) -> Dict[NodeId, Dict[NodeId, Cost]]:
        """Every VCG detour cost from one source, in one repair sweep.

        Returns ``{k: {d: cost(source, d, avoiding=k)}}`` for each
        transit node ``k`` of the source's LCP tree, covering exactly
        the destinations routed through ``k``.  Instead of one Dijkstra
        per transit node, each ``LCP_{-k}`` is obtained by *decremental
        repair* of the base labels: a node whose tree path avoids ``k``
        keeps its label in the ``-k`` subgraph (its witness path
        survives, and labels cannot drop when paths are removed), so
        only the below-``k`` group is re-relaxed, seeded from its
        frozen boundary.  Labels are bit-identical to a from-scratch
        run — every label is the minimum over the same set of
        left-to-right path-cost sums.

        Raises :class:`RoutingError` naming the first destination a
        restriction disconnects (impossible on biconnected graphs).
        """
        base = self.tree(source)
        index = self._index
        ids = self._ids
        costs = self._costs
        adj = self._adj
        src = index[source]
        n = len(ids)
        base_label: List[Cost] = [_INF] * n
        base_label[src] = 0.0
        groups: Dict[int, List[int]] = {}
        for destination, entry in base.items():
            d = index[destination]
            base_label[d] = entry.cost
            for transit in entry.transit_nodes:
                groups.setdefault(index[transit], []).append(d)
        push = heapq.heappush
        pop = heapq.heappop
        # Per-``k`` scratch state is stamped with ``k`` instead of
        # reallocated: a slot belongs to the current group only when
        # its stamp matches (``k`` values are distinct node indices).
        member_of = [-1] * n
        dist: List[Cost] = [0.0] * n
        dist_stamp = [-1] * n
        settled_val: List[Cost] = [0.0] * n
        settled_stamp = [-1] * n
        out: Dict[NodeId, Dict[NodeId, Cost]] = {}
        for k, members in groups.items():
            for u in members:
                member_of[u] = k
            heap: List[Tuple[Cost, int]] = []
            # Boundary seeds: the cheapest single step from any frozen
            # neighbour into each group member.
            for u in members:
                best = _INF
                for m in adj[u]:
                    if m == k or member_of[m] == k:
                        continue
                    cand = 0.0 if m == src else base_label[m] + costs[m]
                    if cand < best:
                        best = cand
                if best < _INF:
                    dist[u] = best
                    dist_stamp[u] = k
                    heap.append((best, u))
            heapq.heapify(heap)
            while heap:
                label, u = pop(heap)
                if settled_stamp[u] == k:
                    continue
                settled_stamp[u] = k
                settled_val[u] = label
                through = label + costs[u]
                for v in adj[u]:
                    if member_of[v] == k and settled_stamp[v] != k:
                        if dist_stamp[v] != k or through < dist[v]:
                            dist[v] = through
                            dist_stamp[v] = k
                            push(heap, (through, v))
            detours: Dict[NodeId, Cost] = {}
            for u in members:
                if settled_stamp[u] != k:
                    raise RoutingError(
                        f"no path from {source!r} to {ids[u]!r} "
                        f"avoiding {ids[k]!r}"
                    )
                detours[ids[u]] = settled_val[u]
            out[ids[k]] = detours
        return out

    def _pair_cost(self, src: int, dst: int, avoid: int) -> Optional[Cost]:
        """Cost label for one indexed pair; ``None`` when disconnected.

        Lookup order: full tree at either endpoint, cost-only labels at
        either endpoint, then one fresh cost-only run from ``src``.
        """
        full = self._trees.get((src, avoid))
        if full is not None:
            self.hits += 1
            entry = full.get(self._ids[dst])
            return None if entry is None else entry.cost
        cached = self._cost_trees.get((src, avoid))
        if cached is not None:
            labels, complete = cached
            found = labels.get(dst)
            if found is not None or complete:
                self.hits += 1
                return found
        found = self._reverse_cost(src, dst, avoid)
        if found is not _MISS:
            return found
        labels, complete = self._sssp_costs(src, avoid)
        if cached is not None:
            merged = dict(cached[0])
            merged.update(labels)
            labels = merged
        self._cost_trees[(src, avoid)] = (labels, True)
        return labels.get(dst)

    def _reverse_cost(self, src: int, dst: int, avoid: int):
        """Serve ``cost(src -> dst, -avoid)`` from a tree rooted at
        ``dst``, or return the ``_MISS`` sentinel when none is cached.

        ``None`` (as opposed to ``_MISS``) is an authoritative answer:
        the reverse tree is complete and does not reach ``src``, so by
        cost symmetry the forward pair is disconnected too.
        """
        full = self._trees.get((dst, avoid))
        if full is not None:
            self.symmetry_hits += 1
            entry = full.get(self._ids[src])
            return None if entry is None else entry.cost
        cached = self._cost_trees.get((dst, avoid))
        if cached is not None:
            labels, complete = cached
            found = labels.get(src)
            if found is not None or complete:
                self.symmetry_hits += 1
                return found
        return _MISS

    def node_cost(self, node: NodeId) -> Cost:
        """The declared transit cost of one node."""
        index = self._index.get(node)
        if index is None:
            raise GraphError(f"unknown node {node!r}")
        return self._costs[index]

    # ------------------------------------------------------------------
    # cache control
    # ------------------------------------------------------------------

    def clear_cache(self) -> None:
        """Drop every memoized tree (the graph index is kept)."""
        self._trees.clear()
        self._partials.clear()
        self._cost_trees.clear()

    @property
    def cached_trees(self) -> int:
        """How many single-source trees are currently memoized."""
        return len(self._trees)

    @property
    def cached_cost_trees(self) -> int:
        """How many cost-only label sets are currently memoized."""
        return len(self._cost_trees)

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

    def _sssp_costs(
        self, src: int, avoid: int, until: Optional[Iterable[int]] = None
    ) -> Tuple[Dict[int, Cost], bool]:
        """One cost-only Dijkstra run from ``src`` (indexed labels).

        No predecessor pointers, no path tuples, no lexicographic
        resolution: the returned label is the *cost* of the LCP, which
        is identical for every tying path, so the result is bit-equal
        to the ``.cost`` fields of the corresponding :meth:`_sssp`
        tree.  Unreachable nodes (and ``src`` itself) are absent.

        With ``until`` (node indices) the run stops once every listed
        index has settled.  The second component reports whether the
        labels are *complete*: only then does an absent index mean
        "disconnected" rather than "not settled before the early
        exit".  An unreachable ``until`` member simply drains the heap,
        so exhaustion always yields a complete label set.
        """
        self.cost_runs += 1
        costs = self._costs
        adj = self._adj
        dist: List[Cost] = [_INF] * len(self._ids)
        dist[src] = 0.0
        heap: List[Tuple[Cost, int]] = [(0.0, src)]
        push = heapq.heappush
        pop = heapq.heappop
        result: Dict[int, Cost] = {}
        remaining = None
        if until is not None:
            remaining = set(until)
            remaining.discard(src)
            remaining.discard(avoid)
        complete = True
        while heap:
            label, node = pop(heap)
            if node == src:
                base = 0.0
            else:
                if node in result:
                    continue
                result[node] = label
                if remaining is not None:
                    remaining.discard(node)
                    if not remaining:
                        # Conservative: stale heap entries alone would
                        # still make a complete set, but flagging them
                        # partial only costs a future re-run.
                        complete = not heap
                        break
                base = label + costs[node]
            for v in adj[node]:
                if v == avoid:
                    continue
                if base < dist[v]:
                    dist[v] = base
                    push(heap, (base, v))
        return result, complete


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
    """Every node's DATA1/DATA2/DATA3* digests, derived from LCP trees.

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
      ``Q`` the ``LCP_{-k}`` from ``i`` to ``j``, the price is
      ``c_k + cost(Q) - d(i, j)`` (same fold, same operation order as
      the protocol) and the tag is ``{Q[1]}``.  Each neighbour offers a
      path that starts with itself, so the argmin supplier of an
      avoidance entry is unique: its first hop.  A transit that cuts
      ``i`` off from ``j`` gets no cell.

    Each call uses a private :class:`RoutingEngine`, released per
    source, so no tree outlives the call (:func:`engine_for` would pin
    every tree for as long as the graph lives).
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
        for destination, entry in engine.tree(source).items():
            distance = folded(entry.path)
            routing.update(destination, RouteEntry(cost=distance, path=entry.path))
            for transit in entry.transit_nodes:
                detour = engine.tree(source, avoiding=transit).get(destination)
                if detour is None:
                    continue
                price = costs[transit] + folded(detour.path) - distance
                pricing.set_price(
                    destination, transit, price, frozenset((detour.path[1],))
                )
        engine.clear_cache()
        digests[source] = TableDigests(
            cost_digest=cost_digest,
            routing_digest=routing.stable_digest(),
            pricing_digest=pricing.stable_digest(),
        )
    return digests
