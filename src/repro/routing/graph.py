"""AS-level network graphs with per-node transit costs.

FPSS models the Internet as an undirected graph of autonomous systems.
Each node ``k`` has a per-packet *transit cost* ``c_k`` incurred when it
carries traffic that neither originates nor terminates at ``k``.
The mechanism requires the graph to be **biconnected** so that VCG
payments are well-defined: removing any single transit node must leave
every source-destination pair connected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from ..errors import GraphError, NotBiconnectedError

NodeId = Hashable
Cost = float


class ASGraph:
    """An undirected graph with node transit costs.

    Parameters
    ----------
    costs:
        Mapping node id -> true per-packet transit cost (finite and
        non-negative).
    edges:
        Iterable of (a, b) pairs; both endpoints must appear in costs.
    """

    def __init__(
        self,
        costs: Mapping[NodeId, Cost],
        edges: Iterable[Tuple[NodeId, NodeId]],
    ) -> None:
        self._costs: Dict[NodeId, Cost] = {}
        for node, cost in costs.items():
            if cost < 0:
                raise GraphError(f"transit cost of {node!r} is negative: {cost}")
            if not math.isfinite(cost):
                raise GraphError(f"transit cost of {node!r} is not finite: {cost}")
            self._costs[node] = float(cost)

        self._adjacency: Dict[NodeId, Set[NodeId]] = {n: set() for n in self._costs}
        self._edges: Set[FrozenSet[NodeId]] = set()
        for a, b in edges:
            if a == b:
                raise GraphError(f"self-loop at {a!r}")
            for endpoint in (a, b):
                if endpoint not in self._costs:
                    raise GraphError(f"edge endpoint {endpoint!r} has no cost entry")
            key = frozenset((a, b))
            if key not in self._edges:
                self._edges.add(key)
                self._adjacency[a].add(b)
                self._adjacency[b].add(a)

        # The graph is immutable, so the deterministic (repr-sorted)
        # views are computed once here instead of on every property
        # access inside the routing hot loops.
        self._sorted_nodes: Tuple[NodeId, ...] = tuple(
            sorted(self._costs, key=repr)
        )
        pairs = [tuple(sorted(edge, key=repr)) for edge in self._edges]
        self._sorted_edges: Tuple[Tuple[NodeId, NodeId], ...] = tuple(
            sorted(pairs, key=repr)
        )  # type: ignore[assignment]
        self._sorted_neighbors: Dict[NodeId, Tuple[NodeId, ...]] = {
            node: tuple(sorted(adjacent, key=repr))
            for node, adjacent in self._adjacency.items()
        }

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        """All node ids in deterministic (repr-sorted) order."""
        return self._sorted_nodes

    @property
    def edges(self) -> Tuple[Tuple[NodeId, NodeId], ...]:
        """All edges as sorted pairs, deterministically ordered."""
        return self._sorted_edges

    def cost(self, node: NodeId) -> Cost:
        """The transit cost of a node."""
        try:
            return self._costs[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    @property
    def costs(self) -> Dict[NodeId, Cost]:
        """A copy of the cost mapping."""
        return dict(self._costs)

    def neighbors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Neighbours of a node, repr-sorted for determinism."""
        try:
            return self._sorted_neighbors[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    def degree(self, node: NodeId) -> int:
        """Number of neighbours."""
        return len(self._adjacency.get(node, ()))

    def has_edge(self, a: NodeId, b: NodeId) -> bool:
        """True if an (a, b) link exists."""
        return frozenset((a, b)) in self._edges

    def __contains__(self, node: NodeId) -> bool:
        return node in self._costs

    def __len__(self) -> int:
        return len(self._costs)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.nodes)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------

    def with_costs(self, declared: Mapping[NodeId, Cost]) -> "ASGraph":
        """The same topology under *declared* (possibly untruthful) costs.

        Nodes absent from ``declared`` keep their current cost.  Used to
        evaluate outcomes under misreports.
        """
        merged = dict(self._costs)
        for node, cost in declared.items():
            if node not in merged:
                raise GraphError(f"declared cost for unknown node {node!r}")
            merged[node] = float(cost)
        return ASGraph(merged, self.edges)

    def without_node(self, removed: NodeId) -> "ASGraph":
        """The graph with one node (and its edges) deleted.

        This is the "-k" graph in the VCG payment definition.
        """
        if removed not in self._costs:
            raise GraphError(f"unknown node {removed!r}")
        costs = {n: c for n, c in self._costs.items() if n != removed}
        edges = [(a, b) for a, b in self.edges if removed not in (a, b)]
        return ASGraph(costs, edges)

    # ------------------------------------------------------------------
    # structure checks
    # ------------------------------------------------------------------

    def is_connected(self) -> bool:
        """True if all nodes are in one component."""
        if not self._costs:
            return True
        start = self.nodes[0]
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbor in self._adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self._costs)

    def articulation_points(self) -> FrozenSet[NodeId]:
        """Cut vertices, via Hopcroft-Tarjan lowpoint DFS (iterative)."""
        if not self._costs:
            return frozenset()
        index: Dict[NodeId, int] = {}
        low: Dict[NodeId, int] = {}
        parent: Dict[NodeId, Optional[NodeId]] = {}
        points: Set[NodeId] = set()
        counter = 0

        for root in self.nodes:
            if root in index:
                continue
            parent[root] = None
            root_children = 0
            # Stack holds (node, iterator over neighbours).
            stack: List[Tuple[NodeId, Iterator[NodeId]]] = []
            index[root] = low[root] = counter
            counter += 1
            stack.append((root, iter(self.neighbors(root))))
            while stack:
                node, neighbor_iter = stack[-1]
                advanced = False
                for neighbor in neighbor_iter:
                    if neighbor not in index:
                        parent[neighbor] = node
                        if node == root:
                            root_children += 1
                        index[neighbor] = low[neighbor] = counter
                        counter += 1
                        stack.append((neighbor, iter(self.neighbors(neighbor))))
                        advanced = True
                        break
                    elif neighbor != parent[node]:
                        low[node] = min(low[node], index[neighbor])
                if not advanced:
                    stack.pop()
                    if stack:
                        above = stack[-1][0]
                        low[above] = min(low[above], low[node])
                        if above != root and low[node] >= index[above]:
                            points.add(above)
            if root_children > 1:
                points.add(root)
        return frozenset(points)

    def is_biconnected(self) -> bool:
        """True if connected, has >= 3 nodes, and no articulation point.

        Biconnectivity is the FPSS precondition making every VCG
        payment well-defined (an alternative path avoiding any single
        transit node always exists).
        """
        if len(self._costs) < 3:
            return False
        return self.is_connected() and not self.articulation_points()

    def require_biconnected(self) -> None:
        """Raise :class:`NotBiconnectedError` unless biconnected."""
        if not self.is_biconnected():
            raise NotBiconnectedError(
                "FPSS requires a biconnected graph; articulation points: "
                f"{sorted(map(repr, self.articulation_points()))}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ASGraph(n={len(self._costs)}, m={len(self._edges)})"


@dataclass(frozen=True)
class PathCost:
    """A path and its transit cost (sum over interior nodes)."""

    path: Tuple[NodeId, ...]
    cost: Cost

    @property
    def transit_nodes(self) -> Tuple[NodeId, ...]:
        """Interior nodes of the path (those that earn payments)."""
        return self.path[1:-1]

    @property
    def hops(self) -> int:
        """Number of edges traversed."""
        return max(0, len(self.path) - 1)


def figure1_graph() -> ASGraph:
    """The exact network of paper Figure 1.

    Six nodes A, B, C, D, X, Z with transit costs
    ``{A: 5, B: 1000, C: 1, D: 1, X: 6, Z: 100}``.  Edges are chosen to
    match the figure's drawing and its stated lowest-cost paths:

    * LCP(X, Z) = X-D-C-Z with transit cost 2 (through D and C);
      if C declared cost 5, X-A-Z would become the X-Z LCP (Example 1,
      via the X-A and A-Z links, transiting A at cost 5);
    * LCP(Z, D) has cost 1 (Z-C-D, transiting C);
    * LCP(B, D) has cost 0 (direct link, no transit nodes).
    """
    costs = {"A": 5.0, "B": 1000.0, "C": 1.0, "D": 1.0, "X": 6.0, "Z": 100.0}
    edges = [
        ("X", "A"),
        ("A", "Z"),
        ("X", "D"),
        ("D", "C"),
        ("C", "Z"),
        ("B", "D"),
        ("B", "C"),
    ]
    return ASGraph(costs, edges)
