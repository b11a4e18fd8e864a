"""Static network topology with FIFO links.

The paper (following FPSS and Griffin-Wilfong) assumes a static
network: the node set and link set do not change during a mechanism
run.  Links are bidirectional FIFO channels with a fixed per-link
delay; determinism of the event queue then guarantees per-link FIFO
delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..errors import SimulationError
from .messages import NodeId


@dataclass(frozen=True)
class Link:
    """An undirected link between two nodes with a fixed delay."""

    a: NodeId
    b: NodeId
    delay: float = 1.0

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise SimulationError(f"self-loop link at {self.a!r}")
        if self.delay <= 0:
            raise SimulationError(f"link delay must be positive, got {self.delay}")

    @property
    def endpoints(self) -> FrozenSet[NodeId]:
        """Both endpoints, orderless."""
        return frozenset((self.a, self.b))


class NetworkTopology:
    """An undirected static topology over registered node ids."""

    def __init__(self) -> None:
        self._nodes: Set[NodeId] = set()
        self._adjacency: Dict[NodeId, Set[NodeId]] = {}
        self._links: Dict[FrozenSet[NodeId], Link] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_node(self, node_id: NodeId) -> None:
        """Register a node (idempotent)."""
        if node_id not in self._nodes:
            self._nodes.add(node_id)
            self._adjacency[node_id] = set()

    def add_link(self, a: NodeId, b: NodeId, delay: float = 1.0) -> Link:
        """Connect two registered nodes with a FIFO link."""
        for endpoint in (a, b):
            if endpoint not in self._nodes:
                raise SimulationError(f"unknown node {endpoint!r}; add it first")
        key = frozenset((a, b))
        if key in self._links:
            raise SimulationError(f"link {a!r}-{b!r} already exists")
        link = Link(a=a, b=b, delay=delay)
        self._links[key] = link
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)
        return link

    # ------------------------------------------------------------------
    # mutation (dynamic topology events)
    # ------------------------------------------------------------------
    #
    # The paper's mechanism run assumes a static network; the dynamic
    # topology engine mutates the topology *between* reconvergence
    # epochs, at network quiescence, never while messages are in
    # flight.

    def remove_link(self, a: NodeId, b: NodeId) -> Link:
        """Disconnect a link (a failure event); returns the old link."""
        key = frozenset((a, b))
        link = self._links.pop(key, None)
        if link is None:
            raise SimulationError(f"no link between {a!r} and {b!r}")
        self._adjacency[a].discard(b)
        self._adjacency[b].discard(a)
        return link

    def remove_node(self, node_id: NodeId) -> None:
        """Unregister a node and every link incident to it."""
        if node_id not in self._nodes:
            raise SimulationError(f"unknown node {node_id!r}")
        for neighbor in tuple(self._adjacency[node_id]):
            self.remove_link(node_id, neighbor)
        del self._adjacency[node_id]
        self._nodes.discard(node_id)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> FrozenSet[NodeId]:
        """All registered node ids."""
        return frozenset(self._nodes)

    @property
    def links(self) -> Tuple[Link, ...]:
        """All links, in deterministic (sorted by repr) order."""
        return tuple(
            self._links[key]
            for key in sorted(self._links, key=lambda k: sorted(map(repr, k)))
        )

    def neighbors(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        """Neighbours of a node, sorted by repr for determinism."""
        if node_id not in self._nodes:
            raise SimulationError(f"unknown node {node_id!r}")
        return tuple(sorted(self._adjacency[node_id], key=repr))

    def has_link(self, a: NodeId, b: NodeId) -> bool:
        """True if an (a, b) link exists."""
        return frozenset((a, b)) in self._links

    def link(self, a: NodeId, b: NodeId) -> Optional[Link]:
        """The (a, b) link, or ``None`` if there is none."""
        return self._links.get(frozenset((a, b)))

    def degree(self, node_id: NodeId) -> int:
        """Number of neighbours (= number of checkers in the faithful
        extension, where every neighbour checks the node)."""
        return len(self._adjacency.get(node_id, ()))

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def __iter__(self) -> Iterator[NodeId]:
        return iter(sorted(self._nodes, key=repr))

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # structure checks
    # ------------------------------------------------------------------

    def is_connected(self) -> bool:
        """True if the topology is a single connected component."""
        if not self._nodes:
            return True
        start = next(iter(self._nodes))
        seen = {start}
        frontier: List[NodeId] = [start]
        while frontier:
            node = frontier.pop()
            for neighbor in self._adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self._nodes)

    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple[NodeId, NodeId]], delay: float = 1.0
    ) -> "NetworkTopology":
        """Build a topology from an edge list with uniform delay."""
        topology = cls()
        for a, b in edges:
            topology.add_node(a)
            topology.add_node(b)
            topology.add_link(a, b, delay=delay)
        return topology
