"""Network topology with FIFO links.

The paper (following FPSS and Griffin-Wilfong) assumes a static
network: the node set and link set do not change during a mechanism
run.  Links are bidirectional FIFO channels with a fixed per-link
delay; determinism of the event queue then guarantees per-link FIFO
delivery.  The dynamic-topology engine mutates the topology only
between reconvergence epochs, at quiescence.

Every send reads the topology, so :class:`NetworkTopology` keeps the
answers the send path asks for as state, maintained by ``add_link``,
``remove_link`` and ``remove_node``: each node's ``repr``-sorted
neighbour tuple (:meth:`~NetworkTopology.neighbors` is a dict lookup)
and a directed ``(src, dst) -> delay`` map
(:attr:`~NetworkTopology.delays`, one dict read per transmission).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple

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
    """An undirected topology over registered node ids.

    Besides the links themselves it keeps two derived maps, rebuilt
    only for the endpoints a mutation touches: ``_neighbors`` (node ->
    ``repr``-sorted neighbour tuple; its keys are the node set) and
    ``_delays`` (both directions of every link -> the link's delay).
    """

    def __init__(self) -> None:
        self._neighbors: Dict[NodeId, Tuple[NodeId, ...]] = {}
        self._delays: Dict[Tuple[NodeId, NodeId], float] = {}
        self._links: Dict[FrozenSet[NodeId], Link] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_node(self, node_id: NodeId) -> None:
        """Register a node (idempotent)."""
        self._neighbors.setdefault(node_id, ())

    def add_link(self, a: NodeId, b: NodeId, delay: float = 1.0) -> Link:
        """Connect two registered nodes with a FIFO link."""
        for endpoint in (a, b):
            if endpoint not in self._neighbors:
                raise SimulationError(f"unknown node {endpoint!r}; add it first")
        key = frozenset((a, b))
        if key in self._links:
            raise SimulationError(f"link {a!r}-{b!r} already exists")
        link = Link(a=a, b=b, delay=delay)
        self._links[key] = link
        self._delays[(a, b)] = self._delays[(b, a)] = link.delay
        neighbors = self._neighbors
        neighbors[a] = tuple(sorted(neighbors[a] + (b,), key=repr))
        neighbors[b] = tuple(sorted(neighbors[b] + (a,), key=repr))
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
        link = self._links.pop(frozenset((a, b)), None)
        if link is None:
            raise SimulationError(f"no link between {a!r} and {b!r}")
        del self._delays[(a, b)], self._delays[(b, a)]
        neighbors = self._neighbors
        neighbors[a] = tuple(n for n in neighbors[a] if n != b)
        neighbors[b] = tuple(n for n in neighbors[b] if n != a)
        return link

    def remove_node(self, node_id: NodeId) -> None:
        """Unregister a node and every link incident to it."""
        if node_id not in self._neighbors:
            raise SimulationError(f"unknown node {node_id!r}")
        for neighbor in self._neighbors[node_id]:
            self.remove_link(node_id, neighbor)
        del self._neighbors[node_id]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> FrozenSet[NodeId]:
        """All registered node ids."""
        return frozenset(self._neighbors)

    @property
    def links(self) -> Tuple[Link, ...]:
        """All links, in deterministic (sorted by repr) order."""
        return tuple(
            self._links[key]
            for key in sorted(self._links, key=lambda k: sorted(map(repr, k)))
        )

    @property
    def delays(self) -> Mapping[Tuple[NodeId, NodeId], float]:
        """Live ``(src, dst) -> delay`` map over both directions of
        every link; read-only by contract (the simulator keeps it)."""
        return self._delays

    def neighbors(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        """Neighbours of a node, sorted by repr for determinism."""
        try:
            return self._neighbors[node_id]
        except KeyError:
            raise SimulationError(f"unknown node {node_id!r}") from None

    def has_link(self, a: NodeId, b: NodeId) -> bool:
        """True if an (a, b) link exists."""
        return (a, b) in self._delays

    def link(self, a: NodeId, b: NodeId) -> Optional[Link]:
        """The (a, b) link, or ``None`` if there is none."""
        return self._links.get(frozenset((a, b)))

    def degree(self, node_id: NodeId) -> int:
        """Number of neighbours (= number of checkers in the faithful
        extension, where every neighbour checks the node)."""
        return len(self._neighbors.get(node_id, ()))

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._neighbors

    def __iter__(self) -> Iterator[NodeId]:
        return iter(sorted(self._neighbors, key=repr))

    def __len__(self) -> int:
        return len(self._neighbors)

    # ------------------------------------------------------------------
    # structure checks
    # ------------------------------------------------------------------

    def is_connected(self) -> bool:
        """True if the topology is a single connected component."""
        if not self._neighbors:
            return True
        start = next(iter(self._neighbors))
        seen = {start}
        frontier: List[NodeId] = [start]
        while frontier:
            node = frontier.pop()
            for neighbor in self._neighbors[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self._neighbors)

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
