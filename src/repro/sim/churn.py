"""Dynamic-topology event vocabulary and churn schedules.

The paper's mechanism run assumes a static network, but its
faithfulness claims are stated for a *recomputation* protocol that must
survive network change.  This module supplies the event vocabulary for
exercising that machinery: a :class:`ChurnSchedule` is a deterministic
sequence of reconvergence *epochs*, each a batch of
:class:`ChurnEvent` objects applied synchronously at network
quiescence.

The vocabulary follows the routesim2 exemplar (`link_has_been_updated`
with ``latency == -1`` encoding deletion), adapted to the FPSS cost
model where transit costs live on nodes rather than links:

``cost``
    A node changes its declared transit cost (the link-cost-change of
    link-state simulators, moved to the node that owns the cost).
``link-down`` / ``link-up``
    A link fails / is restored or newly created.
``leave`` / ``join``
    A node departs with all its links / a new node arrives with a set
    of links and a declared cost.

Schedules are either explicit (a spec of events per epoch) or drawn
from :func:`random_churn_schedule`, a seeded generator that keeps every
intermediate graph viable (connected or biconnected, by construction)
so reconvergence is always well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..errors import SimulationError
from ..routing.graph import ASGraph, NodeId

#: The closed event vocabulary, repr-stable for specs and telemetry.
EVENT_KINDS: Tuple[str, ...] = ("cost", "link-down", "link-up", "leave", "join")


@dataclass(frozen=True)
class ChurnEvent:
    """One topology event, validated against the vocabulary.

    Field usage by kind:

    * ``cost``: ``node`` + ``cost`` (the new declared transit cost);
    * ``link-down`` / ``link-up``: ``link`` as an ``(a, b)`` pair;
    * ``leave``: ``node``;
    * ``join``: ``node`` + ``cost`` + ``links`` (the new node's
      attachment points, each an ``(a, b)`` pair containing ``node``).
    """

    kind: str
    node: Optional[NodeId] = None
    link: Optional[Tuple[NodeId, NodeId]] = None
    cost: Optional[float] = None
    links: Tuple[Tuple[NodeId, NodeId], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise SimulationError(
                f"unknown churn event kind {self.kind!r}; expected one of "
                f"{EVENT_KINDS}"
            )
        if self.kind == "cost":
            if self.node is None or self.cost is None:
                raise SimulationError("cost event needs node and cost")
            if self.cost < 0:
                raise SimulationError("declared transit costs are non-negative")
        elif self.kind in ("link-down", "link-up"):
            if self.link is None or len(self.link) != 2:
                raise SimulationError(f"{self.kind} event needs a link pair")
            if self.link[0] == self.link[1]:
                raise SimulationError("self-loop link in churn event")
        elif self.kind == "leave":
            if self.node is None:
                raise SimulationError("leave event needs a node")
        else:  # join
            if self.node is None or self.cost is None or not self.links:
                raise SimulationError("join event needs node, cost, and links")
            if self.cost < 0:
                raise SimulationError("declared transit costs are non-negative")
            for pair in self.links:
                if len(pair) != 2 or self.node not in pair:
                    raise SimulationError(
                        "every join link must contain the joining node"
                    )
                if pair[0] == pair[1]:
                    raise SimulationError("self-loop link in join event")

    def describe(self) -> str:
        """A compact deterministic label for telemetry."""
        if self.kind == "cost":
            return f"cost:{self.node!r}={self.cost}"
        if self.kind in ("link-down", "link-up"):
            a, b = sorted(self.link, key=repr)  # type: ignore[arg-type]
            return f"{self.kind}:{a!r}-{b!r}"
        if self.kind == "leave":
            return f"leave:{self.node!r}"
        return f"join:{self.node!r}(+{len(self.links)} links)"


@dataclass(frozen=True)
class ChurnSchedule:
    """Events grouped into reconvergence epochs, applied in order."""

    epochs: Tuple[Tuple[ChurnEvent, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "epochs",
            tuple(tuple(events) for events in self.epochs),
        )

    def __len__(self) -> int:
        return len(self.epochs)

    @property
    def event_count(self) -> int:
        """Total number of events across all epochs."""
        return sum(len(events) for events in self.epochs)

    @classmethod
    def single(cls, *events: ChurnEvent) -> "ChurnSchedule":
        """A one-epoch schedule from explicit events."""
        return cls(epochs=(tuple(events),))


# ----------------------------------------------------------------------
# graph evolution
# ----------------------------------------------------------------------


def apply_churn_event(graph: ASGraph, event: ChurnEvent) -> ASGraph:
    """The post-event graph (validates the event against ``graph``)."""
    if event.kind == "cost":
        if event.node not in graph:
            raise SimulationError(f"cost event for unknown node {event.node!r}")
        return graph.with_costs({event.node: event.cost})
    if event.kind == "link-down":
        a, b = event.link  # type: ignore[misc]
        if not graph.has_edge(a, b):
            raise SimulationError(f"link-down on absent link {a!r}-{b!r}")
        key = frozenset((a, b))
        edges = [pair for pair in graph.edges if frozenset(pair) != key]
        return ASGraph(graph.costs, edges)
    if event.kind == "link-up":
        a, b = event.link  # type: ignore[misc]
        for endpoint in (a, b):
            if endpoint not in graph:
                raise SimulationError(
                    f"link-up endpoint {endpoint!r} is not in the graph"
                )
        if graph.has_edge(a, b):
            raise SimulationError(f"link-up on existing link {a!r}-{b!r}")
        return ASGraph(graph.costs, graph.edges + ((a, b),))
    if event.kind == "leave":
        if event.node not in graph:
            raise SimulationError(f"leave event for unknown node {event.node!r}")
        return graph.without_node(event.node)
    # join
    if event.node in graph:
        raise SimulationError(f"join event for existing node {event.node!r}")
    costs = graph.costs
    costs[event.node] = float(event.cost)  # type: ignore[arg-type]
    return ASGraph(costs, graph.edges + tuple(event.links))


def apply_churn_epoch(graph: ASGraph, events: Sequence[ChurnEvent]) -> ASGraph:
    """Fold one epoch's events over a graph, left to right."""
    for event in events:
        graph = apply_churn_event(graph, event)
    return graph


def evolved_graphs(graph: ASGraph, schedule: ChurnSchedule) -> Tuple[ASGraph, ...]:
    """The post-event graph after each epoch (same length as the schedule)."""
    out = []
    for events in schedule.epochs:
        graph = apply_churn_epoch(graph, events)
        out.append(graph)
    return tuple(out)


# ----------------------------------------------------------------------
# seeded schedule generation
# ----------------------------------------------------------------------


def _viable(graph: ASGraph, require: Optional[str]) -> bool:
    if len(graph) < 2:
        return False
    if require == "connected":
        return graph.is_connected()
    if require == "biconnected":
        return graph.is_biconnected()
    return True


#: Rejection-sampling budget per event slot in
#: :func:`random_churn_schedule`.
_DRAW_ATTEMPTS = 32


def random_churn_schedule(
    graph: ASGraph,
    rng,
    epochs: int = 2,
    events_per_epoch: int = 1,
    kinds: Sequence[str] = ("cost", "link-down", "link-up"),
    cost_range: Tuple[float, float] = (1.0, 10.0),
    require: Optional[str] = "connected",
    join_prefix: str = "hx",
    on_exhaustion: str = "raise",
    seed: Optional[int] = None,
) -> ChurnSchedule:
    """Draw a deterministic schedule keeping every epoch graph viable.

    ``rng`` is a seeded ``random.Random``; all sampling happens over
    repr-sorted views, so the schedule depends only on the seed and the
    graph, never on hash order.  Each drawn event is validated against
    the evolving graph with bounded rejection sampling.

    When an event slot exhausts its sampling budget — no requested kind
    can keep the graph viable here (the last safe link, the last spare
    node) — the default ``on_exhaustion="raise"`` raises a
    :class:`SimulationError` naming the seed, the event kinds tried,
    and the violated viability constraint, so an impossible
    constraint set fails loudly instead of silently under-delivering
    events.  ``on_exhaustion="skip"`` restores the lenient behaviour:
    the slot is dropped and small graphs yield smaller epochs.
    ``seed`` is only used to label the error (the ``rng`` object does
    not expose the seed it was built from).
    """
    for kind in kinds:
        if kind not in EVENT_KINDS:
            raise SimulationError(f"unknown churn event kind {kind!r}")
    if on_exhaustion not in ("raise", "skip"):
        raise SimulationError(
            f"unknown on_exhaustion policy {on_exhaustion!r}; "
            "expected 'raise' or 'skip'"
        )
    current = graph
    joined = 0
    epoch_specs = []
    for epoch in range(epochs):
        events = []
        for _ in range(events_per_epoch):
            event = None
            tried = set()
            for _attempt in range(_DRAW_ATTEMPTS):
                kind = kinds[rng.randrange(len(kinds))]
                tried.add(kind)
                candidate = _draw_event(
                    current, rng, kind, cost_range, f"{join_prefix}{joined}"
                )
                if candidate is None:
                    continue
                evolved = apply_churn_event(current, candidate)
                if not _viable(evolved, require):
                    continue
                event = candidate
                current = evolved
                break
            if event is None:
                if on_exhaustion == "skip":
                    continue
                seed_label = "unknown" if seed is None else repr(seed)
                raise SimulationError(
                    f"churn schedule draw exhausted "
                    f"{_DRAW_ATTEMPTS} attempts in epoch {epoch} "
                    f"(seed {seed_label}): no event of kind "
                    f"{sorted(tried)} keeps the "
                    f"{len(current)}-node graph "
                    f"{require or 'non-trivial'}; relax the kinds or "
                    "the viability constraint, or pass "
                    "on_exhaustion='skip' to drop the slot"
                )
            if event.kind == "join":
                joined += 1
            events.append(event)
        epoch_specs.append(tuple(events))
    return ChurnSchedule(epochs=tuple(epoch_specs))


def _draw_event(
    graph: ASGraph,
    rng,
    kind: str,
    cost_range: Tuple[float, float],
    join_id: NodeId,
) -> Optional[ChurnEvent]:
    nodes = graph.nodes
    if kind == "cost":
        node = nodes[rng.randrange(len(nodes))]
        return ChurnEvent(
            kind="cost", node=node, cost=round(rng.uniform(*cost_range), 3)
        )
    if kind == "link-down":
        edges = graph.edges
        if not edges:
            return None
        return ChurnEvent(kind="link-down", link=edges[rng.randrange(len(edges))])
    if kind == "link-up":
        absent = [
            (a, b)
            for i, a in enumerate(nodes)
            for b in nodes[i + 1 :]
            if not graph.has_edge(a, b)
        ]
        if not absent:
            return None
        return ChurnEvent(kind="link-up", link=absent[rng.randrange(len(absent))])
    if kind == "leave":
        if len(nodes) < 4:
            return None
        return ChurnEvent(kind="leave", node=nodes[rng.randrange(len(nodes))])
    # join: attach with two links (one if the graph is a single node)
    anchors = list(nodes)
    rng.shuffle(anchors)
    chosen = anchors[: min(2, len(anchors))]
    return ChurnEvent(
        kind="join",
        node=join_id,
        cost=round(rng.uniform(*cost_range), 3),
        links=tuple((join_id, anchor) for anchor in chosen),
    )
