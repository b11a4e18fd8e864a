"""Topology generators for the experiments.

FPSS requires biconnected graphs.  Besides the paper's own Figure-1
network, the experiments sweep randomly generated biconnected AS
graphs: a Hamiltonian-cycle backbone (which is already biconnected)
plus random chords, with transit costs drawn from a configurable range.
This mirrors how DAMD evaluations typically model AS-level topologies
at small scale, and every generated graph satisfies the mechanism's
preconditions by construction.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import GraphError
from ..routing.graph import ASGraph

__all__ = [
    "COST_DISTRIBUTIONS",
    "draw_costs",
    "figure1_graph",
    "ring_graph",
    "wheel_graph",
    "complete_graph",
    "random_biconnected_graph",
    "node_names",
]

# Re-exported so workloads is the one-stop topology module.
from ..routing.graph import figure1_graph  # noqa: E402  (re-export)


def node_names(count: int, prefix: str = "n") -> List[str]:
    """Deterministic node labels n00, n01, ..."""
    if count < 0:
        raise GraphError("count must be non-negative")
    width = max(2, len(str(max(count - 1, 0))))
    return [f"{prefix}{i:0{width}d}" for i in range(count)]


#: Transit-cost distributions accepted by :func:`draw_costs`.
COST_DISTRIBUTIONS = ("uniform", "pareto", "lognormal")


def draw_costs(
    names: Sequence[str],
    rng: random.Random,
    cost_range: Tuple[float, float],
    cost_dist: str = "uniform",
    cost_param: float = 2.5,
) -> Dict[str, float]:
    """Per-node transit costs from a configurable distribution.

    ``"uniform"`` draws from ``cost_range`` directly.  The heavy-tailed
    options anchor at ``cost_range[0]`` (which must then be positive)
    and ignore the upper bound: ``"pareto"`` multiplies it by
    ``Pareto(cost_param)``, ``"lognormal"`` by ``LogNormal(0,
    cost_param)``.  Skewed costs concentrate cheap transit on a few
    nodes, which is what makes VCG overpayment interesting to sweep.
    """
    low, high = cost_range
    if low < 0 or high < low:
        raise GraphError(f"invalid cost range {cost_range}")
    if cost_dist not in COST_DISTRIBUTIONS:
        raise GraphError(
            f"unknown cost_dist {cost_dist!r}; "
            f"expected one of {COST_DISTRIBUTIONS}"
        )
    if cost_dist == "uniform":
        return {name: rng.uniform(low, high) for name in names}
    if cost_param <= 0:
        raise GraphError(f"cost_param must be positive, got {cost_param}")
    if low <= 0:
        raise GraphError(
            f"{cost_dist} costs need a positive anchor, got low={low}"
        )
    if cost_dist == "pareto":
        return {name: low * rng.paretovariate(cost_param) for name in names}
    return {name: low * rng.lognormvariate(0.0, cost_param) for name in names}


def _uniform_costs(
    names: Sequence[str],
    rng: random.Random,
    cost_range: Tuple[float, float],
) -> Dict[str, float]:
    return draw_costs(names, rng, cost_range, cost_dist="uniform")


def ring_graph(
    count: int,
    rng: Optional[random.Random] = None,
    cost_range: Tuple[float, float] = (1.0, 10.0),
) -> ASGraph:
    """A cycle of ``count`` nodes (the minimal biconnected family)."""
    if count < 3:
        raise GraphError("a ring needs at least 3 nodes")
    rng = rng or random.Random(0)
    names = node_names(count)
    costs = _uniform_costs(names, rng, cost_range)
    edges = [(names[i], names[(i + 1) % count]) for i in range(count)]
    return ASGraph(costs, edges)


def wheel_graph(
    count: int,
    rng: Optional[random.Random] = None,
    cost_range: Tuple[float, float] = (1.0, 10.0),
) -> ASGraph:
    """A hub connected to every rim node of an (count-1)-ring."""
    if count < 4:
        raise GraphError("a wheel needs at least 4 nodes")
    rng = rng or random.Random(0)
    names = node_names(count)
    hub, rim = names[0], names[1:]
    costs = _uniform_costs(names, rng, cost_range)
    edges = [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]
    edges.extend((hub, spoke) for spoke in rim)
    return ASGraph(costs, edges)


def complete_graph(
    count: int,
    rng: Optional[random.Random] = None,
    cost_range: Tuple[float, float] = (1.0, 10.0),
) -> ASGraph:
    """The fully connected graph (every pair adjacent)."""
    if count < 3:
        raise GraphError("a complete graph needs at least 3 nodes")
    rng = rng or random.Random(0)
    names = node_names(count)
    costs = _uniform_costs(names, rng, cost_range)
    edges = [
        (names[i], names[j])
        for i in range(count)
        for j in range(i + 1, count)
    ]
    return ASGraph(costs, edges)


def random_biconnected_graph(
    count: int,
    rng: Optional[random.Random] = None,
    extra_edge_prob: float = 0.25,
    cost_range: Tuple[float, float] = (1.0, 10.0),
    cost_dist: str = "uniform",
    cost_param: float = 2.5,
) -> ASGraph:
    """A random biconnected AS graph.

    Construction: a Hamiltonian cycle over a shuffled node order
    (guaranteeing biconnectivity), then each non-cycle pair is added
    independently with probability ``extra_edge_prob``.

    Parameters
    ----------
    rng:
        Seeded generator; the same seed reproduces the same graph.
    cost_dist, cost_param:
        Transit-cost distribution (see :func:`draw_costs`); the default
        keeps the seed repository's uniform draw bit-for-bit.
    """
    if count < 3:
        raise GraphError("need at least 3 nodes for biconnectivity")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise GraphError("extra_edge_prob must lie in [0, 1]")
    rng = rng or random.Random(0)
    names = node_names(count)
    costs = draw_costs(
        names, rng, cost_range, cost_dist=cost_dist, cost_param=cost_param
    )

    order = list(range(count))
    rng.shuffle(order)
    # Each index's two cycle neighbours: a pair (i, j) is a cycle edge
    # iff j is one of i's, so the chord loop below allocates nothing.
    cycle_neighbours: List[Tuple[int, int]] = [(0, 0)] * count
    edges = []
    for position, index in enumerate(order):
        successor = order[(position + 1) % count]
        cycle_neighbours[index] = (order[position - 1], successor)
        edges.append(tuple(sorted((names[index], names[successor]))))
    draw = rng.random
    for i in range(count):
        before, after = cycle_neighbours[i]
        for j in range(i + 1, count):
            if j == before or j == after:
                continue
            if draw() < extra_edge_prob:
                edges.append((names[i], names[j]))
    graph = ASGraph(costs, sorted(edges))
    assert graph.is_biconnected()
    return graph
