"""Reproduction result: a profitable route shader stalls plain FPSS.

``false-route-announce`` understates every path cost a node announces.
That profits the shader in plain FPSS, but it also breaks the property
that makes path-vector routing converge: an announced cost is no longer
the route's true cost, so the neighbours' preferences stop following
one metric.  On ``random_biconnected_graph(14, Random(2))`` with the
shader on ``n03`` the result is a two-state oscillation (a dispute
wheel in the sense of Griffin, Shepherd and Wilfong), not slow
convergence: ``n03``'s route to ``n11`` flips between the path via
``n00`` and the path via ``n02`` forever, and construction never
quiesces.  The faithful mechanism's checkers flag the shading at once,
but the bank only collects flags at quiescence, so the faithful run
stalls too (ROADMAP item 10).
"""

import random

import pytest

from repro.errors import ConvergenceError
from repro.faithful.manipulations import DEVIATION_CATALOGUE, plain_deviant_factory
from repro.faithful.protocol import PlainFPSSProtocol
from repro.routing.fpss import KIND_RT_UPDATE
from repro.workloads import random_biconnected_graph, uniform_all_pairs

SHADER = "n03"
DESTINATION = "n11"


def recording_factory(announced):
    """The shader's factory; ``announced`` collects the routing rows for
    :data:`DESTINATION` that the shader actually sends (after shading)."""
    deviant = plain_deviant_factory(
        DEVIATION_CATALOGUE["false-route-announce"], SHADER
    )

    def factory(node_id, cost):
        node = deviant(node_id, cost)
        if node_id == SHADER:
            send = node.multicast

            def multicast(recipients, kind, **fields):
                if kind == KIND_RT_UPDATE:
                    announced.extend(
                        row for row in fields["vector"] if row[0] == DESTINATION
                    )
                return send(recipients, kind, **fields)

            node.multicast = multicast
        return node

    return factory


def test_route_shader_oscillates_plain_construction():
    graph = random_biconnected_graph(14, random.Random(2))
    announced = []
    protocol = PlainFPSSProtocol(
        graph,
        uniform_all_pairs(graph),
        node_factory=recording_factory(announced),
        max_events=5000,
    )
    with pytest.raises(ConvergenceError):
        protocol.run()
    # Exactly two rows, strictly alternating: a cycle, not a slow walk.
    assert len(announced) > 100
    assert len(set(announced)) == 2
    assert all(a != b for a, b in zip(announced, announced[1:]))
    rows = {row[2]: round(row[1], 2) for row in announced}
    assert rows == {
        (SHADER, "n00", "n08", DESTINATION): 8.03,
        (SHADER, "n02", "n09", "n13", DESTINATION): 6.26,
    }
