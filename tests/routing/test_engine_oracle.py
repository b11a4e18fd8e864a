"""The engine's fixed-point digests against the replay kernel.

Reproduces: the BANK1/BANK2 comparison material of Shneidman & Parkes
(PODC'04) Section 4 — DATA2 and DATA3* digests, identity tags included.
:func:`~repro.routing.engine.fixed_point_digests` derives them from
one Dijkstra tree and one repair sweep per source (no ``-k`` tree);
:func:`~repro.routing.kernel.kernel_fixed_point` iterates the replay
kernel.  The two share no code, so they must agree node by node on
every graph (the parity suite), and a bug planted in either must show
up as a disagreement (the planted-bug tests): the protocol reproduces
the kernel's bug, the engine oracle does not, and a tie bug planted in
the sweep fails the parity suite.  A counter gate pins the oracle's
work at one tree and one sweep per source.
"""

import json
import os
import random
import subprocess
import sys

import pytest

import repro.routing.engine as engine_module
import repro.routing.kernel as kernel_module
from repro.errors import ConvergenceError
from repro.routing import (
    ASGraph,
    FPSSNode,
    figure1_graph,
    fixed_point_digests,
    kernel_fixed_point,
    run_plain_fpss,
    verify_against_oracle,
    verify_epoch_equivalence,
)
from repro.sim.churn import apply_churn_epoch, random_churn_schedule
from repro.workloads import random_biconnected_graph

DIGESTS = ("cost_digest", "routing_digest", "pricing_digest")

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def assert_parity(graph):
    """Engine digests equal kernel fixed-point digests on every node."""
    expected = fixed_point_digests(graph)
    kernels = kernel_fixed_point(graph)
    assert list(expected) == list(kernels)
    for node_id, kernel in kernels.items():
        for digest in DIGESTS:
            assert getattr(expected[node_id], digest) == getattr(
                kernel, digest
            )(), (node_id, digest)


COST_RANGES = {
    "float": (1.0, 10.0),
    # Every path of equal hop count ties: the lexicographic tie-break
    # decides most entries.
    "unit": (1.0, 1.0),
    # Every path ties on cost: hop count and then lex order decide.
    "zero": (0.0, 0.0),
}


class TestParity:
    @pytest.mark.parametrize("costs", sorted(COST_RANGES))
    @pytest.mark.parametrize(
        "size,seed,prob", [(6, 0, 0.5), (10, 1, 0.3), (14, 2, 0.25), (20, 3, 0.2)]
    )
    def test_random_graphs(self, size, seed, prob, costs):
        graph = random_biconnected_graph(
            size,
            random.Random(seed * 100 + size),
            extra_edge_prob=prob,
            cost_range=COST_RANGES[costs],
        )
        assert_parity(graph)

    def test_figure1(self):
        assert_parity(figure1_graph())

    def test_equal_ids_keep_their_own_repr(self):
        """``1``, ``1.0`` and ``True`` are one dict key with three
        ``repr``s; a kernel run on one must not tie-break another.

        7 reaches 8 through ``one`` or through 5 at equal cost and hop
        count, so the ``repr`` tie-break decides: via ``1`` and ``1.0``
        (``'1' < '5'``) but via 5 for ``True`` (``'5' < 'True'``).
        """
        for one in (1, 1.0, True):
            graph = ASGraph(
                {one: 1.0, 5: 1.0, 7: 1.0, 8: 1.0},
                [(7, one), (one, 8), (7, 5), (5, 8)],
            )
            assert_parity(graph)

    @pytest.mark.parametrize(
        "kinds",
        [
            ("cost",),
            ("link-down", "link-up"),
            ("leave", "join"),
            ("cost", "link-down", "link-up", "leave", "join"),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_post_epoch_graphs(self, kinds, seed):
        graph = random_biconnected_graph(
            10, random.Random(seed), extra_edge_prob=0.3
        )
        schedule = random_churn_schedule(
            graph, random.Random(seed), epochs=3, events_per_epoch=2,
            kinds=kinds, seed=seed,
        )
        for events in schedule.epochs:
            graph = apply_churn_epoch(graph, events)
            assert_parity(graph)

    def test_partitioned_post_epoch_graphs(self):
        """``require=None`` schedules cut sparse graphs apart; the
        oracle must withdraw the unreachable rows just as the kernel
        never derives them."""
        partitions = 0
        for seed in range(4):
            graph = random_biconnected_graph(
                9, random.Random(seed), extra_edge_prob=0.05
            )
            schedule = random_churn_schedule(
                graph, random.Random(seed), epochs=3, events_per_epoch=2,
                kinds=("link-down", "leave", "cost", "join"), require=None,
                on_exhaustion="skip", seed=seed,
            )
            for events in schedule.epochs:
                graph = apply_churn_epoch(graph, events)
                partitions += not graph.is_connected()
                assert_parity(graph)
        assert partitions > 0


def assert_network_matches_kernel(graph, nodes):
    """The protocol run reproduces the (possibly buggy) kernel."""
    for node_id, kernel in kernel_fixed_point(graph).items():
        comp = nodes[node_id].comp
        for digest in DIGESTS:
            assert getattr(comp, digest)() == getattr(kernel, digest)()


def _flipped_lex_key(path):
    """A lexicographic key that orders paths in reverse."""
    # The trailing 1 sorts a string after its own extensions, so the
    # per-string key reverses the order of prefixes too.
    return tuple(tuple(-ord(c) for c in repr(node)) + (1,) for node in path)


class TestPlantedKernelBugs:
    """The engine oracle catches a bug the kernel fixed point repeats."""

    @pytest.fixture
    def tied_graph(self):
        # Unit costs: most routes are decided by the tie-break.
        return random_biconnected_graph(
            10, random.Random(4), extra_edge_prob=0.3, cost_range=(1.0, 1.0)
        )

    def test_flipped_tie_break_is_caught(self, monkeypatch, tied_graph):
        monkeypatch.setattr(kernel_module, "_lex_key", _flipped_lex_key)
        _, nodes, _ = run_plain_fpss(tied_graph)
        assert_network_matches_kernel(tied_graph, nodes)
        with pytest.raises(ConvergenceError, match="DATA2"):
            verify_epoch_equivalence(tied_graph, nodes)

    def test_dropped_tag_supplier_is_caught(self, monkeypatch):
        graph = random_biconnected_graph(10, random.Random(4), extra_edge_prob=0.3)
        monkeypatch.setattr(
            kernel_module, "_tag_of", lambda state, destination: frozenset()
        )
        _, nodes, _ = run_plain_fpss(graph)
        assert_network_matches_kernel(graph, nodes)
        with pytest.raises(ConvergenceError, match=r"DATA3\*"):
            verify_epoch_equivalence(graph, nodes)

    def test_unpatched_kernel_passes(self, tied_graph):
        _, nodes, _ = run_plain_fpss(tied_graph)
        verify_epoch_equivalence(tied_graph, nodes)


class TestPlantedOracleBugs:
    """The parity suite exercises the oracle's own tie-breaking, not
    only the kernel's: a tie bug planted in the repair sweep fails it."""

    def test_first_tying_predecessor_is_caught(self, monkeypatch):
        # Unit costs: most detours are decided by the tie-break.
        graph = random_biconnected_graph(
            10, random.Random(4), extra_edge_prob=0.3, cost_range=(1.0, 1.0)
        )
        assert_parity(graph)
        monkeypatch.setattr(
            engine_module, "_lex_prefers", lambda challenger, incumbent: False
        )
        with pytest.raises(AssertionError, match="pricing_digest"):
            assert_parity(graph)


class _CountingEngine(engine_module.RoutingEngine):
    """Records the ``avoid`` index of every Dijkstra run."""

    instances = []

    def __init__(self, graph):
        super().__init__(graph)
        self.avoided = []
        self.instances.append(self)

    def _sssp(self, src, avoid, until=None):
        self.avoided.append(avoid)
        return super()._sssp(src, avoid, until)


class TestOracleWork:
    @pytest.mark.parametrize("size,seed", [(12, 0), (32, 1)])
    def test_one_tree_and_one_sweep_per_source(self, monkeypatch, size, seed):
        """Exact counter gate: ``n`` base Dijkstras, ``n`` repair
        sweeps and no avoiding Dijkstra."""
        graph = random_biconnected_graph(size, random.Random(seed))
        monkeypatch.setattr(_CountingEngine, "instances", [])
        monkeypatch.setattr(engine_module, "RoutingEngine", _CountingEngine)
        fixed_point_digests(graph)
        (engine,) = _CountingEngine.instances
        assert engine.runs == size
        assert engine.avoided == [-1] * size
        assert engine.sweeps == size


class TestOracleErrors:
    """Both oracles name a missing or unstarted node in a
    :class:`ConvergenceError`, the one error their callers catch."""

    @pytest.fixture
    def converged(self):
        graph = figure1_graph()
        _, nodes, _ = run_plain_fpss(graph)
        return graph, dict(nodes)

    @pytest.mark.parametrize("check", [verify_against_oracle, verify_epoch_equivalence])
    def test_missing_node(self, converged, check):
        graph, nodes = converged
        del nodes["C"]
        with pytest.raises(ConvergenceError, match="'C'"):
            check(graph, nodes)

    @pytest.mark.parametrize("check", [verify_against_oracle, verify_epoch_equivalence])
    def test_unstarted_node(self, converged, check):
        graph, nodes = converged
        nodes["C"] = FPSSNode("C", graph.cost("C"))
        with pytest.raises(ConvergenceError, match="'C'"):
            check(graph, nodes)


#: Subprocess workload: kernel and engine fixed-point digests.
_HASH_SEED_WORKER = """
import json
import random
import sys

from repro.routing import fixed_point_digests, kernel_fixed_point
from repro.workloads import random_biconnected_graph

graph = random_biconnected_graph(12, random.Random(3))
out = {"kernel": {}, "engine": {}}
for node, kernel in sorted(kernel_fixed_point(graph).items(), key=repr):
    out["kernel"][repr(node)] = [
        kernel.cost_digest(), kernel.routing_digest(), kernel.pricing_digest()
    ]
for node, digests in sorted(fixed_point_digests(graph).items(), key=repr):
    out["engine"][repr(node)] = [
        digests.cost_digest, digests.routing_digest, digests.pricing_digest
    ]
json.dump(out, sys.stdout, sort_keys=True)
"""


class TestHashSeedParity:
    def test_digests_identical_across_hash_seeds(self, tmp_path):
        """Kernel and engine agree, and neither depends on hash order."""
        script = tmp_path / "worker.py"
        script.write_text(_HASH_SEED_WORKER)
        procs = {
            seed: subprocess.Popen(
                [sys.executable, str(script)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONHASHSEED=seed),
            )
            for seed in ("0", "1")
        }
        outputs = {}
        for seed, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, f"seed {seed} failed:\n{stderr}"
            outputs[seed] = json.loads(stdout)
        for seed, out in outputs.items():
            assert out["kernel"] == out["engine"], seed
            assert len(out["kernel"]) == 12
        assert outputs["0"] == outputs["1"]
