"""The benchmark's three workloads: inputs, program calls, checks, counters.

Each workload is driven in four steps by ``measure.py``:

* ``setup(seed)`` builds the inputs from the seed alone;
* ``run(inputs, aside)`` makes the timed program calls and returns what
  the program returned (``aside`` wraps any check that has to run
  inside the program call, so its time moves from run to verify);
* ``verify(inputs, outputs)`` checks the outputs through the repo's
  public oracles and returns the number of failed operations;
* ``counters(inputs, outputs)`` reads exact work counts from the
  returned objects.

Graphs are sparse AS-like biconnected graphs (expected extra degree 4)
with uniform transit costs in [1, 10].
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Dict, List, Set

from repro.errors import ConvergenceError
from repro.faithful import (
    BankNode,
    FaithfulFPSSProtocol,
    collect_construction_flags,
    net_positions,
    run_checked_churn,
    synthesize_execution_reports,
)
from repro.routing import (
    KernelStats,
    economics_under_traffic,
    engine_for,
    verify_against_oracle,
    verify_epoch_equivalence,
)
from repro.sim.churn import ChurnSchedule, apply_churn_epoch, random_churn_schedule
from repro.workloads import random_biconnected_graph, uniform_all_pairs


#: Candidate graphs drawn per input.  A fixed number of draws keeps
#: set-up work the same for every seed, and choosing among them keeps
#: the network's size (and so the program's work) nearly seed-free.
GRAPH_CANDIDATES = 16


def route_work(graph) -> int:
    """A proxy for the routing work on ``graph``: over every node, its
    degree times the summed hop counts of its least-cost paths.

    Table rows flow over every link, and a node's table grows with the
    hops of its paths (one avoiding entry per transit node), so this
    tracks the kernel's ingested rows (r = 0.96 over 11 seeds of
    churn-32, 0.92 of faithful-64).  Plain Dijkstra on transit costs;
    the program's routing engine is left cold.
    """
    costs = graph.costs
    total = 0
    for source in graph.nodes:
        best = {source: 0.0}
        hops = {}
        heap = [(0.0, 0, source)]
        while heap:
            dist, hop, node = heapq.heappop(heap)
            if node in hops:
                continue
            hops[node] = hop
            onward = dist + (costs[node] if node != source else 0.0)
            for nxt in graph.neighbors(node):
                if nxt not in hops and onward < best.get(nxt, math.inf):
                    best[nxt] = onward
                    heapq.heappush(heap, (onward, hop + 1, nxt))
        total += graph.degree(source) * sum(hops.values())
    return total


def sparse_graph(size: int, rng: random.Random, level_work: bool = False):
    """An AS-like sparse biconnected graph (expected extra degree 4).

    Of the candidates, keeps the one whose edge count is closest to the
    expected count or, with ``level_work``, the one whose
    :func:`route_work` is closest to the candidates' median.
    """
    prob = 4.0 / (size - 1)
    candidates = [
        random_biconnected_graph(size, rng, extra_edge_prob=prob)
        for _ in range(GRAPH_CANDIDATES)
    ]
    if level_work:
        scores = [route_work(graph) for graph in candidates]
        target = median(scores)
    else:
        scores = [len(graph.edges) for graph in candidates]
        target = size + (size * (size - 1) / 2 - size) * prob
    best = min(range(len(candidates)), key=lambda i: abs(scores[i] - target))
    return candidates[best]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _mirror_disagreements(nodes) -> Set:
    """Principals whose replayed digests differ at some live mirror."""
    bad = set()
    own: Dict = {}
    for node in nodes.values():
        for principal, mirror in node.mirrors.items():
            if mirror.comp is None:
                continue
            if principal not in own:
                comp = nodes[principal].comp
                own[principal] = (comp.routing_digest(), comp.pricing_digest())
            if (mirror.routing_digest(), mirror.pricing_digest()) != own[principal]:
                bad.add(principal)
    return bad


def _network_kernel_stats(nodes) -> KernelStats:
    """Principal kernels plus privately replaying mirrors (not the pool)."""
    stats = KernelStats()
    for node in nodes.values():
        if node.comp is not None:
            stats.merge(node.comp.stats)
        for mirror in node.mirrors.values():
            private = mirror.private_kernel_stats()
            if private is not None:
                stats.merge(private)
    return stats


def _kernel_counters(total: KernelStats, sim_metrics, sim_time) -> Dict:
    return {
        "kernel.rows_ingested": total.rows_ingested,
        "kernel.route_relaxations": total.route_relaxations,
        "kernel.route_rescans": total.route_rescans,
        "kernel.avoid_rescans": total.avoid_rescans,
        "mirror.shared_hits": total.shared_hits,
        "mirror.forks": total.forks,
        "mirror.seed_mismatches": total.seed_mismatches,
        "sim.checker_computations": sim_metrics["total_checker_computations"],
        "sim.events": sim_metrics["events_processed"],
        "sim.messages": sim_metrics["total_messages"],
        "sim.payload_units": sim_metrics["total_payload_units"],
        "sim.uncoalesced_copy_sends": sim_metrics["uncoalesced_copy_sends"],
        "sim.sim_time": sim_time,
    }


#: Every workload reports every counter; a layer it bypasses reads 0.
COUNTERS = (
    "kernel.rows_ingested",
    "kernel.route_relaxations",
    "kernel.route_rescans",
    "kernel.avoid_rescans",
    "mirror.shared_hits",
    "mirror.forks",
    "mirror.seed_mismatches",
    "sim.checker_computations",
    "sim.events",
    "sim.messages",
    "sim.payload_units",
    "sim.uncoalesced_copy_sends",
    "sim.sim_time",
    "bank.flows_settled",
    "bank.flow_groups",
    "bank.transfer_records",
    "settlement.obligations",
    "settlement.net_transfers",
    "settlement.net_payouts",
    "engine.dijkstra_runs",
    "engine.partial_runs",
    "churn.reconvergence_events",
)


def _all_counters(counts: Dict) -> Dict:
    return {name: counts.get(name, 0) for name in COUNTERS}


def _engine_counters(graphs) -> Dict:
    engines = [engine_for(graph) for graph in graphs]
    return {
        "engine.dijkstra_runs": sum(e.runs for e in engines),
        "engine.partial_runs": sum(e.partial_runs for e in engines),
    }


class Workload:
    """Defaults shared by the workloads."""

    def timings(self, outputs) -> Dict:
        """Per-epoch wall times (zero for workloads without epochs)."""
        return {"churn.epoch_median_s": 0.0, "churn.epoch_max_s": 0.0}


# ----------------------------------------------------------------------
# faithful-64: the whole faithful mechanism on one network
# ----------------------------------------------------------------------


@dataclass
class FaithfulInputs:
    graph: object
    traffic: Dict


@dataclass
class FaithfulOutputs:
    protocol: FaithfulFPSSProtocol
    result: object


class FaithfulRun(Workload):
    """Construction, BANK1/BANK2 checkpoints, execution and settlement."""

    name = "faithful-64"
    size = 64
    setup_samples = 12

    def setup(self, seed: int) -> FaithfulInputs:
        graph = sparse_graph(self.size, random.Random(seed), level_work=True)
        return FaithfulInputs(graph, uniform_all_pairs(graph))

    def operations(self, inputs: FaithfulInputs) -> int:
        return len(inputs.traffic)

    def run(self, inputs: FaithfulInputs, aside) -> FaithfulOutputs:
        protocol = FaithfulFPSSProtocol(inputs.graph, inputs.traffic)
        return FaithfulOutputs(protocol, protocol.run())

    def verify(self, inputs: FaithfulInputs, out: FaithfulOutputs) -> int:
        """Failed flows: every flow when a network-wide check fails,
        otherwise the flows that touch a node with wrong economics."""
        result, nodes, graph = out.result, out.protocol.nodes, inputs.graph
        every = len(inputs.traffic)
        if not result.progressed or result.detection.restarts:
            return every
        if result.detection.all_flags or collect_construction_flags(nodes):
            return every
        if _mirror_disagreements(nodes):
            return every
        try:
            verify_against_oracle(graph, nodes, check_prices=True)
            verify_epoch_equivalence(graph, nodes)
        except ConvergenceError:
            return every
        economics = economics_under_traffic(graph, graph, inputs.traffic)
        wrong = {
            node
            for node, econ in economics.items()
            if not _close(result.received[node], econ.received)
            or not _close(result.utilities[node], econ.utility)
        }
        if not wrong:
            return 0
        engine = engine_for(graph)
        return sum(
            1
            for source, destination in inputs.traffic
            if wrong.intersection(engine.path(source, destination).path)
        )

    def counters(self, inputs: FaithfulInputs, out: FaithfulOutputs) -> Dict:
        protocol, result = out.protocol, out.result
        total = protocol.mirror_pool.collected_stats()
        total.merge(_network_kernel_stats(protocol.nodes))
        counts = _kernel_counters(total, result.metrics, protocol.bank.now)
        rows = [
            row
            for report in protocol.bank.reports["execution"].values()
            for row in report.get("observations", ())
        ]
        counts.update(
            {
                "bank.flows_settled": len(rows),
                "bank.flow_groups": len(
                    {(o, d, tuple(path)) for o, d, _v, path, _c in rows}
                ),
                "bank.transfer_records": sum(len(row[4]) for row in rows),
            }
        )
        counts.update(_engine_counters([inputs.graph]))
        return _all_counters(counts)


# ----------------------------------------------------------------------
# churn-32: checked reconvergence epochs with traffic and netting
# ----------------------------------------------------------------------

EPOCHS = 6


@dataclass
class ChurnInputs:
    graph: object
    schedule: object
    traffic: Dict
    #: The expected graph of every epoch (initial graph first).
    graphs: tuple


@dataclass
class ChurnOutputs:
    run: object
    failed_epochs: Set[int]
    #: Kernel work of principals and private mirrors, all epochs.
    network_stats: KernelStats
    epoch_seconds: List[float] = field(default_factory=list)


class ChurnRun(Workload):
    """A fully mirrored network through seeded reconvergence epochs."""

    name = "churn-32"
    size = 32
    setup_samples = 12

    def setup(self, seed: int) -> ChurnInputs:
        rng = random.Random(seed)
        graph = sparse_graph(self.size, rng, level_work=True)
        # Every epoch changes one cost and one link; links go down and
        # come back up in turn, so the edge count (and with it the
        # work of each reconstruction) stays level across seeds.
        epochs, graphs = [], [graph]
        for epoch in range(EPOCHS):
            link = "link-down" if epoch % 2 == 0 else "link-up"
            current, events = graphs[-1], ()
            for kind in ("cost", link):
                drawn = random_churn_schedule(
                    current, rng, epochs=1, kinds=(kind,),
                    require="biconnected", seed=seed,
                ).epochs[0]
                events += drawn
                current = apply_churn_epoch(current, drawn)
            epochs.append(events)
            graphs.append(current)
        schedule = ChurnSchedule(epochs=tuple(epochs))
        return ChurnInputs(graph, schedule, uniform_all_pairs(graph), tuple(graphs))

    def operations(self, inputs: ChurnInputs) -> int:
        return len(inputs.graphs)

    def _check_epoch(self, epoch, graph, nodes, out: ChurnOutputs) -> None:
        try:
            verify_epoch_equivalence(graph, nodes)
        except ConvergenceError:
            out.failed_epochs.add(epoch)
        if _mirror_disagreements(nodes):
            out.failed_epochs.add(epoch)
        # Principal kernels are rebuilt every epoch: read them now.
        out.network_stats.merge(_network_kernel_stats(nodes))

    def run(self, inputs: ChurnInputs, aside) -> ChurnOutputs:
        out = ChurnOutputs(None, set(), KernelStats())
        mark = [perf_counter()]

        def on_epoch_start(epoch, nodes):
            out.epoch_seconds.append(perf_counter() - mark[0])
            with aside():
                self._check_epoch(epoch - 1, inputs.graphs[epoch - 1], nodes, out)
            mark[0] = perf_counter()

        out.run = run_checked_churn(
            inputs.graph,
            inputs.schedule,
            traffic=inputs.traffic,
            verify=False,
            on_epoch_start=on_epoch_start,
        )
        out.epoch_seconds.append(perf_counter() - mark[0])
        return out

    def verify(self, inputs: ChurnInputs, out: ChurnOutputs) -> int:
        """Failed epoch fixed points (all of them if sharing was refused)."""
        run = out.run
        last = len(inputs.graphs) - 1
        self._check_epoch(last, inputs.graphs[last], run.nodes, out)
        if run.seed_mismatches:
            return len(inputs.graphs)
        reports = [run.initial] + run.epochs
        for report in reports:
            if report.flags or report.unroutable_flows:
                out.failed_epochs.add(report.epoch)
        return len(out.failed_epochs)

    def counters(self, inputs: ChurnInputs, out: ChurnOutputs) -> Dict:
        run = out.run
        total = run.kernel_stats()
        total.merge(out.network_stats)
        counts = _kernel_counters(
            total, run.simulator.metrics.summary(), run.simulator.now
        )
        reports = [run.initial] + run.epochs
        counts.update(
            {
                "bank.flows_settled": sum(r.routed_flows for r in reports),
                "bank.flow_groups": sum(r.routed_flows for r in reports),
                "bank.transfer_records": sum(
                    r.per_flow_transfers for r in reports
                ),
                "settlement.obligations": len(run.ledger.trace),
                "settlement.net_transfers": len(run.ledger.transfers),
                "settlement.net_payouts": sum(r.net_payouts for r in reports),
                "churn.reconvergence_events": sum(
                    r.phase1_events + r.phase2_events for r in run.epochs
                ),
            }
        )
        counts.update(_engine_counters(inputs.graphs))
        return _all_counters(counts)

    def timings(self, out: ChurnOutputs) -> Dict:
        return {
            "churn.epoch_median_s": median(out.epoch_seconds),
            "churn.epoch_max_s": max(out.epoch_seconds),
        }


# ----------------------------------------------------------------------
# settle-256: one netted settlement of synthesized execution reports
# ----------------------------------------------------------------------

REPEATS = 4


@dataclass
class SettleInputs:
    graph: object
    reports: Dict
    node_ids: tuple
    declared: Dict
    rows: int


@dataclass
class SettleOutputs:
    bank: BankNode
    netted: object


class SettleRun(Workload):
    """The batched bank alone: no simulator, kernel or mirrors."""

    name = "settle-256"
    size = 256
    setup_samples = 3

    def setup(self, seed: int) -> SettleInputs:
        graph = sparse_graph(self.size, random.Random(seed))
        traffic = uniform_all_pairs(graph)
        reports = synthesize_execution_reports(graph, traffic, repeats=REPEATS)
        node_ids = tuple(sorted(graph.nodes, key=repr))
        declared = {node: graph.cost(node) for node in node_ids}
        return SettleInputs(graph, reports, node_ids, declared, REPEATS * len(traffic))

    def operations(self, inputs: SettleInputs) -> int:
        return inputs.rows

    def run(self, inputs: SettleInputs, aside) -> SettleOutputs:
        bank = BankNode()
        bank.reports["execution"] = inputs.reports
        netted = bank.settle_netted(inputs.node_ids, inputs.declared)
        return SettleOutputs(bank, netted)

    def verify(self, inputs: SettleInputs, out: SettleOutputs) -> int:
        """Failed flows: every flow when a settlement-wide check fails."""
        netted = out.netted
        if netted.flags:
            return inputs.rows
        records, flags = out.bank.settle_per_flow(inputs.node_ids, inputs.declared)
        if records != netted.records or flags != netted.flags:
            return inputs.rows
        per_flow = net_positions(netted.per_flow_transfers, nodes=inputs.node_ids)
        batched = net_positions(netted.transfers, nodes=inputs.node_ids)
        if per_flow != batched:
            return inputs.rows
        if abs(math.fsum(batched.values())) > 1e-6:
            return inputs.rows
        return inputs.rows - min(inputs.rows, netted.flows_settled)

    def counters(self, inputs: SettleInputs, out: SettleOutputs) -> Dict:
        netted = out.netted
        counts = {
            "bank.flows_settled": netted.flows_settled,
            "bank.flow_groups": netted.flow_groups,
            "bank.transfer_records": netted.transfer_records,
            "settlement.obligations": len(netted.ledger.trace),
            "settlement.net_transfers": len(netted.transfers),
            "settlement.net_payouts": netted.net_payouts,
        }
        counts.update(_engine_counters([inputs.graph]))
        return _all_counters(counts)


WORKLOADS = {w.name: w for w in (FaithfulRun(), ChurnRun(), SettleRun())}

