#!/usr/bin/env python3
"""Dynamic topology: churn, failures, and reconvergence under traffic.

Reproduces: the recomputation setting of Shneidman & Parkes (PODC'04)
Section 4 — the paper's faithfulness claims are stated for a protocol
that *recomputes* when the network changes, and this example drives
that machinery end to end:

1. a link failure that partitions the network (traffic to the far
   side counted as unroutable, stale routes withdrawn everywhere),
   then heals — with the epoch-equivalence oracle asserting after
   every epoch that the repaired tables are bit-identical to a fresh
   fixed point on the post-event graph;
2. membership churn: a node leaves, a new node joins mid-run, and the
   network reconverges to exactly the fixed point of the reduced /
   grown graph;
3. the checked (faithful) network across epochs: each epoch repairs
   the live kernels and mirrors in place through one re-anchor op per
   replay log, an obedient run raises zero flags, and every checker
   verifies the op (log hits, no forks, no refused seeds).

Run:  python examples/dynamic_churn.py
"""

from repro.analysis import render_table
from repro.faithful.epochs import run_checked_churn
from repro.routing import ASGraph
from repro.routing.dynamic import run_dynamic_fpss
from repro.sim.churn import ChurnEvent, ChurnSchedule
from repro.workloads import uniform_all_pairs


def bridged_graph():
    """Two triangles joined by one bridge; losing it partitions."""
    return ASGraph(
        {"a": 1.0, "b": 2.0, "c": 3.0, "d": 1.0, "e": 2.0, "f": 3.0},
        [
            ("a", "b"), ("b", "c"), ("a", "c"),
            ("d", "e"), ("e", "f"), ("d", "f"),
            ("c", "d"),
        ],
    )


def epoch_rows(run):
    rows = []
    for report in run.epochs:
        rows.append(
            [
                report.epoch,
                "; ".join(e.describe() for e in report.events),
                report.reconvergence_messages,
                report.routed_flows,
                report.unroutable_flows,
                round(report.availability, 3),
                round(report.payments_total, 2),
            ]
        )
    return rows


def main():
    # 1. Partition and heal: every epoch is oracle-verified in place.
    schedule = ChurnSchedule(
        epochs=(
            (ChurnEvent(kind="link-down", link=("c", "d")),),
            (ChurnEvent(kind="link-up", link=("c", "d")),),
            (ChurnEvent(kind="cost", node="c", cost=9.0),),
        )
    )
    run = run_dynamic_fpss(
        bridged_graph(), schedule, traffic=lambda g: uniform_all_pairs(g)
    )
    print(
        render_table(
            ["epoch", "events", "reconv msgs", "routed", "unroutable",
             "availability", "payments"],
            epoch_rows(run),
            title="Partition, heal, reprice (epoch-equivalence verified)",
        )
    )
    print(
        f"message amplification vs initial construction: "
        f"{run.message_amplification:.3f}\n"
    )

    # 2. Membership churn: leave then join, reconverging exactly.
    membership = ChurnSchedule(
        epochs=(
            (ChurnEvent(kind="leave", node="f"),),
            (ChurnEvent(kind="join", node="g", cost=1.5,
                        links=(("g", "a"), ("g", "e"))),),
        )
    )
    run2 = run_dynamic_fpss(
        bridged_graph(), membership, traffic=lambda g: uniform_all_pairs(g)
    )
    print(
        render_table(
            ["epoch", "events", "reconv msgs", "routed", "unroutable",
             "availability", "payments"],
            epoch_rows(run2),
            title="Membership churn (leave, then join)",
        )
    )
    survivors = sorted(run2.graph.nodes)
    print(f"final membership: {survivors}\n")

    # 3. Faithful epochs: the live network re-anchors in place, and
    # every checker verifies each epoch's re-anchor op.
    from repro.routing import figure1_graph

    checked_epochs = ChurnSchedule(
        epochs=(
            (ChurnEvent(kind="cost", node="C", cost=2.0),
             ChurnEvent(kind="link-up", link=("A", "C"))),
            (ChurnEvent(kind="cost", node="D", cost=3.0),
             ChurnEvent(kind="link-down", link=("A", "C"))),
        )
    )
    checked = run_checked_churn(figure1_graph(), checked_epochs)
    reports = (checked.initial, *checked.epochs)
    stats = checked.kernel_stats()
    print("checked epochs, repaired in place (figure 1):")
    print(f"  flags per epoch: {[len(r.flags) for r in reports]}")
    print(f"  messages per epoch: "
          f"{[r.reconvergence_messages for r in reports]}")
    print(f"  shared_hits={stats.shared_hits}, forks={stats.forks}, "
          f"seed_mismatches={checked.seed_mismatches}")


if __name__ == "__main__":
    main()
