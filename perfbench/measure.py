"""Measure one workload in this interpreter and print one JSON result.

Started by ``run.py`` in a fresh interpreter with ``PYTHONHASHSEED``
fixed and ``src`` on the path; not meant to be run by hand.

A run is a sequence of cycles; each cycle sets up, runs and verifies
once, with ``gc.collect()`` before every timed section.  Cycles repeat
until ``--seconds`` have passed (at least two).  ``run_s`` and
``verify_s`` are each the fastest cycle's; extra set-up samples are
taken between the first cycles, and ``setup_s`` is their median over
the whole run.  The end-to-end times are read at a fixed reference
host speed by the ``speed.SpeedProbe`` sampling this thread during the
run.  Peak RSS is read right after the first run section, before any
verification.  With ``--trace 1`` the probe is off and the run makes
exactly two cycles: the first untraced, the second traced, so the pair
gives the tracing overhead, and the traced cycle gives the per-layer
split.

Exact work counters are read after every cycle.  They must be
identical across cycles, across invocations on the same seed and the
same code (kept under ``.perfbench_out/counts``), and between traced
and untraced cycles; any difference marks the result incorrect.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
from contextlib import contextmanager, nullcontext
from statistics import median
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Stop starting cycles once this much wall time is spent, so that a
#: slow host still ends well inside the three-minute run limit.
HARD_BUDGET_S = 130.0
MIN_CYCLES = 2
#: Traced self times plus unattributed time must match section walls.
SPLIT_TOLERANCE = 0.05


def _require_checkout_source() -> None:
    """Fail unless ``repro`` is imported from this checkout's ``src``."""
    import repro

    source = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(repro.__file__).startswith(source):
        raise SystemExit(f"repro imported from {repro.__file__}, not {source}")


def _source_digest() -> str:
    """Digest of the program and benchmark sources (keys stored counts)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


class WallClock:
    """Reads a timed interval as its raw wall time."""

    @staticmethod
    def seconds(start: float, end: float) -> float:
        return end - start


class Aside:
    """Times checks that must run inside the program call (hooks)."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.intervals = []

    @contextmanager
    def __call__(self):
        section = self.tracer.section("verify") if self.tracer else nullcontext()
        with section:
            started = perf_counter()
            try:
                yield
            finally:
                self.intervals.append((started, perf_counter()))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setup(workload, seed: int) -> tuple:
    """The interval of one extra set-up sample."""
    gc.collect()
    started = perf_counter()
    workload.setup(seed)
    return started, perf_counter()


def run_cycle(workload, seed: int, tracer, first: bool, own_mb: float) -> dict:
    """Set up, run and verify once.

    Returns the timed intervals (read into seconds once the run has
    ended), failures and counters.  ``own_mb`` of resident memory held
    by the benchmark itself is taken out of the peak RSS.
    """
    section = tracer.section if tracer is not None else (lambda _name: nullcontext())
    # Clocks are read inside each section span, so the traced split
    # and the wall time cover the same interval.
    gc.collect()
    with section("setup"):
        started = perf_counter()
        inputs = workload.setup(seed)
        setup = (started, perf_counter())

    aside = Aside(tracer)
    gc.collect()
    with section("run"):
        started = perf_counter()
        outputs = workload.run(inputs, aside)
        run = (started, perf_counter())
    rss = _peak_rss_mb() - own_mb if first else None

    gc.collect()
    with section("verify"):
        started = perf_counter()
        failed = workload.verify(inputs, outputs)
        verify = (started, perf_counter())

    return {
        "setup": setup,
        "run": run,
        "verify": verify,
        "aside": aside.intervals,
        "peak_rss_mb": rss,
        "attempted": workload.operations(inputs),
        "failed": failed,
        "counters": workload.counters(inputs, outputs),
        "timings": workload.timings(outputs),
    }


def section_seconds(cycle: dict, clock) -> dict:
    """A cycle's set-up, run and verify seconds under ``clock``.

    Checks run inside the program call (``aside``) move from run to
    verify.
    """
    aside = sum(clock.seconds(a, b) for a, b in cycle["aside"])
    return {
        "setup_s": clock.seconds(*cycle["setup"]),
        "run_s": clock.seconds(*cycle["run"]) - aside,
        "verify_s": clock.seconds(*cycle["verify"]) + aside,
    }


def _stored_counts_agree(name: str, seed: int, counters: dict) -> bool:
    """Compare with, or record, the counts of earlier runs of this code."""
    folder = os.path.join(OUT_DIR, "counts")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{name}-seed{seed}-{_source_digest()}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            return json.load(handle) == counters
    scratch = path + f".{os.getpid()}.tmp"
    with open(scratch, "w", encoding="utf-8") as handle:
        json.dump(counters, handle, sort_keys=True)
    os.replace(scratch, path)
    return True


def _layer_metrics(tracer, traced: dict, untraced: dict) -> dict:
    """Per-layer self seconds by section, trace quality, call counts."""
    from tracer import LAYERS, SECTION_LAYER, SECTIONS

    split = tracer.split()
    self_ns, calls = split["self_ns"], split["calls"]
    metrics = {}
    walls = {s: traced[f"{s}_s"] for s in SECTIONS}
    worst_gap = 0.0
    for layer in LAYERS + ("unattributed",):
        key_layer = SECTION_LAYER if layer == "unattributed" else layer
        total = 0.0
        for sec in SECTIONS:
            seconds = self_ns.get((sec, key_layer), 0) / 1e9
            metrics[f"{layer}.{sec}_self_s"] = seconds
            total += seconds
        metrics[f"{layer}.self_s"] = total
    for sec in SECTIONS:
        attributed = sum(
            ns for (s, _layer), ns in self_ns.items() if s == sec
        ) / 1e9
        worst_gap = max(worst_gap, abs(attributed - walls[sec]) / walls[sec])
    traced_wall = sum(walls.values())
    untraced_wall = sum(untraced[f"{s}_s"] for s in SECTIONS)
    metrics["trace.unattributed_frac"] = metrics["unattributed.self_s"] / traced_wall
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    metrics["trace.split_gap_frac"] = worst_gap
    metrics["trace.spans"] = split["spans"]
    metrics["crypto.signatures"] = calls.get(("run", "SigningAuthority.sign"), 0)
    metrics["crypto.digests"] = calls.get(("run", "stable_hash"), 0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    _require_checkout_source()
    from repro.obs import BUS
    from speed import SpeedProbe
    from tracer import Tracer
    from workloads import WORKLOADS

    if BUS.enabled:
        raise SystemExit("the telemetry bus must be off while measuring")
    workload = WORKLOADS[args.workload]

    cycles = []
    extra_setups = []
    tracer = None
    probe = None if args.trace else SpeedProbe()
    own_mb = 0.0 if probe is None else probe.footprint_mb()
    started = perf_counter()
    if probe is not None:
        probe.start()
    try:
        while True:
            if args.trace and len(cycles) == 1:
                tracer = Tracer()
                tracer.install()
            try:
                cycles.append(
                    run_cycle(workload, args.seed, tracer, not cycles, own_mb)
                )
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if not args.trace and len(cycles) <= MIN_CYCLES:
                # Spread the extra set-up samples over the run, so set-up
                # time is read across the same host-speed window as the run.
                wanted = workload.setup_samples - MIN_CYCLES
                share = -(-wanted * len(cycles) // MIN_CYCLES) - len(extra_setups)
                extra_setups.extend(
                    time_setup(workload, args.seed) for _ in range(share)
                )
            elapsed = perf_counter() - started
            if args.trace:
                done = len(cycles) == 2
            else:
                done = (
                    len(cycles) >= MIN_CYCLES and elapsed >= args.seconds
                ) or elapsed + elapsed / len(cycles) > HARD_BUDGET_S
            if done:
                break
    finally:
        if probe is not None:
            probe.stop()

    clock = WallClock if probe is None else probe
    timed = [section_seconds(c, clock) for c in cycles]
    walls = [section_seconds(c, WallClock) for c in cycles]
    setup_intervals = [c["setup"] for c in cycles] + extra_setups

    first = cycles[0]
    counters = first["counters"]
    consistent = all(c["counters"] == counters for c in cycles)
    consistent = _stored_counts_agree(workload.name, args.seed, counters) and consistent
    attempted = sum(c["attempted"] for c in cycles)
    failed = sum(c["failed"] for c in cycles)

    if args.trace:
        metrics_raw = dict(counters)
        metrics_raw.update(first["timings"])
        metrics_raw.update(_layer_metrics(tracer, walls[1], walls[0]))
        metrics_raw["error_rate"] = failed / attempted
        split_ok = metrics_raw["trace.split_gap_frac"] <= SPLIT_TOLERANCE
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(
            os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}.jsonl.gz")
        )
        host = {}
    else:
        split_ok = True
        metrics_raw = {
            "setup_s": median(clock.seconds(a, b) for a, b in setup_intervals),
            # A disturbance the probe misses only slows a cycle down.
            "run_s": min(t["run_s"] for t in timed),
            "verify_s": min(t["verify_s"] for t in timed),
            "peak_rss_mb": first["peak_rss_mb"],
            "error_rate": failed / attempted,
        }
        host = probe.summary()
        host["wall_setup_s"] = median(b - a for a, b in setup_intervals)
        host["wall_run_s"] = median(w["run_s"] for w in walls)
        host["wall_verify_s"] = median(w["verify_s"] for w in walls)

    print(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "cycles": len(cycles),
                "setup_samples": len(setup_intervals),
                "counters_consistent": consistent,
                "split_ok": split_ok,
                "correct": failed == 0 and consistent and split_ok,
                "attempted": attempted,
                "failed": failed,
                "cycle_run_s": [t["run_s"] for t in timed],
                "cycle_verify_s": [t["verify_s"] for t in timed],
                "host": host,
                "values": metrics_raw,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
