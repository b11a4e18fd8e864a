"""Repo benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload faithful-64 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, table

Each workload runs in its own fresh, single-threaded interpreter
(``measure.py``) with ``PYTHONHASHSEED=0`` and the checkout's ``src``
on the path.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics.  A readable table of the same
metrics goes to standard error (to standard output with ``all``).
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MEASURE = os.path.join(ROOT, "perfbench", "measure.py")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
#: A measuring child that has not finished by then is killed.
CHILD_TIMEOUT_S = 170


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in a fresh interpreter; return its raw result."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [
        sys.executable,
        MEASURE,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: no result within {CHILD_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: measuring process exited {done.returncode}")
    return json.loads(lines[-1])


def report(raw: dict, trace: int, spec: dict) -> dict:
    """The result object: the listed metrics of this mode, with units."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    values = raw["values"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise SystemExit(f"{raw['workload']}: no value for {missing}")
    return {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed
        },
    }


def _table(workload: str, seed: int, raw: dict, result: dict) -> str:
    lines = [
        f"{workload} seed {seed}: {raw['cycles']} cycle(s), "
        f"{raw['setup_samples']} setup sample(s), "
        f"{result['failed']}/{result['attempted']} failed, "
        f"counters consistent: {raw['counters_consistent']}, "
        f"correct: {result['correct']}",
        "  run_s by cycle: " + " ".join("%.3f" % v for v in raw["cycle_run_s"]),
        "  verify_s by cycle: " + " ".join("%.3f" % v for v in raw["cycle_verify_s"]),
    ]
    host = raw["host"]
    if host:
        lines.append(
            f"  host: speed {host['speed']:.3f} x reference over "
            f"{host['probes']} probe(s), {100 * host['probe_frac']:.1f}% of the "
            f"time probing; raw wall medians setup {host['wall_setup_s']:.4f} s, "
            f"run {host['wall_run_s']:.3f} s, verify {host['wall_verify_s']:.3f} s"
        )
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    if "error_rate" not in result["metrics"]:
        rate = raw["values"]["error_rate"]
        lines.append(f"  {'error_rate':34s} {rate:>16.6g} fraction")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repo benchmark (see perfbench/README.md)."
    )
    parser.add_argument(
        "--workload", required=True, help="a workload name, or 'all'"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out)",
    )
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    chosen = names if args.workload == "all" else [args.workload]
    if any(name not in names for name in chosen):
        parser.error(f"--workload must be one of {names} or 'all'")

    # A single workload keeps standard output for its JSON result line.
    stream = sys.stdout if args.workload == "all" else sys.stderr
    results = []
    for name in chosen:
        raw = measure(name, args.seed, seconds, args.trace)
        result = report(raw, args.trace, spec)
        print(_table(name, args.seed, raw, result), file=stream, flush=True)
        results.append(result)
    if args.workload == "all":
        return 0 if all(r["correct"] for r in results) else 1
    print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
