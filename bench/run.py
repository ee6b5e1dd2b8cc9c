"""Benchmark of the tamari library: one workload per run, metrics by name.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``workloads.py``): ``draw_small``, ``draw_large``, ``sweep``
and ``inspect``.  Each run starts fresh worker processes that import the
library from ``src/`` of this checkout; the load is a closed loop, one
caller on one thread.  With ``--trace 0`` the run reports the end-to-end
metrics: throughput, median and tail op latency, set-up time (the median
of several set-ups, each in its own process), peak resident memory and
the share of ops whose output passed its check.  With ``--trace 1`` it
reports the per-layer self times of a traced half-run, the tracing
overhead against an untraced half-run on the same inputs, and writes the
spans to ``bench/out/``.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("draw_small", "draw_large", "sweep", "inspect")

#: Set-ups measured per untraced run; one of them is the measuring process.
SETUPS = 5

#: Headroom on top of ``--seconds`` for one worker, which must finish its
#: pass, its checks and, when traced, write its spans.
WORKER_SLACK_S = 120


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict[str, str]:
    """Name to unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {metric["name"]: metric["unit"] for metric in spec()[kind]}


def _worker(workload: str, seed: int, seconds: float, trace: int, setup_only=False) -> dict:
    cmd = [
        sys.executable, str(BENCH / "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        cmd + ["--spawned-ns", str(spawned)],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=seconds + WORKER_SLACK_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; print its lines and return its result."""
    print(f"workload {workload} seed={seed} seconds={seconds} trace={trace}"
          " loop=closed callers=1 threads=1")
    if trace:
        result = _worker(workload, seed, seconds, 1)
        units = metric_units("per_layer")
        unknown = set(result["metrics"]) - set(units)
        if unknown:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        # a layer this workload never calls spent no time in it
        result["metrics"] = {name: result["metrics"].get(name, 0.0) for name in units}
    else:
        setups = [_worker(workload, seed, seconds, 0, setup_only=True)["setup_s"]
                  for _ in range(SETUPS - 1)]
        result = _worker(workload, seed, seconds, 0)
        setups.append(result["metrics"]["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["lines"].append(f"setup_s median of {SETUPS} set-ups: "
                               + " ".join(f"{s:.4f}" for s in setups))
        units = metric_units("end_to_end")
        result["metrics"] = {name: result["metrics"][name] for name in units}
    for line in result["lines"]:
        print(line)
    attempted, failed = result["attempted"], result["failed"]
    print(f"digest sha256={result['digest']} over the first {result['digest_ops']} ops")
    print(f"fail_ratio {failed / attempted} ({failed} of {attempted} ops)")
    for name, value in result["metrics"].items():
        print(f"{name} {value} {units[name]}")
    result["correct"] = failed == 0 and result.get("digest_match", True)
    result["units"] = units
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tamari" / "__init__.py").is_file():
        print(f"error: the library is missing: no {ROOT / 'src' / 'tamari'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    print(f"machine python={platform.python_version()} nproc={os.cpu_count()}"
          f" loadavg_start={' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"machine loadavg_end={' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    prefix = len(names) > 1
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{workload}.{name}" if prefix else name): {"value": value, "unit": r["units"][name]}
            for workload, r in results.items()
            for name, value in r["metrics"].items()
        },
    }
    print(json.dumps(summary, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
