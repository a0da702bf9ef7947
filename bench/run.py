"""Benchmark of the prnn-abc command line, one workload per invocation.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all --seed <n> --seconds <s>

Run from a checkout of the repository; the program is imported from its
`src` directory.  The seed makes the workload's inputs; a fresh worker
process then runs the operations for the given seconds and checks every
output.  The last line printed is one JSON object: with --trace 0 it holds
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced
pass.  The exit code is 0 only when every output check passed.  `all` runs
each workload in turn, each in its own process, and prints their metric lines.
See README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 3  # before the worker, and as many again after it
WORKER_TIMEOUT_S = 150.0
PROBE_TIMEOUT_S = 30.0

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "run_ms_p90": "ms",
    "realtime_factor": "sim-s/host-s",
    "peak_rss_mb": "MB",
}


def _spawn(argv: list[str], timeout: float) -> str:
    """Run a child to completion (killed and reaped on timeout); return its stdout."""
    child = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    if child.returncode != 0:
        raise RuntimeError(f"{argv[1:3]} exited {child.returncode}:\n{child.stderr[-2000:]}")
    return child.stdout


def setup_seconds(config: str | None, probes: int, warm: bool) -> list[float]:
    """Fresh-process times from start to the first operation being ready."""
    argv = [sys.executable, str(BENCH / "worker.py"), "probe", "", str(SRC)]
    if config:
        argv.append(config)
    times = []
    for i in range(probes + warm):
        argv[3] = repr(time.monotonic())
        value = float(_spawn(argv, PROBE_TIMEOUT_S).strip().splitlines()[-1])
        if i or not warm:  # a warm-up probe also writes the bytecode caches
            times.append(value)
    return times


def environment(worker: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "pyyaml": yaml.__version__,
        "mp_start_method": worker["start_method"],
    }


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(raw: dict, setup: list[float], batch_size: int) -> dict[str, float]:
    """Timings of the busy host, which repeat from run to run (README.md)."""
    op_times, passes = raw["op_times"], len(raw["pass_times"])
    # every pass is whole, so op_times[j::batch_size] are one operation's repetitions
    wall = sum(max(op_times[j::batch_size]) for j in range(batch_size))
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "run_ms_p90": 1e3 * percentile(op_times, 90),
        "realtime_factor": raw["sim_seconds"] / passes / wall,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    batch = inputs.generate(workload, seed, work / "inputs")
    (work / "batch.json").write_text(json.dumps(batch), encoding="utf-8")

    setup = [] if trace else setup_seconds(batch["setup_yaml"], SETUP_PROBES, warm=True)
    out = _spawn([sys.executable, str(BENCH / "worker.py"), "run", str(SRC), str(work),
                  repr(seconds), "1" if trace else "0"], WORKER_TIMEOUT_S)
    raw = json.loads(out.strip().splitlines()[-1])
    (work / "raw.json").write_text(json.dumps(raw), encoding="utf-8")
    if not trace:
        setup += setup_seconds(batch["setup_yaml"], SETUP_PROBES, warm=False)

    print("env " + json.dumps(environment(raw)))
    if trace:
        metrics = raw["layers"]
    else:
        figures = end_to_end(raw, setup, len(batch["ops"]))
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in figures.items()}
    for name, m in metrics.items():
        print(f"{workload:26s} {name:32s} {m['value']:14.6g} {m['unit']}")
    if not trace:  # printed, not a benchmark metric: it swings with the host
        p50 = 1e3 * statistics.median(raw["op_times"])
        print(f"{workload:26s} {'run_ms_p50':32s} {p50:14.6g} ms")
    print(f"{workload:26s} {'fail_frac':32s} {raw['failed'] / raw['attempted']:14.6g} ratio "
          f"({raw['failed']} of {raw['attempted']} operations; {raw['ops']} timed "
          f"in {len(raw['pass_times'])} passes)")
    for problem in raw["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = raw["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, printing its metric lines."""
    status = 0
    for workload in inputs.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", repr(seconds), "--trace", "1" if trace else "0"],
            capture_output=True, text=True)
        sys.stderr.write(child.stderr)
        print("\n".join(child.stdout.strip().splitlines()[:-1]))
        status = max(status, 1 if child.returncode else 0)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "prnn_abc" / "cli.py").is_file():
        print(f"error: no prnn_abc sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
