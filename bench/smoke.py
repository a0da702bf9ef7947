"""Smoke test of the benchmark at tiny size.

    python3 bench/smoke.py

Runs one cheap operation of each workload through the same code a timed
run uses, checks its outputs, repeats it as a traced pass and looks at the
per-layer metrics, then shows that the output checks count a corrupted copy
of a trace (one `u` beyond its bound) as a failure, and that the benchmark
refuses to run without the program's sources.  Exits 1 on the first thing
that does not hold.
"""

from __future__ import annotations

import csv
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import runner  # noqa: E402
import tracing  # noqa: E402
from prnn_abc import cli  # noqa: E402

WORK = ROOT / ".bench_work" / "smoke"

# per-layer figures each workload's single operation must show
EXPECT = {
    "stabilize-nominal": {"plant.step.calls": 5000, "rls.update.calls": 0,
                          "prnn.relax_until.calls": 0, "config.load.calls": 1},
    "track-adaptive-disturbed": {"rls.update.calls": (1, None), "plant.step.calls": 1200},
    "verify-all": {"verify.suite.projection.s": (1e-6, None), "plant.step.calls": 0},
}


def require(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)


def _matches(value: float, want) -> bool:
    if isinstance(want, tuple):
        lo, hi = want
        return value >= lo and (hi is None or value <= hi)
    return value == want


def smoke_workload(workload: str) -> dict:
    batch = inputs.generate(workload, 0, WORK / workload / "inputs", smoke=True)
    op = batch["ops"][0]
    outcome = runner.execute(op, WORK / workload / "plain")
    problems = checks.check(workload, op, outcome)
    require(not problems, f"{workload}: {problems}")

    original = cli.main
    recorder = tracing.Recorder()
    with recorder.installed():
        traced = runner.execute(op, WORK / workload / "traced")
    require(cli.main is original, f"{workload}: tracing left cli.main wrapped")
    require(not checks.check(workload, op, traced), f"{workload}: traced run failed its checks")
    layers = recorder.layer_metrics(1)
    for name, want in EXPECT[workload].items():
        require(_matches(layers[name], want), f"{workload}: {name} = {layers[name]}, want {want}")
    recorder.save(WORK / f"{workload}.spans.npz")
    print(f"ok   {workload}: 1 operation checked, traced pass with {len(recorder.start)} spans")
    return {"op": op, "outcome": outcome}


def corrupted_trace_fails(run: dict) -> None:
    op, outcome = run["op"], run["outcome"]
    copy = WORK / "corrupted"
    shutil.copytree(outcome["out"], copy)
    path = copy / "trace.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index("u")
    rows[10][column] = repr(op["bounds"][1] + 1.0)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    problems = checks.check("stabilize-nominal", op, dict(outcome, out=str(copy)))
    require(any("outside" in p for p in problems), f"corrupted trace passed: {problems}")
    print(f"ok   corrupted trace counted as failed: {problems[0]}")


def refuses_without_sources() -> None:
    bare = WORK / "bare"
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    child = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "verify-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    require(child.returncode != 0 and not child.stdout.strip(),
            f"run without sources exited {child.returncode} printing {child.stdout!r}")
    print(f"ok   without sources: exit {child.returncode}, {child.stderr.strip()}")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    runs = {w: smoke_workload(w) for w in inputs.WORKLOADS}
    corrupted_trace_fails(runs["stabilize-nominal"])
    refuses_without_sources()
    shutil.rmtree(WORK, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
