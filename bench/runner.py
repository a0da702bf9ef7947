"""Operations, the timed closed loop and the traced pass, run in one process."""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import resource
import shutil
import statistics
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from prnn_abc import cli, sim

import checks
import tracing

# run_ms_p90 needs ten samples beyond it
MIN_OPS = {"stabilize-nominal": 100, "track-adaptive-disturbed": 100}


def execute(op: dict, out: Path) -> dict:
    """Run one operation's command lines through cli.main, capturing output."""
    calls = []
    try:
        for template in op["argv"]:
            argv = [arg.replace("{out}", str(out)) for arg in template]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    rc = cli.main(argv)
                except SystemExit as exit_:  # argparse usage errors
                    rc = exit_.code if isinstance(exit_.code, int) else 2
            calls.append({"argv": argv, "rc": rc, "stdout": stdout.getvalue(),
                          "stderr": stderr.getvalue()})
            if rc != 0:
                break
    except Exception:
        return {"calls": calls, "error": traceback.format_exc(limit=4), "out": str(out)}
    return {"calls": calls, "error": None, "out": str(out)}


@contextlib.contextmanager
def counting_sim_seconds(total: list[float]):
    """Add the simulated seconds of every sim.run / run_exact_baseline to total[0].

    One extra Python call per simulation; far below the timing noise.
    """
    originals = sim.run, sim.run_exact_baseline

    def counted(fn):
        def wrapper(scenario, *args, **kwargs):
            trace, summary = fn(scenario, *args, **kwargs)
            total[0] += len(trace) * scenario.timing.control_period
            return trace, summary
        return wrapper

    sim.run, sim.run_exact_baseline = map(counted, originals)
    try:
        yield
    finally:
        sim.run, sim.run_exact_baseline = originals


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_batch(work: str, seconds: float, trace: bool) -> str:
    work = Path(work)
    batch = json.loads((work / "batch.json").read_text(encoding="utf-8"))
    workload, ops = batch["workload"], batch["ops"]
    out_root = work / "out"
    done: list[tuple[dict, dict]] = []

    def out_dir() -> Path:
        return out_root / f"{len(done):05d}"

    done.append((ops[0], execute(ops[0], out_dir())))  # warm-up, not timed

    # closed loop over the batch, in whole passes, until the run has lasted
    # `seconds` and made its minimum operation count
    op_times: list[float] = []
    pass_times: list[float] = []
    simulated = [0.0]
    min_ops = MIN_OPS.get(workload, 1)
    with counting_sim_seconds(simulated):
        begin = perf_counter()
        while perf_counter() - begin < seconds or len(op_times) < min_ops:
            pass_start = perf_counter()
            for op in ops:
                out = out_dir()
                t0 = perf_counter()
                outcome = execute(op, out)
                op_times.append(perf_counter() - t0)
                done.append((op, outcome))
            pass_times.append(perf_counter() - pass_start)
    rss = peak_rss_mb()

    result = {
        "ops": len(op_times),
        "op_times": op_times,
        "pass_times": pass_times,
        "sim_seconds": simulated[0],
        "peak_rss_mb": rss,
        "numpy": np.__version__,
        "start_method": multiprocessing.get_start_method(),
    }

    if trace:
        recorder = tracing.Recorder()
        pass_start = perf_counter()
        with recorder.installed():
            for i, op in enumerate(ops):
                recorder.current_op = i
                done.append((op, execute(op, out_dir())))
        traced_wall = perf_counter() - pass_start
        recorder.save(work.parent / f"{workload}.spans.npz")
        layers = recorder.layer_metrics(len(ops))
        layers["trace.overhead_s"] = traced_wall - statistics.fmean(pass_times)
        result["layers"] = {k: {"value": v, "unit": tracing.unit(k)} for k, v in layers.items()}

    problems = checks.check_batch(workload, ops)
    for op, outcome in done:
        try:
            found = checks.check(workload, op, outcome)
        except Exception:
            found = [f"output check raised: {traceback.format_exc(limit=3)}"]
        if found:
            problems.append(f"{outcome['out']}: " + "; ".join(found))
    shutil.rmtree(out_root, ignore_errors=True)
    result.update(attempted=len(done), failed=len(problems), problems=problems[:10])
    return json.dumps(result)
