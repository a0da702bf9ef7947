"""Output checks; an operation that fails any of them counts as failed.

Every operation's exit codes are checked first, then what it wrote:
traces against the actuator bounds and the closed-form QP oracle, run
summaries against the workload's acceptance conditions, and each verify
suite's report.
"""

from __future__ import annotations

import json
from pathlib import Path

from prnn_abc import qp, sim, traceio, verify
from prnn_abc.config import load_scenario

from inputs import THETA_ERROR_TOL

ORACLE_TOL = 1e-6  # |u - clamp(-P/Q)| on rows whose network residual is below it


def check(workload: str, op: dict, outcome: dict) -> list[str]:
    """Problems with one operation's outputs; an empty list means it passed."""
    if outcome["error"]:
        return [outcome["error"]]
    problems = [
        f"`{call['argv'][0]}` exited {call['rc']}: {call['stderr'].strip()[-200:]}"
        for call in outcome["calls"]
        if call["rc"] != 0
    ]
    if problems:
        return problems
    if workload == "stabilize-nominal":
        return _check_simulation(op, outcome, stabilize=True)
    if workload == "track-adaptive-disturbed":
        return _check_simulation(op, outcome, stabilize=False)
    return _check_verify(op, outcome)


def _check_simulation(op: dict, outcome: dict, stabilize: bool) -> list[str]:
    problems = []
    out = Path(outcome["out"])
    if not outcome["calls"][1]["stdout"].rstrip().endswith("consistent"):
        problems.append("validate did not report the trace consistent")
    scenario = load_scenario(op["argv"][0][2])
    records = traceio.read_trace(out / "trace.csv")
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    if summary["aborted"]:
        problems.append(f"run aborted: {summary['abort_reason']}")
    if len(records) != scenario.timing.control_steps:
        problems.append(f"{len(records)} trace rows, expected {scenario.timing.control_steps}")

    lo, hi = op["bounds"]
    outside = [r.t for r in records if not lo <= r.u <= hi]
    if outside:
        problems.append(f"u outside [{lo}, {hi}] at t={outside[0]:.3f} ({len(outside)} rows)")
    worst = max(
        (abs(r.u - qp.solve_oracle(qp.QpCoefficients(r.P, r.Q, lo, hi)))
         for r in records if r.prnn_residual <= ORACLE_TOL),
        default=0.0,
    )
    if not worst <= ORACLE_TOL:
        problems.append(f"|u - QP oracle| = {worst:.3e} on a converged row")

    if stabilize:
        settled = summary["settling_time"]
        if settled is None or settled > scenario.timing.duration:
            problems.append(f"did not settle within {scenario.timing.duration} s")
        transient = 5.0 / scenario.prnn.vartheta
        late = [v for v in sim.lyapunov_monitor(records) if v.t > transient]
        if late:
            problems.append(f"{len(late)} V2 monitor violations after t={transient:.3f} s")
    else:
        if summary["nonphysical_estimate"]:
            problems.append("nonphysical parameter estimate")
        error = summary["final_theta_error"]
        if error is None or not error < THETA_ERROR_TOL:
            problems.append(f"final_theta_error {error} not under {THETA_ERROR_TOL}")
    return problems


def _check_verify(op: dict, outcome: dict) -> list[str]:
    problems = []
    if op["suite"] not in verify.SUITES:
        problems.append(f"verify has no suite {op['suite']!r}")
    lines = outcome["calls"][0]["stdout"].strip().splitlines()
    if not lines or lines[-1] != "1/1 suites passed":
        problems.append(f"verify --suite {op['suite']} reported {lines[-1] if lines else 'nothing'!r}")
    return problems


def check_batch(workload: str, ops: list[dict]) -> list[str]:
    """Problems with the batch as a whole: verify-all must cover every suite."""
    if workload == "verify-all" and [op["suite"] for op in ops] != list(verify.SUITES):
        return [f"batch runs suites {[op['suite'] for op in ops]}, verify has {list(verify.SUITES)}"]
    return []
