"""Desk-scale verification suites with fixed seeds and pinned tolerances.

Each suite checks one family of claims about the controller against an
independent oracle: the closed-form clamp solution for the network,
min(max(a, lo), hi) for the projection, central finite differences for the
QP gradient, a direct batch solve for the recursive estimator, step-halving
and a 30-digit solution of the plant ODE (`RK4_EXACT_ENDPOINT`) for the
integrator, and logged-trace Lyapunov monitors for the closed loop.  The
CLI `verify` command and the acceptance test module both run these
functions, so there is one source of truth for pass/fail.

A suite's name is its key in `SUITES`, and nowhere else: a `SuiteResult`
carries no name, and `run_suites` returns each result under its key.  A
suite whose closed-loop run aborts is a FAIL whose line names the reason,
`run aborted: <reason>` (`exact baseline aborted: <reason>` for the exact
law); it never raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import permutations

import numpy as np

from . import plant, prnn, qp, rls, sim
from .backstepping import Gains, ReferenceSignal
from .config import Scenario, Timing
from .plant import DisturbanceSpec, PendulumParams, PlantState
from .prnn import PrnnConfig
from .qp import QpCoefficients
# neither is called here, but the benchmark's traced pass wraps verify.regressor
# and verify.true_theta
from .rls import regressor, true_theta  # noqa: F401
from .sim import UniformStream, lyapunov_monitor

ORACLE_QPS = 1000  # random QPs in prnn-oracle
GRADIENT_POINTS = 1000  # random points in gradient
PROJECTION_POINTS = 317  # points in projection: 317 * 316 >= 100,000 ordered pairs
# x(0.5 s) of the plant from (0.1 rad, 0) with no force and no disturbance,
# under the default PendulumParams: mpmath.odefun at 30 digits, rounded to
# the nearest doubles; tests/test_acceptance.py recomputes it
RK4_EXACT_ENDPOINT = (0.3687747266278067, 1.3946608955106017)


@dataclass
class SuiteResult:
    passed: bool
    details: dict[str, float] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def line(self, name: str) -> str:
        status = "PASS" if self.passed else "FAIL"
        extras = ", ".join(f"{k}={v:.3e}" for k, v in self.details.items())
        return f"[{status}] {name}" + (f" ({extras})" if extras else "")


def _aborted(summary: sim.RunSummary, run: str = "run") -> SuiteResult:
    """The FAIL of a suite whose closed-loop run aborted, naming the reason."""
    return SuiteResult(passed=False, lines=[f"{run} aborted: {summary.abort_reason}"])


def _random_box(stream: UniformStream, half_width: float) -> tuple[float, float]:
    """A random interval in [-half_width, half_width], at least 1e-3 wide."""
    lo, hi = sorted((stream.uniform(-half_width, half_width),
                     stream.uniform(-half_width, half_width)))
    if hi - lo < 1e-3:
        hi = lo + 1e-3
    return lo, hi


def _random_qp(stream: UniformStream) -> QpCoefficients:
    q = 10.0 ** stream.uniform(-2.0, 2.0)
    p = stream.uniform(-100.0, 100.0)
    return QpCoefficients(p, q, *_random_box(stream, 10.0))


def suite_prnn_oracle(seed: int = 0) -> SuiteResult:
    """Network equilibrium equals the closed-form QP solution.

    Random frozen coefficients, relaxation to residual 1e-9, comparison
    against clamp(-P/Q) within 1e-6.
    """
    stream = UniformStream(seed)
    cfg = PrnnConfig(vartheta=50.0)
    worst = 0.0
    unconverged = 0
    for _ in range(ORACLE_QPS):
        coeffs = _random_qp(stream)
        phi0 = stream.uniform(-50.0, 50.0)
        result = prnn.relax_until(phi0, coeffs, cfg, tol=1e-9)
        if result.residual > 1e-9:
            unconverged += 1
            continue
        worst = max(worst, abs(result.u - qp.solve_oracle(coeffs)))
    passed = unconverged == 0 and worst < 1e-6
    return SuiteResult(
        passed=passed,
        details={"worst_u_error": worst, "unconverged": float(unconverged)},
        lines=[f"{ORACLE_QPS} random QPs, worst |u - u*| = {worst:.3e} (tolerance 1e-6)"],
    )


def suite_prnn_decay(seed: int = 0) -> SuiteResult:
    """Interior regime: phi decays exponentially at exactly rate vartheta."""
    del seed  # deterministic suite
    coeffs = QpCoefficients(P=0.0, Q=1.0, u_min=-1e9, u_max=1e9)
    worst_rate_err = 0.0
    times = []
    for vartheta in (1.0, 10.0, 100.0):
        h = 0.1 / vartheta
        cfg = PrnnConfig(vartheta=vartheta)
        phi = 1.0
        ts, logs = [0.0], [0.0]
        for k in range(30):  # spans 3/vartheta seconds
            phi = prnn.relax(phi, coeffs, cfg, h).phi
            ts.append((k + 1) * h)
            logs.append(math.log(abs(phi)))
        slope = np.polyfit(ts, logs, 1)[0]
        worst_rate_err = max(worst_rate_err, abs(-slope - vartheta) / vartheta)
        times.append(prnn.relax_until(1.0, coeffs, cfg, tol=1e-6).elapsed)
    monotone = all(t2 < t1 for t1, t2 in zip(times, times[1:]))
    passed = worst_rate_err < 1e-3 and monotone
    return SuiteResult(
        passed=passed,
        details={"worst_rate_error": worst_rate_err, "monotone": float(monotone)},
        lines=[
            f"fitted rate error {worst_rate_err:.3e} (tolerance 1e-3)",
            "time to residual 1e-6: " + ", ".join(f"{t:.3f}s" for t in times),
        ],
    )


def _worst_identity_error(scenario: Scenario) -> tuple[float, sim.RunSummary]:
    """Worst |finite-difference dV2/dt - ideal| over one exact-law run.

    The run's trace is dropped on return, so a caller looping over runs
    holds one trace at a time.
    """
    trace, summary = sim.run_exact_baseline(scenario)
    dt = scenario.timing.control_period
    worst = 0.0
    for k in range(len(trace) - 1):
        fd = (trace[k + 1].V2 - trace[k].V2) / dt
        worst = max(worst, abs(fd - trace[k].V2_dot_ideal))
    return worst, summary


def suite_lyapunov(seed: int = 0) -> SuiteResult:
    """Exact-feedback runs must realize dV2/dt = -c1*S1^2 - c2*S2^2."""
    del seed
    # record every plant step so the finite-difference V2 check is as sharp
    # as the integrator allows
    timing = Timing(plant_dt=0.001, control_period=0.001, duration=3.0)
    cases = []
    for c1, c2 in ((1.0, 1.0), (2.0, 2.0), (3.0, 1.0)):
        for ref, x10 in (
            (ReferenceSignal(kind="constant", setpoint=0.0), 0.1),
            (ReferenceSignal(kind="sinusoid", amplitude=0.1, frequency=0.5), 0.05),
        ):
            cases.append(
                Scenario(
                    initial=PlantState(x10, 0.0),
                    reference=ref,
                    gains=Gains(c1=c1, c2=c2),
                    timing=timing,
                )
            )
    tol = 10.0 * timing.control_period + 1e-6
    worst = 0.0
    for scenario_k in cases:
        error, summary = _worst_identity_error(scenario_k)
        if summary.aborted:
            return _aborted(summary, "exact baseline")
        worst = max(worst, error)
    passed = worst <= tol
    return SuiteResult(
        passed=passed,
        details={"worst_identity_error": worst, "tolerance": tol},
        lines=[
            f"{len(cases)} baseline runs, worst |dV2/dt - ideal| = {worst:.3e} "
            f"(tolerance {tol:.3e})"
        ],
    )


def _late_violations(
    trace: list[sim.TraceRecord], scenario: Scenario
) -> tuple[float, list[sim.Violation]]:
    """The network transient 5/vartheta and the monitor violations after it."""
    transient = 5.0 / scenario.prnn.vartheta
    return transient, [v for v in lyapunov_monitor(trace) if v.t > transient]


def monitor_scenario(scenario: Scenario) -> SuiteResult:
    """Logged-trace Lyapunov monitor for one optimizer run."""
    trace, summary = sim.run(scenario)
    transient, violations = _late_violations(trace, scenario)
    passed = not summary.aborted and not violations
    lines = [f"{len(violations)} monitor violations after t = {transient:.3f}s"]
    if summary.aborted:
        lines.append(f"run aborted: {summary.abort_reason}")
    return SuiteResult(
        passed=passed,
        details={"violations": float(len(violations))},
        lines=lines,
    )


def suite_stabilization(seed: int = 0) -> SuiteResult:
    """Default closed loop: settle below 0.01 rad in 5 s, bounds respected,
    V2 non-increasing after the network transient."""
    del seed
    # the reference is the constant 0, so S1 is x1 bit for bit
    scenario = Scenario(settle_tol=0.01)
    trace, summary = sim.run(scenario)
    if summary.aborted:
        return _aborted(summary)
    u = [r.u for r in trace]
    lo, hi = scenario.bounds
    settled = summary.settling_time  # nan if never, and nan <= 5.0 is False
    within_bounds = all(lo <= v <= hi for v in u)
    max_abs_u = max(map(abs, u))
    transient, violations = _late_violations(trace, scenario)
    passed = settled <= 5.0 and within_bounds and not violations
    return SuiteResult(
        passed=passed,
        details={
            "settling_time": settled,
            "max_abs_u": max_abs_u,
            "monitor_violations": float(len(violations)),
        },
        lines=[
            f"|x1| < {scenario.settle_tol:g} rad from t = {settled:.2f}s; "
            f"max |u| = {max_abs_u:.3f} N; "
            f"{len(violations)} V2 violations after {transient:.2f}s"
        ],
    )


def suite_r_consistency(seed: int = 0) -> SuiteResult:
    """As R -> 0 the network control converges to the exact feedback."""
    del seed
    base = replace(Scenario(), bounds=(-1e6, 1e6))
    # the exact law never reads the weights, so one baseline serves every R
    trace_e, sum_e = sim.run_exact_baseline(base)
    if sum_e.aborted:
        return _aborted(sum_e, "exact baseline")
    diffs = []
    for r_weight in (1.0, 0.1, 0.01, 0.001):
        trace_p, sum_p = sim.run(replace(base, weights=qp.Weights(T=100.0, R=r_weight)))
        if sum_p.aborted:
            return _aborted(sum_p, f"run at R={r_weight}")
        n = min(len(trace_p), len(trace_e))
        diffs.append(
            max(abs(trace_p[k].u - trace_e[k].u) for k in range(n))
        )
    monotone = all(b < a for a, b in zip(diffs, diffs[1:]))
    passed = monotone and diffs[-1] < 1e-2
    return SuiteResult(
        passed=passed,
        details={"final_max_diff": diffs[-1], "monotone": float(monotone)},
        lines=[
            "max |u_prnn - u_exact| per R in {1, 0.1, 0.01, 0.001}: "
            + ", ".join(f"{d:.3e}" for d in diffs)
        ],
    )


def batch_least_squares(pis, ys, theta0, m0_scale: float) -> np.ndarray:
    """Direct information-form solve equivalent to forgetting-free RLS.

    Minimizes ||theta - theta0||^2 / m0_scale + sum (y - Pi.theta)^2 via the
    normal equations; an independent oracle for the recursive path.
    """
    pis = np.asarray(pis, dtype=float)
    ys = np.asarray(ys, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    info = np.eye(3) / m0_scale + pis.T @ pis
    rhs = theta0 / m0_scale + pis.T @ ys
    return np.linalg.solve(info, rhs)


def rls_samples_from_trace(
    trace: list[sim.TraceRecord], scenario: Scenario
) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct the (Pi, y) stream the adaptive loop consumed from its trace."""
    args = (scenario.timing.control_period, scenario.params.g, scenario.rls.excitation_gate)
    samples = [
        rls.sample(PlantState(prev.x1, prev.x2), prev.u, PlantState(cur.x1, cur.x2), *args)
        for prev, cur in zip(trace, trace[1:])
    ]
    kept = [s for s in samples if s is not None]
    return np.asarray([pi for pi, _ in kept]), np.asarray([y for _, y in kept])


def suite_rls_batch(seed: int = 0) -> SuiteResult:
    """Noise-free excited run: estimates reach the true parameter combinations
    and agree with a direct batch solve of the same samples."""
    scenario = replace(sim.sinusoid_scenario(), adaptive=True, seed=seed)
    trace, summary = sim.run(scenario)
    if summary.aborted:
        return _aborted(summary)
    rel_err = summary.final_theta_error
    theta_final = np.array([trace[-1].theta1, trace[-1].theta2, trace[-1].theta3])
    pis, ys = rls_samples_from_trace(trace, scenario)
    theta_batch = batch_least_squares(
        pis, ys, sim.initial_theta(scenario), scenario.rls.m0_scale
    )
    batch_gap = float(np.linalg.norm(theta_final - theta_batch))
    passed = rel_err < 0.01 and batch_gap < 1e-6
    return SuiteResult(
        passed=passed,
        details={"relative_theta_error": rel_err, "batch_gap": batch_gap},
        lines=[
            f"final ||theta - theta_true||/||theta_true|| = {rel_err:.3e} (tolerance 1e-2)",
            f"RLS vs batch least squares gap = {batch_gap:.3e} (tolerance 1e-6)",
        ],
    )


def suite_saturation(seed: int = 0) -> SuiteResult:
    """Tight bounds: control rides the limit, never crosses it, still settles."""
    del seed
    scenario = replace(
        Scenario(),
        initial=PlantState(0.15, 0.0),
        bounds=(-2.0, 2.0),
        timing=Timing(plant_dt=0.001, control_period=0.01, duration=10.0),
        settle_tol=0.02,
    )
    trace, summary = sim.run(scenario)
    if summary.aborted:
        return _aborted(summary)
    lo, hi = scenario.bounds
    within = all(lo <= r.u <= hi for r in trace)
    passed = summary.saturation_fraction > 0.0 and within and summary.settling_time <= 10.0
    return SuiteResult(
        passed=passed,
        details={
            "saturation_fraction": summary.saturation_fraction,
            "settling_time": summary.settling_time,
        },
        lines=[
            f"saturated {summary.saturation_fraction:.1%} of steps, "
            f"|x1| < {scenario.settle_tol:g} rad from t = {summary.settling_time:.2f}s, "
            f"bounds respected: {within}"
        ],
    )


def suite_gradient(seed: int = 0) -> SuiteResult:
    """QP gradient against central finite differences of the cost."""
    stream = UniformStream(seed)
    worst = 0.0
    for _ in range(GRADIENT_POINTS):
        coeffs = _random_qp(stream)
        u = stream.uniform(-10.0, 10.0)
        h = 1e-4 * (1.0 + abs(u))
        fd = (qp.cost(coeffs, u + h) - qp.cost(coeffs, u - h)) / (2.0 * h)
        scale = 1.0 + abs(coeffs.Q * u) + abs(coeffs.P)
        worst = max(worst, abs(fd - qp.gradient(coeffs, u)) / scale)
    passed = worst <= 1e-8
    return SuiteResult(
        passed=passed,
        details={"worst_relative_error": worst},
        lines=[f"{GRADIENT_POINTS} random points, worst relative FD error = {worst:.3e} "
               "(tolerance 1e-8)"],
    )


def suite_rk4_order(seed: int = 0) -> SuiteResult:
    """Endpoint error of the plant integrator shrinks 16x per step halving,
    and the finest run lands within 1e-10 of the exact solution."""
    del seed
    params = PendulumParams()

    def endpoint(dt: float) -> tuple[float, float]:
        (rows,) = plant.stage_disturbance(DisturbanceSpec(), 0.0, dt, round(0.5 / dt))
        state = plant.step(params, PlantState(0.1, 0.0), 0.0, 0.0, dt, rows)
        return state.x1, state.x2

    dts = (0.004, 0.002, 0.001, 0.0005)
    ends = [endpoint(dt) for dt in dts]
    gaps = [
        math.hypot(a[0] - b[0], a[1] - b[1]) for a, b in zip(ends, ends[1:])
    ]
    ratios = [g1 / g2 for g1, g2 in zip(gaps, gaps[1:])]
    ratios_ok = all(12.0 < r < 20.0 for r in ratios)
    exact = RK4_EXACT_ENDPOINT
    ref_gap = math.hypot(ends[-1][0] - exact[0], ends[-1][1] - exact[1])
    passed = ratios_ok and ref_gap < 1e-10
    return SuiteResult(
        passed=passed,
        details={"halving_ratio_min": min(ratios), "reference_gap": ref_gap},
        lines=[
            "error-halving ratios: " + ", ".join(f"{r:.2f}" for r in ratios) + " (expect ~16)",
            f"gap to exact solution = {ref_gap:.3e}",
        ],
    )


def suite_projection(seed: int = 0) -> SuiteResult:
    """prnn.project is the clamp, non-expansive and obtuse-angled.

    The points are the box's edges (lo, hi, the doubles on either side of
    each, the midpoint, -20 and 20) and uniforms on [-20, 20) drawn from the
    stream that drew the box, PROJECTION_POINTS in all; the expansion is
    checked on every ordered pair of distinct points.
    """
    stream = UniformStream(seed)
    lo, hi = box = _random_box(stream, 5.0)
    points = [lo, hi, *(math.nextafter(end, to) for end in box for to in (-math.inf, math.inf)),
              0.5 * (lo + hi), -20.0, 20.0]
    points += [stream.uniform(-20.0, 20.0) for _ in range(PROJECTION_POINTS - len(points))]
    projected = [(a, prnn.project(a, box)) for a in points]
    is_clamp = all(pa == min(max(a, lo), hi) for a, pa in projected)
    # never -0.0 (x - x is +0.0), so the max is the exact worst
    worst_expansion = max(
        abs(pa - pb) - abs(a - b) for (a, pa), (b, pb) in permutations(projected, 2)
    )
    # (PR(a) - s)(a - PR(a)) is affine in s, so its minimum over the box is at lo
    # or hi; + 0.0 turns -0.0 into +0.0: which signed zero a min returns is unspecified
    worst_angle = min((pa - s) * (a - pa) for a, pa in projected for s in box) + 0.0
    passed = is_clamp and worst_expansion <= 0.0 and worst_angle >= -1e-12
    pairs = len(points) * (len(points) - 1)
    return SuiteResult(
        passed=passed,
        details={"worst_expansion": worst_expansion, "worst_obtuse_angle": worst_angle},
        lines=[
            f"{len(points)} points, {pairs} ordered pairs: max(|PR(a)-PR(b)| - |a-b|) = "
            f"{worst_expansion:.3e}, min (PR(a)-s)(a-PR(a)) = {worst_angle:.3e}"
        ] + ([] if is_clamp else ["prnn.project differs from min(max(a, lo), hi)"]),
    )


SUITES = {
    "prnn-oracle": suite_prnn_oracle,
    "prnn-decay": suite_prnn_decay,
    "lyapunov": suite_lyapunov,
    "stabilization": suite_stabilization,
    "r-consistency": suite_r_consistency,
    "rls-batch": suite_rls_batch,
    "saturation": suite_saturation,
    "gradient": suite_gradient,
    "rk4-order": suite_rk4_order,
    "projection": suite_projection,
}


def run_suites(
    names: list[str] | None = None,
    seed: int = 0,
    scenario: Scenario | None = None,
) -> dict[str, SuiteResult]:
    """Run the named suites (all by default), then monitor_scenario(scenario) if given.

    Returns {name: result} in run order; the monitor's result is "lyapunov-monitor".
    """
    selected = names if names else list(SUITES)
    results = {}
    for name in selected:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
        results[name] = SUITES[name](seed=seed)
    if scenario is not None:
        results["lyapunov-monitor"] = monitor_scenario(scenario)
    return results
