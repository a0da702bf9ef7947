"""Closed-loop simulation: plant, QP assembly, network optimizer, estimator.

Each control period the loop (1) reads the state and forms backstepping
errors, (2) updates the recursive estimator and assembles the QP
coefficients (nominal or adaptive), (3) relaxes the projection network over
the period with frozen coefficients, and (4) applies the projected control
to the plant through a train of RK4 sub-steps.  The exact backstepping
feedback (`run_exact_baseline`) runs in the same loop and differs only in
how u is chosen: in closed form, without estimator or network, aborting
where B(x) vanishes.
Traces carry everything the Lyapunov monitors need, so stability claims are
checked on logged data.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import plant, prnn, qp, rls
from .backstepping import (
    ReferenceSignal,
    error_coords,
    exact_feedback,
    ideal_v2_dot,
    lyapunov_v2,
    reference_at,
)
from .config import Scenario, apply_grid_point
from .plant import IntegrationBlowupError, PendulumParams, PlantState

PRNN_RESIDUAL_SETTLED = 1e-6  # threshold for the time-to-residual summary column


def default_scenario() -> Scenario:
    """Bundled stabilization scenario: blend the angle from 0.1 rad to upright."""
    return Scenario(
        reference=ReferenceSignal(kind="smoothstep", start=0.1, setpoint=0.0, ramp_time=2.0)
    )


def sinusoid_scenario(amplitude: float = 0.5, frequency: float = 0.5) -> Scenario:
    """Tracking scenario rich enough to excite the estimator."""
    return Scenario(
        initial=PlantState(0.0, 0.0),
        reference=ReferenceSignal(kind="sinusoid", amplitude=amplitude, frequency=frequency),
    )


class TraceRecord(NamedTuple):
    """One logged control step; the fields are the trace file's columns, in order.

    theta1..theta3 are the RLS estimate, NaN when the run is not adaptive.
    """

    t: float
    x1: float
    x2: float
    x1d: float
    S1: float
    S2: float
    u: float
    phi: float
    A: float
    B: float
    P: float
    Q: float
    V2: float
    V2_dot_ideal: float
    prnn_residual: float
    theta1: float
    theta2: float
    theta3: float
    condition_residual: float


@dataclass(frozen=True)
class RunSummary:
    """Scalar figures of a completed (or aborted) run's trace, then the run's flags."""

    settling_time: float        # first t after which |S1| stays < settle_tol; nan if never
    max_abs_s1: float
    control_effort: float       # integral of u^2 dt
    tracking_cost: float        # integral of S1^2 dt
    saturation_fraction: float  # fraction of control steps with u on a bound
    final_theta_error: float    # relative error of the last logged theta; nan if none
    time_to_prnn_residual: float  # first t after which the residual stays < 1e-6; nan if never
    mean_condition_residual: float
    final_v2: float
    aborted: bool
    abort_reason: str
    nonphysical_estimate: bool


_NO_THETA = (math.nan, math.nan, math.nan)


def initial_theta(scenario: Scenario) -> rls.Vector3:
    """Initial estimate: explicit override or nominal perturbed by the seed."""
    if scenario.rls.theta0 is not None:
        return scenario.rls.theta0
    draws = np.random.default_rng(scenario.seed).uniform(-1.0, 1.0, 3).tolist()
    scale = scenario.rls.theta0_perturbation
    return tuple(t * (1.0 + scale * r) for t, r in zip(rls.true_theta(scenario.params), draws))


def run(scenario: Scenario) -> tuple[list[TraceRecord], RunSummary]:
    """Simulate the projection-network controller over the full duration.

    Returns the per-control-step trace and a summary.  Aborts (angle leaving
    the controllable half-plane, non-finite force or plant blowup, non-finite
    network state, estimator covariance loss) terminate the loop early and are
    reported through the summary flags rather than raised.
    """
    return _simulate(scenario, exact=False)


def run_exact_baseline(scenario: Scenario) -> tuple[list[TraceRecord], RunSummary]:
    """Simulate the exact unconstrained backstepping feedback.

    Reference trajectory for the optimizer-based controller: u solves the
    stabilizing condition directly, without bounds or optimization, so the
    logged V2 must decay at the ideal rate.  Aborts when B(x) degenerates.
    The scenario's `adaptive` flag is ignored: the law uses the true model.
    """
    return _simulate(scenario, exact=True)


def _simulate(scenario: Scenario, exact: bool) -> tuple[list[TraceRecord], RunSummary]:
    """The closed loop shared by both control laws; `exact` selects how u is chosen."""
    sc = scenario
    timing = sc.timing
    period = timing.control_period
    adaptive = sc.adaptive and not exact
    # fixed for the run: read once here, not once per period
    params, gains, weights, bounds = sc.params, sc.gains, sc.weights, sc.bounds
    reference, prnn_cfg, plant_dt = sc.reference, sc.prnn, timing.plant_dt
    r_weight, warmup_steps = weights.R, sc.rls.warmup_steps
    state = sc.initial
    phi = 0.0  # warm-started network state, carried across periods; 0 under the exact law
    records: list[TraceRecord] = []
    aborted = False
    reason = ""
    nonphysical = False

    rls_state = rls.initial_state(initial_theta(sc), sc.rls.m0_scale) if adaptive else None
    model: PendulumParams | None = None  # the controller's estimated plant; None: nominal terms
    prev: tuple[PlantState, float] | None = None  # state and applied u, one period ago
    # the disturbance at every RK4 stage of the run, in one pass before the
    # loop; one row per plant sub-step, 24 bytes each unless d is constant
    try:
        starts = np.arange(timing.control_steps) * period
        stages = plant.stage_disturbance(sc.disturbance, starts, plant_dt, timing.substeps)
    except MemoryError:  # a valid duration too long to sample ahead aborts before its start
        aborted, stages, n = True, (), timing.control_steps * timing.substeps
        reason = f"disturbance of {n} plant sub-steps does not fit in memory at t=0.000000"

    for k, rows in enumerate(stages):
        t = k * period
        if not state.controllable():  # the state is finite: plant.step checks each sub-step
            aborted, reason = True, f"|x1| >= pi/2 at t={t:.6f} (x1={state.x1:.4f} rad)"
            break

        try:
            refs = reference_at(reference, t)
            e = error_coords(state, refs, gains)
            a = plant.drift_term(params, state)
            b = plant.gain_term(params, state)
            if exact and abs(b) < 1e-9:
                aborted, reason = True, f"input gain B ~ 0 at t={t:.6f}; exact feedback undefined"
                break

            if adaptive:
                if prev is not None:
                    sample = rls.sample(*prev, state, period, params.g, sc.rls.excitation_gate)
                    if sample is not None:
                        rls_state = rls.update(rls_state, *sample)
                if k >= warmup_steps:
                    try:
                        model = rls.extract_physical(rls_state.theta_hat, params.g)
                    except rls.NotYetIdentifiableError:
                        pass  # keep the last model
                    else:
                        nonphysical = nonphysical or model is None
            if model is not None:
                coeffs = rls.adaptive_coefficients(
                    model, state, e, refs[2], gains, weights, bounds
                )
            else:  # not adaptive, warming up, or the estimate is not physical
                coeffs = qp.assemble(a, b, e, refs[2], gains, weights, bounds)

            if exact:
                u = exact_feedback(a, b, refs[2], e, gains)
                residual = 0.0
            else:
                relaxed = prnn.relax(phi, coeffs, prnn_cfg, period)
                phi = relaxed.phi
                # final safety clamp: the actuator constraint holds even mid-transient
                u = prnn.project(relaxed.u, bounds)
                residual = relaxed.residual

            theta = rls_state.theta_hat if adaptive else _NO_THETA
            records.append(
                TraceRecord(
                    t, state.x1, state.x2, refs[0], e.s1, e.s2, u, phi, a, b,
                    coeffs.P, coeffs.Q, lyapunov_v2(e), ideal_v2_dot(e, gains), residual,
                    *theta, r_weight / coeffs.Q,
                )
            )

            prev = (state, u)
            state = plant.step(params, state, u, t, plant_dt, rows.tolist())
        except IntegrationBlowupError as err:
            aborted, reason = True, str(err)
            break
        except (FloatingPointError, prnn.IntegrationDivergedError) as err:
            # the estimator covariance lost definiteness, or the network state diverged
            aborted, reason = True, f"{err} at t={t:.6f}"
            break
        except ArithmeticError as err:  # e.g. x2**2 overflowing at an extreme finite state
            aborted, reason = True, f"{type(err).__name__} {err} at t={t:.6f}"
            break
        except MemoryError:  # e.g. the rows of a period with millions of sub-steps
            aborted, n = True, timing.substeps
            reason = f"period of {n} plant sub-steps does not fit in memory at t={t:.6f}"
            break

    return records, _summarize(records, sc, aborted, reason, nonphysical)


def holds_below_from(values: np.ndarray, threshold: float, times: np.ndarray) -> float:
    """First time after which |values| stays below threshold; nan if never."""
    below = np.abs(values) < threshold
    if not below[-1]:
        return math.nan
    above = np.flatnonzero(~below)
    if above.size == 0:
        return float(times[0])
    return float(times[above[-1] + 1])


@np.errstate(over="ignore")  # an overflowing metric is inf, which is its value
def _summarize(
    records: list[TraceRecord],
    scenario: Scenario,
    aborted: bool,
    reason: str,
    nonphysical: bool,
) -> RunSummary:
    flags = {"aborted": aborted, "abort_reason": reason, "nonphysical_estimate": nonphysical}
    if not records:  # no trace, no figures
        figures = {f.name: math.nan for f in fields(RunSummary) if f.name not in flags}
        return RunSummary(**figures, **flags)
    period = scenario.timing.control_period
    t = np.array([r.t for r in records])
    s1 = np.array([r.S1 for r in records])
    u = np.array([r.u for r in records])
    res = np.array([r.prnn_residual for r in records])
    cond = np.array([r.condition_residual for r in records])
    lo, hi = scenario.bounds
    on_bound = (u <= lo + 1e-12 * (1.0 + abs(lo))) | (u >= hi - 1e-12 * (1.0 + abs(hi)))

    last = records[-1]
    theta_err = math.nan  # unless the trace logs an estimate: only adaptive runs do
    if not math.isnan(last.theta1):
        theta, truth = (last.theta1, last.theta2, last.theta3), rls.true_theta(scenario.params)
        # math.hypot, not np.linalg.norm: no BLAS call, so no kernel-dependent bits
        theta_err = math.hypot(*(a - b for a, b in zip(theta, truth))) / math.hypot(*truth)

    return RunSummary(
        settling_time=holds_below_from(s1, scenario.settle_tol, t),
        max_abs_s1=float(np.max(np.abs(s1))),
        control_effort=float(np.sum(u**2) * period),
        tracking_cost=float(np.sum(s1**2) * period),
        saturation_fraction=float(np.mean(on_bound)),
        final_theta_error=theta_err,
        time_to_prnn_residual=holds_below_from(res, PRNN_RESIDUAL_SETTLED, t),
        mean_condition_residual=float(np.mean(cond)),
        final_v2=last.V2,
        **flags,
    )


@dataclass(frozen=True)
class Violation:
    """A control step whose V2 growth exceeds what the network state allows."""

    index: int
    t: float
    v2_rate: float  # finite-difference dV2/dt over the step
    allowed: float  # predicted rate plus tolerance


def lyapunov_monitor(trace: list[TraceRecord]) -> list[Violation]:
    """Check logged V2 decay against the closed-loop prediction.

    The predicted rate at step k is the ideal -c1*S1^2 - c2*S2^2 plus the
    network correction S2*B*phi/Q; a violation is a step whose finite-
    difference V2 rate exceeds prediction + tol, where tol is 10*dt + 1e-6
    with dt the record spacing.
    """
    if len(trace) < 2:
        return []
    dt = trace[1].t - trace[0].t
    tol = 10.0 * dt + 1e-6
    out = []
    for k in range(len(trace) - 1):
        r = trace[k]
        fd = (trace[k + 1].V2 - r.V2) / dt
        predicted = r.V2_dot_ideal + r.S2 * r.B * r.phi / r.Q
        if fd > predicted + tol:
            out.append(Violation(index=k, t=r.t, v2_rate=fd, allowed=predicted + tol))
    return out


@dataclass(frozen=True)
class SweepResult:
    coords: dict[str, float]
    summary: RunSummary | None
    error: str = ""


def _run_cell(scenario: Scenario) -> tuple[RunSummary | None, str]:
    try:
        _, summary = run(scenario)
        return summary, ""
    except Exception as err:  # per-cell failures must not kill the sweep
        return None, f"{type(err).__name__}: {err}"


def sweep(
    base: Scenario, grid: dict[str, list[float]], max_workers: int = 1
) -> list[SweepResult]:
    """Run one simulation per grid cell; results come back in grid order.

    Cells are independent and may run in parallel (max_workers > 1); a
    failing cell is recorded with its error string and the sweep continues.
    """
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise ValueError("sweep grid must name at least one parameter with values")
    keys = list(grid)
    prepared: list[tuple[dict, Scenario | None, str]] = []
    for combo in itertools.product(*grid.values()):
        coords = dict(zip(keys, combo))
        try:
            prepared.append((coords, apply_grid_point(base, coords), ""))
        except Exception as err:
            prepared.append((coords, None, f"{type(err).__name__}: {err}"))

    runnable = [sc for _, sc, _ in prepared if sc is not None]
    if max_workers > 1 and len(runnable) > 1:
        # imported here: only a parallel sweep loads the pool's modules
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all of its workers at the first submit, so never ask
        # for more than there are cells
        with ProcessPoolExecutor(max_workers=min(max_workers, len(runnable))) as pool:
            outcomes = iter(list(pool.map(_run_cell, runnable)))
    else:
        outcomes = map(_run_cell, runnable)
    return [
        SweepResult(coords, None, err) if sc is None else SweepResult(coords, *next(outcomes))
        for coords, sc, err in prepared
    ]
