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
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import plant, prnn, qp, rls
from .backstepping import (
    Gains,
    ReferenceSignal,
    error_coords,
    exact_feedback,
    ideal_v2_dot,
    lyapunov_v2,
    reference_at,
)
from .plant import DisturbanceSpec, IntegrationBlowupError, PendulumParams, PlantState
from .prnn import PrnnConfig
from .qp import Weights

PRNN_RESIDUAL_SETTLED = 1e-6  # threshold for the time-to-residual summary column


@dataclass(frozen=True)
class Timing:
    """Loop timing; the control period must tile into whole plant steps."""

    plant_dt: float = 0.001
    control_period: float = 0.01
    duration: float = 5.0

    def __post_init__(self):
        if not 0 < self.plant_dt <= self.control_period:
            raise ValueError("need 0 < plant_dt <= control_period")
        if not self.duration > 0:
            raise ValueError("duration > 0 required")
        ratio = self.control_period / self.plant_dt
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("control_period must be an integer multiple of plant_dt")
        if self.control_steps < 1:
            raise ValueError("duration must round to at least one control period")
        # a step too small to move the clock at the run's end would never
        # finish the run
        end = self.control_steps * self.control_period
        if end + 0.5 * self.plant_dt == end:
            raise ValueError(
                f"timing.plant_dt {self.plant_dt!r} is too small: "
                f"half a step vanishes at the run's end t={end!r}"
            )

    @property
    def substeps(self) -> int:
        return round(self.control_period / self.plant_dt)

    @property
    def control_steps(self) -> int:
        return round(self.duration / self.control_period)


@dataclass(frozen=True)
class RlsOptions:
    """Estimator initialization and gating knobs."""

    theta0_perturbation: float = 0.3
    m0_scale: float = 100.0
    warmup_steps: int = 50
    excitation_gate: float = 1e-8
    theta0: tuple[float, float, float] | None = None  # explicit initial estimate

    def __post_init__(self):
        if self.theta0_perturbation < 0:
            raise ValueError("theta0_perturbation must be >= 0")
        if not self.m0_scale > 0:
            raise ValueError("m0_scale > 0 required")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")


@dataclass(frozen=True)
class Scenario:
    """Complete description of one closed-loop experiment.

    Fields and section fields are declared in scenario-file order and carry
    their file key names, so `config` derives parse and dump from them.
    """

    params: PendulumParams = field(default_factory=PendulumParams)
    initial: PlantState = field(default_factory=lambda: PlantState(0.1, 0.0))
    reference: ReferenceSignal = field(default_factory=ReferenceSignal)
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    gains: Gains = field(default_factory=Gains)
    weights: Weights = field(default_factory=Weights)
    bounds: tuple[float, float] = (-30.0, 30.0)
    timing: Timing = field(default_factory=Timing)
    prnn: PrnnConfig = field(default_factory=PrnnConfig)
    rls: RlsOptions = field(default_factory=RlsOptions)
    adaptive: bool = False
    seed: int = 0
    settle_tol: float = 0.01

    def __post_init__(self):
        if not (math.isfinite(self.initial.x1) and math.isfinite(self.initial.x2)):
            raise ValueError(f"initial state must be finite, got {self.initial}")
        if not self.bounds[0] < self.bounds[1]:
            raise ValueError("bounds must satisfy u_min < u_max")
        if not self.settle_tol > 0:
            raise ValueError("settle_tol > 0 required")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # the sinusoid's phase 2*pi*f*t must stay finite up to the last RK4
        # stage time, which lies below twice the run's length, or math.sin
        # has no value there
        horizon = 2.0 * self.timing.control_steps * self.timing.control_period
        if self.disturbance.kind == "sinusoid" and not math.isfinite(
            2.0 * math.pi * self.disturbance.frequency * horizon
        ):
            raise ValueError(
                f"disturbance.frequency {self.disturbance.frequency!r} makes the sinusoid's "
                f"phase overflow within the run"
            )


BOUND_KEYS = ("u_min", "u_max")  # file keys of the two `bounds` entries
_OPEN_KEYS = ("bounds.u_min", "bounds.u_max")  # +-inf here leaves that side of the box open


def checked_value(path: str, value, like):
    """`value` for the scenario key at `path`, typed like that key's default `like`.

    The one value rule of scenario files and sweep grids; a ValueError names
    the key path.  Numbers must be finite and not NaN, except that the bounds
    may be +-inf.  Integer keys take integral numbers, so a grid's 3.0 is 3.
    """
    if isinstance(like, (bool, str)):
        if not isinstance(value, type(like)):
            want = "true/false" if isinstance(like, bool) else "a string"
            raise ValueError(f"key '{path}' must be {want}, got {value!r}")
        return value
    want = "an integer" if isinstance(like, int) else "a number"
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(like, int) and isinstance(value, float) and not value.is_integer())
    ):
        raise ValueError(f"key '{path}' must be {want}, got {value!r}")
    if isinstance(like, int):
        return int(value)
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"key '{path}' must be finite, got {value!r}") from None
    if math.isnan(number) or (math.isinf(number) and path not in _OPEN_KEYS):
        want = "a number" if path in _OPEN_KEYS else "finite"
        raise ValueError(f"key '{path}' must be {want}, got {number!r}")
    return number


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
    """Scalar metrics of a completed (or aborted) run."""

    settling_time: float        # first t after which |S1| stays < settle_tol; nan if never
    max_abs_s1: float
    control_effort: float       # integral of u^2 dt
    tracking_cost: float        # integral of S1^2 dt
    saturation_fraction: float  # fraction of control steps with u on a bound
    final_theta_error: float    # ||theta_hat - theta_true|| / ||theta_true||; nan if not adaptive
    time_to_prnn_residual: float  # first t after which the residual stays < 1e-6; nan if never
    mean_condition_residual: float
    final_v2: float
    aborted: bool
    abort_reason: str
    nonphysical_estimate: bool


_NO_THETA = (math.nan, math.nan, math.nan)


def initial_theta(scenario: Scenario) -> np.ndarray:
    """Initial estimate: explicit override or nominal perturbed by the seed."""
    if scenario.rls.theta0 is not None:
        return np.asarray(scenario.rls.theta0, dtype=float)
    rng = np.random.default_rng(scenario.seed)
    truth = rls.true_theta(scenario.params)
    return truth * (1.0 + scenario.rls.theta0_perturbation * rng.uniform(-1.0, 1.0, 3))


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
    stages = plant.stage_disturbance(
        sc.disturbance, np.arange(timing.control_steps) * period, timing.plant_dt, timing.substeps
    )

    for k in range(timing.control_steps):
        t = k * period
        if not state.controllable():  # the state is finite: plant.step checks each sub-step
            aborted, reason = True, f"|x1| >= pi/2 at t={t:.6f} (x1={state.x1:.4f} rad)"
            break

        try:
            refs = reference_at(sc.reference, t)
            e = error_coords(state, refs, sc.gains)
            a = plant.drift_term(sc.params, state)
            b = plant.gain_term(sc.params, state)
            if exact and abs(b) < 1e-9:
                aborted, reason = True, f"input gain B ~ 0 at t={t:.6f}; exact feedback undefined"
                break

            if adaptive and prev is not None:
                sample = rls.sample(*prev, state, period, sc.params.g, sc.rls.excitation_gate)
                if sample is not None:
                    rls_state = rls.update(rls_state, *sample)

            if adaptive and k >= sc.rls.warmup_steps:
                try:
                    model = rls.extract_physical(rls_state.theta_hat, sc.params.g)
                except rls.NotYetIdentifiableError:
                    pass  # keep the last model
                else:
                    if model is None:
                        nonphysical = True
                        # static message, so repeated fallbacks deduplicate to one warning
                        warnings.warn(
                            "nonphysical parameter estimate; falling back to nominal parameters"
                        )
            if model is not None:
                coeffs = rls.adaptive_coefficients(
                    model, state, e, refs[2], sc.gains, sc.weights, sc.bounds
                )
            else:  # not adaptive, warming up, or the estimate is not physical
                coeffs = qp.assemble(a, b, e, refs[2], sc.gains, sc.weights, sc.bounds)

            if exact:
                u = exact_feedback(a, b, refs[2], e, sc.gains)
                residual = 0.0
            else:
                relaxed = prnn.relax(phi, coeffs, sc.prnn, period)
                phi = relaxed.phi
                # final safety clamp: the actuator constraint holds even mid-transient
                u = prnn.project(relaxed.u, sc.bounds)
                residual = relaxed.residual

            theta = rls_state.theta_hat.tolist() if adaptive else _NO_THETA
            records.append(
                TraceRecord(
                    t, state.x1, state.x2, refs[0], e.s1, e.s2, u, phi, a, b,
                    coeffs.P, coeffs.Q, lyapunov_v2(e), ideal_v2_dot(e, sc.gains), residual,
                    *theta, sc.weights.R / coeffs.Q,
                )
            )

            prev = (state, u)
            state = plant.step(sc.params, state, u, t, timing.plant_dt, stages[k].tolist())
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

    theta_final = rls_state.theta_hat if adaptive else None
    summary = _summarize(records, sc, aborted, reason, nonphysical, theta_final)
    return records, summary


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
    theta_final: np.ndarray | None,
) -> RunSummary:
    if not records:
        return RunSummary(
            settling_time=math.nan,
            max_abs_s1=math.nan,
            control_effort=math.nan,
            tracking_cost=math.nan,
            saturation_fraction=math.nan,
            final_theta_error=math.nan,
            time_to_prnn_residual=math.nan,
            mean_condition_residual=math.nan,
            final_v2=math.nan,
            aborted=aborted,
            abort_reason=reason,
            nonphysical_estimate=nonphysical,
        )
    period = scenario.timing.control_period
    t = np.array([r.t for r in records])
    s1 = np.array([r.S1 for r in records])
    u = np.array([r.u for r in records])
    res = np.array([r.prnn_residual for r in records])
    cond = np.array([r.condition_residual for r in records])
    lo, hi = scenario.bounds
    on_bound = (u <= lo + 1e-12 * (1.0 + abs(lo))) | (u >= hi - 1e-12 * (1.0 + abs(hi)))

    if theta_final is not None:
        truth = rls.true_theta(scenario.params)
        theta_err = float(np.linalg.norm(theta_final - truth) / np.linalg.norm(truth))
    else:
        theta_err = math.nan

    return RunSummary(
        settling_time=holds_below_from(s1, scenario.settle_tol, t),
        max_abs_s1=float(np.max(np.abs(s1))),
        control_effort=float(np.sum(u**2) * period),
        tracking_cost=float(np.sum(s1**2) * period),
        saturation_fraction=float(np.mean(on_bound)),
        final_theta_error=theta_err,
        time_to_prnn_residual=holds_below_from(res, PRNN_RESIDUAL_SETTLED, t),
        mean_condition_residual=float(np.mean(cond)),
        final_v2=records[-1].V2,
        aborted=aborted,
        abort_reason=reason,
        nonphysical_estimate=nonphysical,
    )


@dataclass(frozen=True)
class Violation:
    """A control step whose V2 growth exceeds what the network state allows."""

    index: int
    t: float
    v2_rate: float  # finite-difference dV2/dt over the step
    allowed: float  # predicted rate plus tolerance


def lyapunov_monitor(trace: list[TraceRecord], tol: float | None = None) -> list[Violation]:
    """Check logged V2 decay against the closed-loop prediction.

    The predicted rate at step k is the ideal -c1*S1^2 - c2*S2^2 plus the
    network correction S2*B*phi/Q; a violation is a step whose finite-
    difference V2 rate exceeds prediction + tol.  Default tol is
    10*dt + 1e-6 with dt the record spacing.
    """
    if len(trace) < 2:
        return []
    dt = trace[1].t - trace[0].t
    if tol is None:
        tol = 10.0 * dt + 1e-6
    out = []
    for k in range(len(trace) - 1):
        r = trace[k]
        fd = (trace[k + 1].V2 - r.V2) / dt
        predicted = r.V2_dot_ideal + r.S2 * r.B * r.phi / r.Q
        if fd > predicted + tol:
            out.append(Violation(index=k, t=r.t, v2_rate=fd, allowed=predicted + tol))
    return out


# sweep axis name -> scenario file key path; `bound` sets -|v| <= u <= |v| at once
GRID_KEYS = {
    "c1": "gains.c1",
    "c2": "gains.c2",
    "T": "weights.T",
    "R": "weights.R",
    "vartheta": "prnn.vartheta",
    "u_min": "bounds.u_min",
    "u_max": "bounds.u_max",
    "duration": "timing.duration",
    "seed": "seed",
}


def apply_grid_point(base: Scenario, coords: dict[str, float]) -> Scenario:
    """`base` with the axes of one sweep cell applied together, so their order does not matter.

    Each value is checked on its own; each section is then rebuilt once, so
    its own checks see the whole cell.
    """
    clash = [key for key in ("u_min", "u_max") if key in coords and "bound" in coords]
    if clash:  # in either order, one of the two axes would silently override the other
        raise ValueError(f"sweep parameters 'bound' and {clash[0]!r} both set bounds.{clash[0]}")
    defaults = Scenario()
    sections: dict[str, dict] = {}  # section ("" for top-level keys) -> {key: value}
    for name, value in coords.items():
        if name == "bound":
            v = abs(checked_value("bounds.u_max", value, 0.0))
            sections["bounds"] = {"u_min": -v, "u_max": v}
        elif name in GRID_KEYS:
            path = GRID_KEYS[name]
            section, _, key = path.rpartition(".")
            node = getattr(defaults, section) if section else defaults
            like = 0.0 if section == "bounds" else getattr(node, key)
            sections.setdefault(section, {})[key] = checked_value(path, value, like)
        else:
            raise ValueError(
                f"unknown sweep parameter {name!r}; supported: {sorted([*GRID_KEYS, 'bound'])}"
            )
    changes = sections.pop("", {})
    for section, values in sections.items():
        if section == "bounds":
            bounds = {**dict(zip(BOUND_KEYS, base.bounds)), **values}
            changes["bounds"] = tuple(bounds[key] for key in BOUND_KEYS)
        else:
            changes[section] = replace(getattr(base, section), **values)
    return replace(base, **changes)


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
