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
from functools import reduce
from operator import add
from typing import NamedTuple, Sequence

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


# numpy's SeedSequence (bit_generator.pyx) and PCG64 (pcg64.h) constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875   # entropy mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED   # output hashing
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hash32(value: int, hash_const: int, mult: int) -> tuple[int, int]:
    # SeedSequence's hashmix: the hashed value and the advanced constant
    value ^= hash_const
    hash_const = (hash_const * mult) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix32(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


class UniformStream:
    """numpy's `default_rng(seed)` uniform draws, bit for bit, in pure Python.

    numpy's default generator is PCG64 (XSL-RR 128/64) seeded through
    SeedSequence; computing it here keeps `numpy.random`, several MB of
    resident memory, out of every process: adaptive runs draw theta0 from
    it, and `verify` its random QPs and points.
    """

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int) -> None:
        # SeedSequence(seed): the seed's 32-bit words, low first, mixed into a pool of 4
        words = [seed & _MASK32]
        while seed := seed >> 32:
            words.append(seed & _MASK32)
        hash_const = _INIT_A
        pool = []
        for i in range(4):
            value, hash_const = _hash32(words[i] if i < len(words) else 0, hash_const, _MULT_A)
            pool.append(value)
        for i_src in range(4):
            for i_dst in range(4):
                if i_src != i_dst:
                    value, hash_const = _hash32(pool[i_src], hash_const, _MULT_A)
                    pool[i_dst] = _mix32(pool[i_dst], value)
        for word in words[4:]:
            for i_dst in range(4):
                value, hash_const = _hash32(word, hash_const, _MULT_A)
                pool[i_dst] = _mix32(pool[i_dst], value)
        # generate_state(4, uint64): eight hashed pool words, paired low word first
        hash_const = _INIT_B
        state32 = []
        for i in range(8):
            value, hash_const = _hash32(pool[i % 4], hash_const, _MULT_B)
            state32.append(value)
        w0, w1, w2, w3 = (state32[i] | state32[i + 1] << 32 for i in range(0, 8, 2))
        # PCG64 srandom_r with initstate = w0:w1 and initseq = w2:w3
        self._inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        self._state = ((self._inc + (w0 << 64 | w1)) * _PCG64_MULT + self._inc) & _MASK128

    def uniform(self, low: float, high: float) -> float:
        """The next `Generator.uniform(low, high)`: low + (high - low) * next_double."""
        state = self._state = (self._state * _PCG64_MULT + self._inc) & _MASK128
        # XSL-RR output, then its top 53 bits as a double in [0, 1)
        x = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        return low + (high - low) * ((x >> 11) * 2.0**-53)


def initial_theta(scenario: Scenario) -> rls.Vector3:
    """Initial estimate: explicit override or nominal perturbed by the seed.

    The perturbation draws are numpy `default_rng(seed)`'s first three
    uniform(-1, 1) doubles, drawn from `UniformStream`.
    """
    if scenario.rls.theta0 is not None:
        return scenario.rls.theta0
    stream = UniformStream(scenario.seed)
    scale = scenario.rls.theta0_perturbation
    return tuple(
        t * (1.0 + scale * stream.uniform(-1.0, 1.0)) for t in rls.true_theta(scenario.params)
    )


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
    # loop; one list of rows per period, a shared one unless d varies in time
    periods = timing.control_steps
    try:
        stages = iter(
            plant.stage_disturbance(sc.disturbance, 0.0, plant_dt, timing.substeps, periods, period)
        )
    except MemoryError:  # a valid duration too long to sample ahead aborts before its start
        aborted, periods, n = True, 0, timing.control_steps * timing.substeps
        reason = f"disturbance of {n} plant sub-steps does not fit in memory at t=0.000000"

    for k in range(periods):
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
            state = plant.step(params, state, u, t, plant_dt, next(stages))
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


def holds_below_from(values: Sequence[float], threshold: float, times: Sequence[float]) -> float:
    """First time after which |values| stays below threshold; nan if never."""
    for i in reversed(range(len(values))):
        if not abs(values[i]) < threshold:  # a NaN is never below
            return times[i + 1] if i + 1 < len(values) else math.nan
    return times[0]


def _pairwise_sum(values: Sequence[float], lo: int, n: int) -> float:
    # numpy's pairwise_sum for float64, step for step, so that a summary sum
    # has np.sum's bits: a plain loop below 8 items, eight interleaved
    # accumulators up to 128, and above that two halves split at a multiple of 8;
    # reduce(add), not sum(), which compensates float sums from Python 3.12
    if n < 8:
        return reduce(add, values[lo : lo + n], 0.0)
    if n <= 128:
        end = lo + n - n % 8
        r = [reduce(add, values[lo + j : end : 8]) for j in range(8)]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[end : lo + n], res)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, half) + _pairwise_sum(values, lo + half, n - half)


def _sum(values: Sequence[float]) -> float:
    """`float(np.sum(values))` for a list of floats, bit for bit."""
    return 0.0 + _pairwise_sum(values, 0, len(values))


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
    t = [r.t for r in records]
    s1 = [r.S1 for r in records]
    u = [r.u for r in records]
    res = [r.prnn_residual for r in records]
    cond = [r.condition_residual for r in records]
    lo, hi = scenario.bounds
    on_lo, on_hi = lo + 1e-12 * (1.0 + abs(lo)), hi - 1e-12 * (1.0 + abs(hi))
    on_bound = sum(1 for v in u if v <= on_lo or v >= on_hi)

    last = records[-1]
    theta_err = math.nan  # unless the trace logs an estimate: only adaptive runs do
    if not math.isnan(last.theta1):
        theta, truth = (last.theta1, last.theta2, last.theta3), rls.true_theta(scenario.params)
        theta_err = math.hypot(*(a - b for a, b in zip(theta, truth))) / math.hypot(*truth)

    return RunSummary(
        settling_time=holds_below_from(s1, scenario.settle_tol, t),
        max_abs_s1=math.nan if any(map(math.isnan, s1)) else max(map(abs, s1)),
        # products, not **2: a square that overflows is inf, which is its value
        control_effort=_sum([v * v for v in u]) * period,
        tracking_cost=_sum([v * v for v in s1]) * period,
        saturation_fraction=on_bound / len(u),
        final_theta_error=theta_err,
        time_to_prnn_residual=holds_below_from(res, PRNN_RESIDUAL_SETTLED, t),
        mean_condition_residual=_sum(cond) / len(cond),
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
