"""Nonlinear inverted-pendulum angle dynamics and fixed-step RK4 integration.

The plant is the angle subsystem of a pendulum on a cart: state (x1, x2) =
(angle from upright, angular velocity), one force input u, an additive
disturbance d on the acceleration channel, and output y = x1.  The angular
acceleration splits into a control-free drift A(x) and an input gain B(x),
so that dx2/dt = A(x) + B(x) * u + d.

d is a pure function of (DisturbanceSpec, t).  `stage_disturbance` samples
it ahead of the integration, at every RK4 stage time of a whole run at once,
and `step` integrates the rows it is given without knowing how d is made.
For speed, `step` writes the acceleration out at each of its four RK4
stages, in the exact expression order of `drift_term` and `gain_term`;
tests/test_plant.py checks it bit for bit against textbook RK4 over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class IntegrationBlowupError(RuntimeError):
    """A plant step produced a non-finite state."""


@dataclass(frozen=True)
class PendulumParams:
    """Physical constants of the pendulum on a cart.

    g: gravitational acceleration (m/s^2), m_c: cart mass (kg),
    m: pendulum mass (kg), l: length to the pendulum center of mass (m).
    """

    g: float = 9.8
    m_c: float = 1.0
    m: float = 0.1
    l: float = 0.5

    def __post_init__(self):
        for name in ("g", "m_c", "m", "l"):
            if not getattr(self, name) > 0:
                raise ValueError(f"params.{name} must be > 0, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class PlantState:
    x1: float  # pendulum angle from upright (rad)
    x2: float  # angular velocity (rad/s)

    def controllable(self) -> bool:
        """True while |x1| < pi/2, where the input gain B keeps its sign."""
        return abs(self.x1) < math.pi / 2


_DISTURBANCE_KINDS = ("none", "constant", "sinusoid", "bounded-uniform-random")
_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class DisturbanceSpec:
    """Acceleration disturbance d, in rad/s^2 equivalent units."""

    kind: str = "none"
    amplitude: float = 0.0
    frequency: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _DISTURBANCE_KINDS:
            raise ValueError(
                f"disturbance.kind must be one of {', '.join(_DISTURBANCE_KINDS)}, "
                f"got {self.kind!r}"
            )
        if not 0 <= self.amplitude < math.inf:
            raise ValueError(
                f"disturbance.amplitude must be finite and >= 0, got {self.amplitude!r}"
            )
        if self.kind == "sinusoid" and not self.frequency > 0:
            raise ValueError(f"disturbance.frequency must be > 0, got {self.frequency!r}")
        # a finite frequency whose angular frequency overflows would make
        # math.sin meet an infinite argument
        if not math.isfinite(2.0 * math.pi * self.frequency):
            raise ValueError(
                f"disturbance.frequency must keep 2*pi*frequency finite, got {self.frequency!r}"
            )
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"disturbance.seed must be in [0, 2**64), got {self.seed}")


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on a uint64 array: a bijection with full avalanche.

    Array products wrap silently; numpy scalar ones would warn on overflow.
    """
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _random_values(spec: DisturbanceSpec, times: np.ndarray) -> np.ndarray:
    # bounded-uniform-random: a counter-based stream, hashing (seed, bit
    # pattern of t) so that RK4 stage sampling is reproducible and independent
    # of call order.  Both mixes are bijections, so at one t two seeds never
    # share a 64-bit hash.  Broadcasting against the 1-element seed array
    # keeps a 0-d `times` an array, so its products wrap without a warning.
    seed_hash = _mix64(np.array([(spec.seed + _GOLDEN_GAMMA) & _MASK64], dtype=np.uint64))
    z = _mix64(times.view(np.uint64) ^ seed_hash)
    # top 53 bits -> [-1, 1) exactly; scaling by the amplitude is monotone
    unit = (z >> 11).astype(np.float64) * 2.0**-52 - 1.0
    return (spec.amplitude * unit).reshape(times.shape)


def disturbance_value(spec: DisturbanceSpec, t: float) -> float:
    """Sample the disturbance at time t; a pure function of (spec, t)."""
    return float(disturbance_at(spec, t))


def disturbance_at(spec: DisturbanceSpec, times: np.ndarray | float) -> np.ndarray:
    """The disturbance of spec at every entry of `times`, an array or a number.

    The one statement of each kind.  The random stream is hashed in one
    vectorized pass; the sinusoid runs math.sin, which np.sin need not match
    bit for bit, on times turned into Python floats 4096 at a time.
    """
    times = np.asarray(times, dtype=np.float64)
    if spec.kind == "none":
        return np.zeros(times.shape)
    if spec.kind == "constant":
        return np.full(times.shape, spec.amplitude)
    if spec.kind == "sinusoid":
        a, w, flat = spec.amplitude, 2.0 * math.pi * spec.frequency, times.ravel()
        chunks = (flat[i : i + 4096].tolist() for i in range(0, flat.size, 4096))
        values = (a * math.sin(w * t) for chunk in chunks for t in chunk)
        return np.fromiter(values, np.float64, times.size).reshape(times.shape)
    return _random_values(spec, times)


def stage_times(t, dt: float, steps: int) -> np.ndarray:
    """RK4 stage times of `steps` sub-steps of size dt from t.

    t is a start time or an array of them.  The result has shape
    (*shape(t), steps, 3): for sub-step i, t_i = t + i*dt, t_i + dt/2 and
    t_i + dt, each rounded as one IEEE operation.
    """
    ti = np.asarray(t, dtype=np.float64)[..., None] + np.arange(steps) * dt
    return np.stack((ti, ti + 0.5 * dt, ti + dt), axis=-1)


def stage_disturbance(spec: DisturbanceSpec, t, dt: float, steps: int) -> np.ndarray:
    """The disturbance rows that `step` reads for `steps` sub-steps of size dt from t.

    Shape (*shape(t), steps, 3): d at the stage times of `stage_times`.  A
    time-invariant kind is a zero-stride view of one value and builds no grid.
    """
    if spec.kind in ("none", "constant"):
        return np.broadcast_to(disturbance_at(spec, 0.0), (*np.shape(t), steps, 3))
    return disturbance_at(spec, stage_times(t, dt, steps))


def _denominator(params: PendulumParams, x1: float) -> float:
    # bounded away from 0 for any physical parameters with m < 3(m_c+m)/4
    m_sum = params.m_c + params.m
    return params.l * (4.0 / 3.0 - params.m * math.cos(x1) ** 2 / m_sum)


def drift_term(params: PendulumParams, state: PlantState) -> float:
    """Control-free part A(x) of the angular acceleration."""
    m_sum = params.m_c + params.m
    num = (
        params.g * math.sin(state.x1)
        - params.m * params.l * state.x2**2 * math.cos(state.x1) * math.sin(state.x1) / m_sum
    )
    return num / _denominator(params, state.x1)


def gain_term(params: PendulumParams, state: PlantState) -> float:
    """Input gain B(x) multiplying the force u in the acceleration."""
    m_sum = params.m_c + params.m
    return (math.cos(state.x1) / m_sum) / _denominator(params, state.x1)


def step(
    params: PendulumParams,
    state: PlantState,
    u: float,
    t: float,
    dt: float,
    stages: Sequence[Sequence[float]],
) -> PlantState:
    """Advance the plant by one classic RK4 step of size dt per row of `stages`.

    u is held constant over all steps (zero-order hold).  Step i starts at
    t_i = t + i*dt and takes the disturbance from row i of `stages`, its
    values at t_i, t_i + dt/2 (shared by k2 and k3) and t_i + dt, as
    `stage_disturbance(spec, t, dt, steps).tolist()` gives them.  Raises
    IntegrationBlowupError, naming the time, for a non-finite u and as soon
    as a step leaves the finite range.  The stage acceleration is written
    out four times; `test_step_stage_copies_match_textbook_rk4` pins them.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    if not stages:
        raise ValueError("steps must be >= 1, got no rows in stages")
    if not math.isfinite(u):
        raise IntegrationBlowupError(f"non-finite force u={u!r} at t={t:.6f}")
    sin, cos, isfinite = math.sin, math.cos, math.isfinite
    g, m, l = params.g, params.m, params.l
    m_sum = params.m_c + m
    ml = m * l
    x1, x2 = state.x1, state.x2
    h, sixth = 0.5 * dt, dt / 6.0
    for i, (d_start, d_mid, d_end) in enumerate(stages):
        try:
            # each stage is drift_term + gain_term * u + d in their exact
            # expression order, the same in all four copies; k1x is x2
            s, c = sin(x1), cos(x1)
            den = l * (4.0 / 3.0 - m * c**2 / m_sum)
            k1v = (g * s - ml * x2**2 * c * s / m_sum) / den + (c / m_sum) / den * u + d_start
            k2x = x2 + h * k1v
            s, c = sin(y := x1 + h * x2), cos(y)
            den = l * (4.0 / 3.0 - m * c**2 / m_sum)
            k2v = (g * s - ml * k2x**2 * c * s / m_sum) / den + (c / m_sum) / den * u + d_mid
            k3x = x2 + h * k2v
            s, c = sin(y := x1 + h * k2x), cos(y)
            den = l * (4.0 / 3.0 - m * c**2 / m_sum)
            k3v = (g * s - ml * k3x**2 * c * s / m_sum) / den + (c / m_sum) / den * u + d_mid
            k4x = x2 + dt * k3v
            s, c = sin(y := x1 + dt * k3x), cos(y)
            den = l * (4.0 / 3.0 - m * c**2 / m_sum)
            k4v = (g * s - ml * k4x**2 * c * s / m_sum) / den + (c / m_sum) / den * u + d_end
        except (OverflowError, ValueError) as err:
            # stage values left the representable range: x2**2 overflows, or
            # sin/cos meet an infinite angle
            raise IntegrationBlowupError(
                f"plant state became non-finite at t={t + i * dt:.6f}"
            ) from err
        x1, x2 = (
            x1 + sixth * (x2 + 2.0 * k2x + 2.0 * k3x + k4x),
            x2 + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
        )
        if not (isfinite(x1) and isfinite(x2)):
            raise IntegrationBlowupError(
                f"plant state became non-finite at t={t + i * dt + dt:.6f}"
            )
    return PlantState(x1, x2)
