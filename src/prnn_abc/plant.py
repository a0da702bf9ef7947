"""Nonlinear inverted-pendulum angle dynamics and fixed-step RK4 integration.

The plant is the angle subsystem of a pendulum on a cart: state (x1, x2) =
(angle from upright, angular velocity), one force input u, an additive
disturbance d on the acceleration channel, and output y = x1.  The angular
acceleration splits into a control-free drift A(x) and an input gain B(x),
so that dx2/dt = A(x) + B(x) * u + d.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable


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
                raise ValueError(f"PendulumParams.{name} must be strictly positive")


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
_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")


@dataclass(frozen=True)
class DisturbanceSpec:
    """Acceleration disturbance d, in rad/s^2 equivalent units."""

    kind: str = "none"
    amplitude: float = 0.0
    frequency: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _DISTURBANCE_KINDS:
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if self.amplitude < 0:
            raise ValueError("disturbance amplitude must be >= 0")
        if self.kind == "sinusoid" and not self.frequency > 0:
            raise ValueError("sinusoid disturbance needs frequency > 0")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"disturbance.seed must be in [0, 2**64), got {self.seed}")


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijection on 64-bit integers with full avalanche."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _no_disturbance(t: float) -> float:
    return 0.0


def _random_sampler(spec: DisturbanceSpec) -> Callable[[float], float]:
    # bounded-uniform-random: a counter-based stream, hashing (seed, bit
    # pattern of t) so that RK4 stage sampling is reproducible and independent
    # of call order.  Both mixes are bijections, so at one t two seeds never
    # share a 64-bit hash.
    seed_hash = _mix64((spec.seed + _GOLDEN_GAMMA) & _MASK64)
    amplitude, pack, unpack = spec.amplitude, _F64.pack, _U64.unpack

    def random_at(t: float) -> float:
        z = _mix64(seed_hash ^ unpack(pack(t))[0])
        # top 53 bits -> [-1, 1) exactly; scaling by the amplitude is monotone
        return amplitude * ((z >> 11) * 2.0**-52 - 1.0)

    return random_at


def disturbance_sampler(spec: DisturbanceSpec) -> Callable[[float], float]:
    """The disturbance of spec as a pure function of time t.

    What depends on spec alone (the seed half of the hash, the angular
    frequency, the amplitude) is computed once here, not once per sample.
    """
    # constants are bound as default arguments, not closed over: step calls
    # this once per control period, and cell variables would cost that call
    if spec.kind == "none":
        return _no_disturbance
    if spec.kind == "constant":
        return lambda t, d=spec.amplitude: d
    if spec.kind == "sinusoid":
        return lambda t, a=spec.amplitude, w=2.0 * math.pi * spec.frequency: a * math.sin(w * t)
    return _random_sampler(spec)


def disturbance_value(spec: DisturbanceSpec, t: float) -> float:
    """Sample the disturbance at time t; a pure function of (spec, t)."""
    return disturbance_sampler(spec)(t)


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
    disturbance: DisturbanceSpec,
    t: float,
    dt: float,
    steps: int = 1,
) -> PlantState:
    """Advance the plant by `steps` classic RK4 steps of size dt from time t.

    u is held constant over all steps (zero-order hold).  Step i starts at
    t_i = t + i*dt; the disturbance is sampled at its RK4 stage times t_i,
    t_i + dt/2 (shared by k2 and k3) and t_i + dt.  When t_i equals the
    previous step's end time t_(i-1) + dt, that step's end sample is reused,
    so each distinct stage time is sampled once; the time-invariant kinds
    are sampled once per call.  Raises
    IntegrationBlowupError, naming the time, for a non-finite u and as soon as
    a step leaves the finite range.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not math.isfinite(u):
        raise IntegrationBlowupError(f"non-finite force u={u!r} at t={t:.6f}")
    g, m, l = params.g, params.m, params.l
    m_sum = params.m_c + m
    ml = m * l

    def accel(x1: float, x2: float, d: float) -> float:
        # drift_term + gain_term * u + d with their exact expression order, so
        # a step matches textbook RK4 over those terms bit for bit
        s, c = math.sin(x1), math.cos(x1)
        den = l * (4.0 / 3.0 - m * c**2 / m_sum)
        return (g * s - ml * x2**2 * c * s / m_sum) / den + (c / m_sum) / den * u + d

    sample = disturbance_sampler(disturbance)
    time_varying = disturbance.kind not in ("none", "constant")
    d_start = d_mid = d_end = 0.0 if time_varying else sample(t)
    t_end = None  # end time of the previous step
    x1, x2 = state.x1, state.x2
    h = 0.5 * dt
    for i in range(steps):
        ti = t + i * dt
        if time_varying:
            # equal stage times have equal bits here (neither is ever -0.0),
            # so reusing the end sample leaves the stream unchanged
            d_start = d_end if ti == t_end else sample(ti)
            d_mid = sample(ti + h)
            t_end = ti + dt
            d_end = sample(t_end)
        try:
            k1x, k1v = x2, accel(x1, x2, d_start)
            k2x = x2 + h * k1v
            k2v = accel(x1 + h * k1x, k2x, d_mid)
            k3x = x2 + h * k2v
            k3v = accel(x1 + h * k2x, k3x, d_mid)
            k4x = x2 + dt * k3v
            k4v = accel(x1 + dt * k3x, k4x, d_end)
        except (OverflowError, ValueError) as err:
            # stage values left the representable range: x2**2 overflows, or
            # math.sin/cos meet an infinite angle
            raise IntegrationBlowupError(
                f"plant state became non-finite at t={ti:.6f}"
            ) from err
        x1, x2 = (
            x1 + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
            x2 + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
        )
        if not (math.isfinite(x1) and math.isfinite(x2)):
            raise IntegrationBlowupError(f"plant state became non-finite at t={ti + dt:.6f}")
    return PlantState(x1, x2)
