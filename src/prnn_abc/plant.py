"""Nonlinear inverted-pendulum angle dynamics and fixed-step RK4 integration.

The plant is the angle subsystem of a pendulum on a cart: state (x1, x2) =
(angle from upright, angular velocity), one force input u, an additive
disturbance d on the acceleration channel, and output y = x1.  The angular
acceleration splits into a control-free drift A(x) and an input gain B(x),
so that dx2/dt = A(x) + B(x) * u + d.

d is a pure function of (DisturbanceSpec, t).  `stage_disturbance` samples
it ahead of the integration, at every RK4 stage time of a whole run at once,
and `step` integrates the rows it is given without knowing how d is made.
Only a time-varying d needs numpy, to build that grid, so numpy is imported
where the grid is built and a run with no or a constant d never loads it.
For speed, `step` writes A + B*u + d out at each of its four RK4 stages
over one shared denominator, with one division per stage; tests/test_plant.py
checks it bit for bit against textbook RK4 over the same expression, and
that expression against `drift_term` and `gain_term` to rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence


class IntegrationBlowupError(RuntimeError):
    """A plant step produced a non-finite state."""


_OPEN_KEYS = ("bounds.u_min", "bounds.u_max")  # +-inf here leaves that side of the box open


def checked_value(path: str, value, like):
    """`value` for the scenario key at `path`, typed like that key's default `like`.

    A ValueError names the key path.  Numbers must be finite, but the bounds
    may be +-inf; an integer key takes 3.0 as 3, and a float key takes 1 as 1.0.
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


def ranged(default, rule):
    """A scenario field with `default` whose value must obey `rule`.

    `rule` is "> 0", ">= 0", or a tuple of the allowed strings of a kind key;
    `check_fields` applies it.
    """
    return field(default=default, metadata={"rule": rule})


@functools.cache
def _scalar_fields(cls) -> tuple:
    """(name, default) of each field of `cls` whose default is a flag, number or
    string, and (name, rule) of each field declared with `ranged`."""
    fs = fields(cls)
    scalars = tuple((f.name, f.default) for f in fs if isinstance(f.default, (int, float, str)))
    return scalars, tuple((f.name, f.metadata["rule"]) for f in fs if "rule" in f.metadata)


def check_fields(section, key: str) -> None:
    """Type each scalar field of the frozen dataclass `section` like its default, in place.

    Then each field declared with `ranged` must obey its rule, e.g.
    `gains.c1 must be > 0, got -1.0` or `reference.kind must be one of
    constant, sinusoid, smoothstep, got 'x'`.  Every scenario section calls it
    first in its __post_init__, so its remaining checks meet only numbers that
    obey their rules; `key` is the section's file key ("" at the top).
    """
    prefix = f"{key}." if key else ""
    scalars, rules = _scalar_fields(type(section))
    for name, default in scalars:
        value = checked_value(prefix + name, getattr(section, name), default)
        object.__setattr__(section, name, value)
    for name, rule in rules:
        value = getattr(section, name)
        if isinstance(rule, tuple):
            if value not in rule:
                raise ValueError(f"{prefix}{name} must be one of {', '.join(rule)}, got {value!r}")
        elif not (value > 0 if rule == "> 0" else value >= 0):
            raise ValueError(f"{prefix}{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class PendulumParams:
    """Physical constants of the pendulum on a cart.

    g: gravitational acceleration (m/s^2), m_c: cart mass (kg),
    m: pendulum mass (kg), l: length to the pendulum center of mass (m).
    """

    g: float = ranged(9.8, "> 0")
    m_c: float = ranged(1.0, "> 0")
    m: float = ranged(0.1, "> 0")
    l: float = ranged(0.5, "> 0")

    def __post_init__(self):
        check_fields(self, "params")


@dataclass(frozen=True)
class PlantState:
    x1: float  # pendulum angle from upright (rad)
    x2: float  # angular velocity (rad/s)

    def controllable(self) -> bool:
        """True while |x1| < pi/2, where the input gain B keeps its sign."""
        return abs(self.x1) < math.pi / 2


_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class DisturbanceSpec:
    """Acceleration disturbance d, in rad/s^2 equivalent units."""

    kind: str = ranged("none", ("none", "constant", "sinusoid", "bounded-uniform-random"))
    amplitude: float = ranged(0.0, ">= 0")
    frequency: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self, "disturbance")
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
    import numpy as np

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


def _invariant_value(spec: DisturbanceSpec) -> float:
    # the d of a time-invariant kind, the same at every t
    return spec.amplitude if spec.kind == "constant" else 0.0


def disturbance_at(spec: DisturbanceSpec, times: np.ndarray | float) -> np.ndarray:
    """The disturbance of spec at every entry of `times`, an array or a number.

    The one statement of each kind.  The random stream is hashed in one
    vectorized pass; the sinusoid runs math.sin, which np.sin need not match
    bit for bit, on times turned into Python floats 4096 at a time.
    """
    import numpy as np

    times = np.asarray(times, dtype=np.float64)
    if spec.kind in ("none", "constant"):
        return np.full(times.shape, _invariant_value(spec))
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
    import numpy as np

    ti = np.asarray(t, dtype=np.float64)[..., None] + np.arange(steps) * dt
    return np.stack((ti, ti + 0.5 * dt, ti + dt), axis=-1)


def stage_disturbance(
    spec: DisturbanceSpec, t: float, dt: float, steps: int, periods: int = 1, period: float = 0.0
) -> Iterable[list[list[float]]]:
    """The disturbance rows that `step` reads, one list of `steps` rows per period.

    Period k starts at t + k*period; its rows hold d at the stage times of
    `stage_times` from that start.  A time-invariant kind repeats one shared
    list of rows and samples nothing; a time-varying kind samples the whole
    grid at once, here, and each period's rows become Python floats as they
    are iterated.  Either way a run too long to hold raises MemoryError here,
    at its start, from one allocation of `periods` entries.
    """
    if spec.kind in ("none", "constant"):
        d = _invariant_value(spec)
        return [[[d, d, d]] * steps] * periods
    import numpy as np

    grid = disturbance_at(spec, stage_times(t + np.arange(periods) * period, dt, steps))
    return (rows.tolist() for rows in grid)


def _denominator(params: PendulumParams, x1: float) -> float:
    # at least l/3 for every positive parameter set, since m/(m_c+m) < 1
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
    `stage_disturbance(spec, t, dt, steps)` gives them.  Raises
    IntegrationBlowupError, naming the time, for a non-finite u and as soon
    as a step leaves the finite range.  The stage acceleration is written
    out four times as (g*s - c*(k*v**2*s - f)) / (l43 - k*c*c) + d, with
    k = m*l/(m_c+m), f = u/(m_c+m) and l43 = 4l/3 formed once per call;
    `test_step_stage_copies_match_textbook_rk4` pins the four copies.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    if not stages:
        raise ValueError("steps must be >= 1, got no rows in stages")
    if not math.isfinite(u):
        raise IntegrationBlowupError(f"non-finite force u={u!r} at t={t:.6f}")
    sin, cos, isfinite = math.sin, math.cos, math.isfinite
    g, l = params.g, params.l
    m_sum = params.m_c + params.m
    k, f, l43 = params.m * l / m_sum, u / m_sum, l * (4.0 / 3.0)
    x1, x2 = state.x1, state.x2
    h, sixth = 0.5 * dt, dt / 6.0
    for i, (d_start, d_mid, d_end) in enumerate(stages):
        try:
            # each stage is A + B*u + d in one expression order, the same in
            # all four copies; k1x is x2
            s, c = sin(x1), cos(x1)
            k1v = (g * s - c * (k * x2**2 * s - f)) / (l43 - k * c * c) + d_start
            k2x = x2 + h * k1v
            s, c = sin(y := x1 + h * x2), cos(y)
            k2v = (g * s - c * (k * k2x**2 * s - f)) / (l43 - k * c * c) + d_mid
            k3x = x2 + h * k2v
            s, c = sin(y := x1 + h * k2x), cos(y)
            k3v = (g * s - c * (k * k3x**2 * s - f)) / (l43 - k * c * c) + d_mid
            k4x = x2 + dt * k3v
            s, c = sin(y := x1 + dt * k3x), cos(y)
            k4v = (g * s - c * (k * k4x**2 * s - f)) / (l43 - k * c * c) + d_end
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
