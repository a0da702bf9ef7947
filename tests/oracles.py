"""Helpers that only the tests use.

The model restatements are written out from their closed forms, apart from
the fused code paths of the package, so that a test can use them as oracles.
"""

import math
import struct
from pathlib import Path

import numpy as np

from prnn_abc import prnn, sim
from prnn_abc.backstepping import ErrorCoords, Gains, ReferenceSignal
from prnn_abc.config import Scenario, Timing, dumps_scenario
from prnn_abc.plant import PendulumParams, PlantState


def derivatives(
    params: PendulumParams, state: PlantState, u: float, d: float = 0.0
) -> tuple[float, float]:
    """State derivative (dx1, dx2) = (x2, A + B*u + d).

    A + B*u is written over its one denominator, in the expression order of
    `plant.step`'s stages, so that textbook RK4 over it matches `step` bit
    for bit.  A test pins it to `drift_term + gain_term * u + d` to rounding.
    """
    m_sum = params.m_c + params.m
    k, f = params.m * params.l / m_sum, u / m_sum
    s, c, v = math.sin(state.x1), math.cos(state.x1), state.x2
    return v, (params.g * s - c * (k * v**2 * s - f)) / (params.l * (4.0 / 3.0) - k * c * c) + d


_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def random_disturbance(seed: int, amplitude: float, t: float) -> float:
    """The bounded-uniform-random disturbance at t, restated in Python integers.

    The SplitMix64 finalizer of (mixed seed xor the bit pattern of t), its
    top 53 bits mapped to [-amplitude, amplitude).
    """
    bits = struct.unpack("<Q", struct.pack("<d", t))[0]
    z = _mix64(_mix64((seed + 0x9E3779B97F4A7C15) & _MASK64) ^ bits)
    return amplitude * ((z >> 11) * 2.0**-52 - 1.0)


def mechanical_energy(params: PendulumParams, state: PlantState) -> float:
    """Energy-like invariant of the unforced angle dynamics.

    E = 1/2 * [(4/3) l (m_c+m) - m l cos^2 x1] * x2^2 + g (m_c+m) cos x1
    is exactly conserved by the continuous model when u = d = 0, which makes
    its drift a direct measure of integration error.
    """
    m_sum = params.m_c + params.m
    inertia = (4.0 / 3.0) * params.l * m_sum - params.m * params.l * math.cos(state.x1) ** 2
    return 0.5 * inertia * state.x2**2 + params.g * m_sum * math.cos(state.x1)


def s2_rate(a: float, b: float, u: float, ddx1d: float, e: ErrorCoords, gains: Gains) -> float:
    """Closed-form dS2/dt = A + B*u - ddx1d + c1*S2 - c1^2*S1."""
    return a + b * u - ddx1d + gains.c1 * e.s2 - gains.c1**2 * e.s1


def save_scenario(path, scenario: Scenario) -> None:
    """Write a scenario file, as `simulate` writes scenario.yaml."""
    Path(path).write_text(dumps_scenario(scenario), encoding="utf-8")


def projection_details(seed: int, pairs: int = 100_000) -> dict[str, float]:
    """The `projection` suite's figures, from whole arrays of every pair.

    Draws the box, a, b and sigma in one call each, in the suite's order,
    and reduces each figure over all pairs at once.
    """
    rng = np.random.default_rng(seed)
    lo, hi = np.sort(rng.uniform(-5.0, 5.0, 2))
    if hi - lo < 1e-3:
        hi = lo + 1e-3
    lo, hi = box = float(lo), float(hi)
    a = rng.uniform(-20.0, 20.0, pairs)
    b = rng.uniform(-20.0, 20.0, pairs)
    pa, pb = (np.array([prnn.project(v, box) for v in x.tolist()]) for x in (a, b))
    assert np.array_equal(pa, np.clip(a, lo, hi)) and np.array_equal(pb, np.clip(b, lo, hi))
    sigma = rng.uniform(lo, hi, pairs)
    return {
        "worst_expansion": float(np.max(np.abs(pa - pb) - np.abs(a - b))),
        "worst_obtuse_angle": float(np.min((pa - sigma) * (a - pa))) + 0.0,
    }


def lyapunov_details() -> dict[str, float]:
    """The `lyapunov` suite's figures, from all six exact-law traces at once."""
    timing = Timing(plant_dt=0.001, control_period=0.001, duration=3.0)
    traces = [
        sim.run_exact_baseline(
            Scenario(initial=PlantState(x10, 0.0), reference=ref,
                     gains=Gains(c1=c1, c2=c2), timing=timing)
        )[0]
        for c1, c2 in ((1.0, 1.0), (2.0, 2.0), (3.0, 1.0))
        for ref, x10 in (
            (ReferenceSignal(kind="constant", setpoint=0.0), 0.1),
            (ReferenceSignal(kind="sinusoid", amplitude=0.1, frequency=0.5), 0.05),
        )
    ]
    worst = 0.0
    for trace in traces:
        for prev, cur in zip(trace, trace[1:]):
            worst = max(worst, abs((cur.V2 - prev.V2) / 0.001 - prev.V2_dot_ideal))
    return {"worst_identity_error": worst, "tolerance": 10.0 * 0.001 + 1e-6}
