"""Helpers that only the tests use.

The model restatements are written out from their closed forms, apart from
the fused code paths of the package, so that a test can use them as oracles.
"""

import math
from pathlib import Path

from prnn_abc.backstepping import ErrorCoords, Gains
from prnn_abc.config import dumps_scenario
from prnn_abc.plant import PendulumParams, PlantState, drift_term, gain_term
from prnn_abc.sim import Scenario


def derivatives(
    params: PendulumParams, state: PlantState, u: float, d: float = 0.0
) -> tuple[float, float]:
    """State derivative (dx1, dx2) = (x2, A + B*u + d)."""
    return state.x2, drift_term(params, state) + gain_term(params, state) * u + d


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
