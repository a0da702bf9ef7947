"""Recursive least-squares identification of the pendulum parameter combinations.

Rewriting the acceleration as a model linear in the unknowns gives

    x2dot = Pi . theta,
    Pi    = [3/4*(x2dot*cos^2 x1 - x2^2*cos x1*sin x1), 3/4*g*sin x1, 3/4*cos(x1)*u]
    theta = [m/(m_c+m), 1/l, 1/(l*(m_c+m))]

which the forgetting-free RLS recursion estimates sample by sample.  The
physical quantities are recovered by inverting the theta definition, and the
adaptive controller rebuilds its QP coefficients from those estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backstepping import ErrorCoords, Gains
from .plant import PendulumParams, PlantState, drift_term, gain_term
from .qp import QpCoefficients, Weights, assemble

IDENTIFIABILITY_EPS = 1e-6
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


class NotYetIdentifiableError(RuntimeError):
    """theta components needed for inversion are still too close to zero."""


def true_theta(params: PendulumParams) -> np.ndarray:
    """Parameter combinations the regression model identifies."""
    m_sum = params.m_c + params.m
    return np.array([params.m / m_sum, 1.0 / params.l, 1.0 / (params.l * m_sum)])


@dataclass(frozen=True, eq=False)
class RlsState:
    """Estimate vector, covariance-like matrix, and sample counter."""

    theta_hat: np.ndarray  # (3,)
    M: np.ndarray          # (3,3), symmetric positive definite
    k: int = 0


def initial_state(theta0, m0_scale: float = 100.0) -> RlsState:
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (3,):
        raise ValueError("theta0 must be a 3-vector")
    if not m0_scale > 0:
        raise ValueError("m0_scale > 0 required")
    return RlsState(theta_hat=theta0.copy(), M=m0_scale * np.eye(3), k=0)


def regressor(state: PlantState, x2dot: float, u: float, g: float) -> np.ndarray:
    """Regressor Pi such that x2dot = Pi . theta holds for the true theta."""
    c, s = math.cos(state.x1), math.sin(state.x1)
    return np.array(
        [
            0.75 * (x2dot * c * c - state.x2**2 * c * s),
            0.75 * g * s,
            0.75 * c * u,
        ]
    )


def sample(
    prev: PlantState, prev_u: float, state: PlantState, period: float, g: float, gate: float
) -> tuple[np.ndarray, float] | None:
    """(Pi, y) of the period from `prev` under force `prev_u` to `state`; None if |Pi| < gate.

    y is the backward-difference x2dot; it approximates the mid-interval
    derivative, so Pi is taken at the mid-interval state as well.
    """
    x2dot = (state.x2 - prev.x2) / period
    mid = PlantState(0.5 * (state.x1 + prev.x1), 0.5 * (state.x2 + prev.x2))
    pi = regressor(mid, x2dot, prev_u, g)
    if math.sqrt(float(pi @ pi)) < gate:  # np.linalg.norm of a real vector, bit for bit
        return None
    return pi, x2dot


def update(s: RlsState, pi: np.ndarray, y: float) -> RlsState:
    """One RLS step: gain G = M*Pi / (1 + Pi'*M*Pi), theta += G*e, M -= G*Pi'*M.

    The innovation e = y - Pi.theta_hat is computed before the estimate moves;
    the covariance update is symmetrized to keep M numerically SPD.
    """
    pi = np.asarray(pi, dtype=float)
    denom = 1.0 + float(pi @ s.M @ pi)
    if not denom > 0.0:
        raise FloatingPointError(
            f"1 + Pi'M Pi = {denom!r} is not positive; covariance M has lost positive definiteness"
        )
    gain = (s.M @ pi) / denom
    err = y - float(pi @ s.theta_hat)
    theta = s.theta_hat + gain * err
    m_next = (_EYE3 - gain[:, None] * pi) @ s.M
    m_next = 0.5 * (m_next + m_next.T)
    return RlsState(theta_hat=theta, M=m_next, k=s.k + 1)


def extract_physical(theta_hat: np.ndarray, g: float) -> PendulumParams | None:
    """Invert the theta definition: l = 1/theta2, m_c+m = theta2/theta3, m = theta1*(m_c+m).

    Returns None when the estimates describe no realizable pendulum.  Raises
    NotYetIdentifiableError while theta2 or theta3 sit below the
    identifiability floor; the loop then keeps its last model.
    """
    t1, t2, t3 = (float(v) for v in theta_hat)
    if t2 <= IDENTIFIABILITY_EPS or t3 <= IDENTIFIABILITY_EPS:
        raise NotYetIdentifiableError(
            f"theta2={t2:.3e}, theta3={t3:.3e} below identifiability floor"
        )
    m_sum = t2 / t3
    m = t1 * m_sum
    try:
        return PendulumParams(g=g, m_c=m_sum - m, m=m, l=1.0 / t2)
    except ValueError:
        return None


def adaptive_coefficients(
    params: PendulumParams,
    state: PlantState,
    e: ErrorCoords,
    ddx1d: float,
    gains: Gains,
    weights: Weights,
    bounds: tuple[float, float],
) -> QpCoefficients:
    """QP coefficients rebuilt from estimated physical parameters.

    Uses the same assembly as the known-parameter path but with A, B evaluated
    at the estimated (m, m_c, l) and the known g.
    """
    a_hat = drift_term(params, state)
    b_hat = gain_term(params, state)
    return assemble(a_hat, b_hat, e, ddx1d, gains, weights, bounds)
