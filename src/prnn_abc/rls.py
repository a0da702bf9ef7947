"""Recursive least-squares identification of the pendulum parameter combinations.

Rewriting the acceleration as a model linear in the unknowns gives

    x2dot = Pi . theta,
    Pi    = [3/4*(x2dot*cos^2 x1 - x2^2*cos x1*sin x1), 3/4*g*sin x1, 3/4*cos(x1)*u]
    theta = [m/(m_c+m), 1/l, 1/(l*(m_c+m))]

which the forgetting-free RLS recursion estimates sample by sample.  The
physical quantities are recovered by inverting the theta definition, and the
adaptive controller rebuilds its QP coefficients from those estimates.

theta (true, initial and estimated), Pi and M are tuples of Python floats,
and every sum is written out in a fixed order: with no numpy here, an estimate
is bit for bit the same whichever BLAS kernel numpy picks for the CPU.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .backstepping import ErrorCoords, Gains
from .plant import PendulumParams, PlantState, drift_term, gain_term
from .qp import QpCoefficients, Weights, assemble

IDENTIFIABILITY_EPS = 1e-6

Vector3 = tuple[float, float, float]
Matrix3 = tuple[Vector3, Vector3, Vector3]  # rows


class NotYetIdentifiableError(RuntimeError):
    """theta components needed for inversion are still too close to zero."""


def true_theta(params: PendulumParams) -> Vector3:
    """Parameter combinations the regression model identifies."""
    m_sum = params.m_c + params.m
    return (params.m / m_sum, 1.0 / params.l, 1.0 / (params.l * m_sum))


class RlsState(NamedTuple):
    """Estimate vector and covariance-like matrix."""

    theta_hat: Vector3
    M: Matrix3  # symmetric positive definite, M[i][j] == M[j][i] exactly


def initial_state(theta0: Vector3, m0_scale: float) -> RlsState:
    s = float(m0_scale)
    return RlsState(tuple(theta0), ((s, 0.0, 0.0), (0.0, s, 0.0), (0.0, 0.0, s)))


def regressor(state: PlantState, x2dot: float, u: float, g: float) -> Vector3:
    """Regressor Pi such that x2dot = Pi . theta holds for the true theta."""
    c, s = math.cos(state.x1), math.sin(state.x1)
    return (
        0.75 * (x2dot * c * c - state.x2**2 * c * s),
        0.75 * g * s,
        0.75 * c * u,
    )


def sample(
    prev: PlantState, prev_u: float, state: PlantState, period: float, g: float, gate: float
) -> tuple[Vector3, float] | None:
    """(Pi, y) of the period from `prev` under force `prev_u` to `state`; None if |Pi| < gate.

    y is the backward-difference x2dot; it approximates the mid-interval
    derivative, so Pi is taken at the mid-interval state as well.
    """
    x2dot = (state.x2 - prev.x2) / period
    mid = PlantState(0.5 * (state.x1 + prev.x1), 0.5 * (state.x2 + prev.x2))
    pi = regressor(mid, x2dot, prev_u, g)
    if math.hypot(*pi) < gate:
        return None
    return pi, x2dot


def update(s: RlsState, pi: Vector3, y: float) -> RlsState:
    """One RLS step: gain G = M*Pi / (1 + Pi'*M*Pi), theta += G*e, M -= G*Pi'*M.

    M is symmetric (only its upper triangle is read), so Pi'*M = (M*Pi)' and
    the one product v = M*Pi gives the denominator, the gain and the rank-one
    correction M - G*v'.  The innovation e = y - Pi.theta_hat is computed
    before the estimate moves; the (i, j) and (j, i) corrections are
    averaged, so M stays exactly symmetric.  Plain float arithmetic in a
    fixed order: the result does not depend on the BLAS kernel.
    """
    p0, p1, p2 = pi
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = s.M
    v0 = m00 * p0 + m01 * p1 + m02 * p2
    v1 = m01 * p0 + m11 * p1 + m12 * p2
    v2 = m02 * p0 + m12 * p1 + m22 * p2
    denom = 1.0 + (p0 * v0 + p1 * v1 + p2 * v2)
    if not denom > 0.0:
        raise FloatingPointError(
            f"1 + Pi'M Pi = {denom!r} is not positive; covariance M has lost positive definiteness"
        )
    g0, g1, g2 = v0 / denom, v1 / denom, v2 / denom
    t0, t1, t2 = s.theta_hat
    err = y - (p0 * t0 + p1 * t1 + p2 * t2)
    n01 = m01 - 0.5 * (g0 * v1 + g1 * v0)
    n02 = m02 - 0.5 * (g0 * v2 + g2 * v0)
    n12 = m12 - 0.5 * (g1 * v2 + g2 * v1)
    return RlsState(
        (t0 + g0 * err, t1 + g1 * err, t2 + g2 * err),
        (
            (m00 - g0 * v0, n01, n02),
            (n01, m11 - g1 * v1, n12),
            (n02, n12, m22 - g2 * v2),
        ),
    )


def extract_physical(theta_hat: Vector3, g: float) -> PendulumParams | None:
    """Invert the theta definition: l = 1/theta2, m_c+m = theta2/theta3, m = theta1*(m_c+m).

    Returns None when the estimates describe no realizable pendulum.  Raises
    NotYetIdentifiableError while theta2 or theta3 sit below the
    identifiability floor; the loop then keeps its last model.
    """
    t1, t2, t3 = theta_hat
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
