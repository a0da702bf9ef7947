"""Per-step box-constrained quadratic program for the control force.

Each control period the performance index reduces (up to a control-
independent constant that is dropped) to

    min_{u_min <= u <= u_max}  J = 1/2 * Q(x) * u^2 + P(x) * u

with P(x) = T*B*(A - ddx1d + (c1+c2)*S2 + (1-c1^2)*S1) and Q(x) = T*B^2 + R.
Q > 0 whenever R > 0, so the problem is strictly convex and the minimizer has
the closed form clamp(-P/Q), used here as the verification oracle for the
projection-network optimizer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

from .backstepping import ErrorCoords, Gains, stabilizing_target


@dataclass(frozen=True)
class Weights:
    """Performance-index weights: T penalizes tracking error, R control effort."""

    T: float = 100.0
    R: float = 0.01

    def __post_init__(self):
        for name in ("T", "R"):
            if not getattr(self, name) > 0:
                raise ValueError(f"weights.{name} must be > 0, got {getattr(self, name)!r}")
        if self.T <= self.R:
            # no stacklevel: one frame up is the dataclass-generated __init__,
            # which has no source file to name
            warnings.warn(
                "tracking weight T should exceed effort weight R; "
                f"got T={self.T}, R={self.R}"
            )


class _QpFields(NamedTuple):
    P: float
    Q: float
    u_min: float
    u_max: float


class QpCoefficients(_QpFields):
    """Coefficients of 1/2*Q*u^2 + P*u over the box [u_min, u_max]; immutable."""

    __slots__ = ()

    def __new__(cls, P: float, Q: float, u_min: float, u_max: float) -> QpCoefficients:
        if not Q > 0:
            raise ValueError("Q > 0 required")
        if not u_min < u_max:
            raise ValueError("u_min < u_max required")
        return tuple.__new__(cls, (P, Q, u_min, u_max))

    @classmethod
    def _make(cls, iterable) -> QpCoefficients:
        # _replace builds through _make, which would otherwise skip the checks
        return cls(*iterable)


def assemble(
    a: float,
    b: float,
    e: ErrorCoords,
    ddx1d: float,
    gains: Gains,
    weights: Weights,
    bounds: tuple[float, float],
) -> QpCoefficients:
    """Build the QP coefficients from plant terms a=A(x), b=B(x) and errors.

    The constant term of the expanded index is independent of u and is not
    stored; cost() therefore differs from the full index by that constant,
    which leaves the minimizer unchanged.
    """
    p = weights.T * b * stabilizing_target(a, ddx1d, e, gains)
    q = weights.T * b * b + weights.R
    return QpCoefficients(p, q, bounds[0], bounds[1])


def cost(q: QpCoefficients, u: float) -> float:
    return 0.5 * q.Q * u * u + q.P * u


def gradient(q: QpCoefficients, u: float) -> float:
    """d(cost)/du = Q*u + P."""
    return q.Q * u + q.P


def solve_oracle(q: QpCoefficients) -> float:
    """Closed-form minimizer clamp(-P/Q, u_min, u_max).

    Satisfies the variational inequality (Q*u* + P)*(u - u*) >= 0 for every
    feasible u, the optimality certificate for the box-constrained QP.
    """
    u = -q.P / q.Q
    if u < q.u_min:
        return q.u_min
    if u > q.u_max:
        return q.u_max
    return u
