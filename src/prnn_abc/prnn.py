"""Projection recurrent network that solves the box-constrained QP online.

The optimizer is a scalar ODE in the dual state phi,

    dphi/dt = vartheta * (PR(u - phi) - u),      u = (phi - P) / Q,

where PR is the nearest-point projection onto [u_min, u_max].  Its
equilibria are exactly the QP minimizers: at rest PR(u - phi) = u, which is
the fixed-point form of the variational-inequality optimality condition.
The control output u is algebraically coupled to phi at every instant, so
the network doubles as a real-time controller state.

With P and Q frozen over a control period the right-hand side is piecewise
affine in phi.  Where the projection is inactive phi decays toward 0 at rate
vartheta; where it clamps u - phi to a bound b, phi decays toward Q*b + P at
rate vartheta/Q.  The pieces meet at the breakpoints (Q*b + P)/(1 - Q) (none
when Q == 1).  A scalar ODE with a continuous right-hand side is monotone, so
phi moves toward the equilibrium phi* and crosses at most two breakpoints on
the way.  One walk over the pieces therefore integrates the network exactly:
on each piece it either reaches the next breakpoint after
ln((phi - target)/(phi_b - target))/r or ends at target + (phi - target)*exp(-r*t).
The residual |PR(u - phi) - u| (|phi| on the interior piece, |phi - target|/Q
on a clamped one) decays as exp(-r*t) too and is continuous, so the walk
stops after a duration (relax) or when the residual first reaches a
tolerance (relax_until).  A larger vartheta speeds convergence; the reading
vartheta * dphi/dt = PR(u - phi) - u is the same flow with vartheta
replaced by 1/vartheta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .plant import check_fields, ranged
from .qp import QpCoefficients, solve_oracle


class IntegrationDivergedError(RuntimeError):
    """Network integration left the finite range."""


@dataclass(frozen=True)
class PrnnConfig:
    """Network settings.

    vartheta: convergence-rate constant (1/s), finite and > 0.
    """

    vartheta: float = ranged(50.0, "> 0")

    def __post_init__(self):
        check_fields(self, "prnn")


class RelaxResult(NamedTuple):
    """Network state phi after integration, its output u, its equilibrium
    residual, the affine pieces it crossed (1 to 3) and the time integrated."""

    phi: float
    u: float
    residual: float
    substeps: int
    elapsed: float


def project(u: float, bounds: tuple[float, float]) -> float:
    """Nearest point of the interval [u_min, u_max]; coordinate clamp."""
    lo, hi = bounds
    if u < lo:
        return lo
    if u > hi:
        return hi
    return u


def control_output(phi: float, q: QpCoefficients) -> float:
    """u = Q^-1 (phi - P), the algebraic output equation of the network."""
    return (phi - q.P) / q.Q


def equilibrium_phi(q: QpCoefficients) -> float:
    """phi* = Q*u* + P at the QP minimizer u*; the network's rest point."""
    return q.Q * solve_oracle(q) + q.P


def equilibrium_residual(phi: float, q: QpCoefficients) -> float:
    """|PR(u - phi) - u|; zero exactly at an equilibrium."""
    u = control_output(phi, q)
    return abs(project(u - phi, (q.u_min, q.u_max)) - u)


def _affine_piece(phi: float, q: QpCoefficients, vartheta: float) -> tuple[float, float]:
    """Target and decay rate of the affine piece of the network ODE at phi."""
    w = control_output(phi, q) - phi
    clamped = project(w, (q.u_min, q.u_max))
    if clamped == w:
        return 0.0, vartheta
    return q.Q * clamped + q.P, vartheta / q.Q


def _flow(
    phi: float, q: QpCoefficients, vartheta: float, duration: float, tol: float
) -> RelaxResult:
    """Walk the affine pieces from phi for `duration`, or, if tol > 0, until the
    residual first reaches tol when that is sooner."""
    phi_star = equilibrium_phi(q)
    ends = []
    if q.Q != 1.0:
        lo, hi = sorted((phi, phi_star))
        for bound in (q.u_min, q.u_max):
            phi_b = (q.Q * bound + q.P) / (1.0 - q.Q)
            if lo < phi_b < hi:
                ends.append(phi_b)
        ends.sort(key=lambda b: abs(b - phi))
    ends.append(phi_star)  # the last piece reaches phi_star only as t -> inf
    left, spent = duration, 0.0
    for pieces, end in enumerate(ends, start=1):
        # the piece is identified at its midpoint, clear of both ends
        target, rate = _affine_piece(0.5 * (phi + end), q, vartheta)
        stop = left
        if tol > 0.0:  # the residual on this piece is |phi - target| * rate / vartheta
            gap = abs(phi - target) * rate / vartheta
            stop = min(left, math.log(gap / tol) / rate if gap > tol else 0.0)
        # ratio <= 0 on the last piece, or when rounding puts the target before the breakpoint
        ratio = (phi - target) / (end - target) if pieces < len(ends) else 0.0
        reach = math.log(ratio) / rate if ratio > 0.0 else math.inf
        if reach >= stop:
            break
        phi, left, spent = end, left - reach, spent + reach
    start, extra = phi, 0.0
    phi = target + (start - target) * math.exp(-rate * stop)
    while stop < left and phi != target and (residual := equilibrium_residual(phi, q)) > tol:
        # rounding left the computed residual just above tol: integrate on,
        # at least doubling the extension so that the loop ends
        extra = max(2.0 * extra, math.log(residual / tol) / rate)
        stop = min(left, stop + extra)
        phi = target + (start - target) * math.exp(-rate * stop)
    u = control_output(phi, q)
    if not (math.isfinite(phi) and math.isfinite(u)):
        raise IntegrationDivergedError(f"network state became non-finite (phi={phi}, u={u})")
    return RelaxResult(phi, u, equilibrium_residual(phi, q), pieces, spent + stop)


def relax(phi: float, q: QpCoefficients, cfg: PrnnConfig, duration: float) -> RelaxResult:
    """Integrate the network exactly over `duration` from phi with frozen P, Q.

    Raises IntegrationDivergedError if the resulting state is not finite,
    which non-finite coefficients can cause; so does relax_until.
    """
    return _flow(phi, q, cfg.vartheta, duration, 0.0)


def relax_until(phi: float, q: QpCoefficients, cfg: PrnnConfig, tol: float) -> RelaxResult:
    """Integrate from phi with frozen P, Q until the residual first reaches tol.

    The stop is extended just enough that the computed residual is <= tol too.
    """
    return _flow(phi, q, cfg.vartheta, math.inf, tol)


def stable_inner_dt(q: QpCoefficients, vartheta: float, safety: float = 0.5) -> float:
    """RK4 sub-step stable on both pieces (rates vartheta and vartheta/Q); relax()
    does not sub-step, and this stays as a named hook of the benchmark tracer."""
    return safety * min(1.0, q.Q) / vartheta
