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
the way.  relax() therefore integrates the network exactly: on each piece it
either reaches the next breakpoint after ln((phi - target)/(phi_b - target))/r
or ends at target + (phi - target)*exp(-r*t).  A larger vartheta speeds
convergence; the reading vartheta * dphi/dt = PR(u - phi) - u is the same
flow with vartheta replaced by 1/vartheta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .qp import QpCoefficients, solve_oracle

MAX_CHUNKS = 2_000_000  # relax_until gives up after this many chunks


class IntegrationDivergedError(RuntimeError):
    """Network integration left the finite range."""


@dataclass(frozen=True)
class PrnnConfig:
    """Network settings.

    vartheta: convergence-rate constant (1/s), > 0.
    """

    vartheta: float = 50.0

    def __post_init__(self):
        if not self.vartheta > 0:
            raise ValueError(f"prnn.vartheta must be > 0, got {self.vartheta!r}")


class RelaxResult(NamedTuple):
    """Network state phi after integration, its output u, its equilibrium
    residual, and the number of affine pieces (relax) or chunks (relax_until)
    integrated."""

    phi: float
    u: float
    residual: float
    substeps: int


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


def _flow(phi: float, q: QpCoefficients, vartheta: float, duration: float) -> tuple[float, int]:
    """Exact network state after `duration` from phi, and the pieces it used."""
    phi_star = equilibrium_phi(q)
    breakpoints = []
    if q.Q != 1.0:
        lo, hi = sorted((phi, phi_star))
        for bound in (q.u_min, q.u_max):
            phi_b = (q.Q * bound + q.P) / (1.0 - q.Q)
            if lo < phi_b < hi:
                breakpoints.append(phi_b)
        breakpoints.sort(key=lambda b: abs(b - phi))
    left = duration
    for pieces, phi_b in enumerate(breakpoints, start=1):
        # the piece is identified at its midpoint, clear of both ends
        target, rate = _affine_piece(0.5 * (phi + phi_b), q, vartheta)
        ratio = (phi - target) / (phi_b - target)
        # ratio <= 0 only when rounding puts the target before the breakpoint
        reach = math.log(ratio) / rate if ratio > 0.0 else math.inf
        if reach >= left:
            return target + (phi - target) * math.exp(-rate * left), pieces
        phi, left = phi_b, left - reach
    target, rate = _affine_piece(0.5 * (phi + phi_star), q, vartheta)
    return target + (phi - target) * math.exp(-rate * left), len(breakpoints) + 1


def _result(phi: float, q: QpCoefficients, substeps: int) -> RelaxResult:
    u = control_output(phi, q)
    if not (math.isfinite(phi) and math.isfinite(u)):
        raise IntegrationDivergedError(f"network state became non-finite (phi={phi}, u={u})")
    return RelaxResult(phi, u, equilibrium_residual(phi, q), substeps)


def relax(phi: float, q: QpCoefficients, cfg: PrnnConfig, duration: float) -> RelaxResult:
    """Integrate the network exactly over `duration` from phi with frozen P, Q.

    Raises IntegrationDivergedError if the resulting state is not finite,
    which non-finite coefficients can cause.
    """
    phi, pieces = _flow(phi, q, cfg.vartheta, duration)
    return _result(phi, q, pieces)


def relax_until(
    phi: float, q: QpCoefficients, cfg: PrnnConfig, tol: float, step: float
) -> RelaxResult:
    """Integrate from phi with frozen coefficients until the residual reaches tol.

    Verification-oriented variant of relax(): advances the exact flow in
    chunks of `step` seconds until |PR(u - phi) - u| <= tol or MAX_CHUNKS
    chunks are spent; substeps counts the chunks taken.
    """
    result = _result(phi, q, 0)
    for taken in range(1, MAX_CHUNKS + 1):
        if result.residual <= tol:
            return result
        phi, _ = _flow(result.phi, q, cfg.vartheta, step)
        result = _result(phi, q, taken)
    return result


def stable_inner_dt(q: QpCoefficients, vartheta: float, safety: float = 0.5) -> float:
    """Sub-step keeping RK4 stable for both regimes of the piecewise dynamics.

    The interior regime decays at rate vartheta, the clamped regime at
    vartheta/Q; the stiffer of the two sets the step bound.  relax() no
    longer sub-steps; this stays as a named hook of the benchmark tracer.
    """
    return safety * min(1.0, q.Q) / vartheta
