"""Projection network: equilibria, convergence, and projection properties."""

import math

import numpy as np
import pytest

from prnn_abc.prnn import (
    PrnnConfig,
    control_output,
    equilibrium_phi,
    equilibrium_residual,
    project,
    relax,
    relax_until,
)
from prnn_abc.qp import QpCoefficients, solve_oracle

WIDE = QpCoefficients(P=0.0, Q=1.0, u_min=-1e9, u_max=1e9)


def _phi_rate(phi, q, vartheta):
    """Right-hand side of the network ODE, for rest-point checks and the RK4 reference."""
    u = (phi - q.P) / q.Q
    return vartheta * (project(u - phi, (q.u_min, q.u_max)) - u)


def _rk4_reference(phi, q, vartheta, duration, n):
    h = duration / n
    for _ in range(n):
        k1 = _phi_rate(phi, q, vartheta)
        k2 = _phi_rate(phi + 0.5 * h * k1, q, vartheta)
        k3 = _phi_rate(phi + 0.5 * h * k2, q, vartheta)
        k4 = _phi_rate(phi + h * k3, q, vartheta)
        phi = phi + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return phi


def _random_qp(rng):
    qq = 10.0 ** rng.uniform(-2, 2)
    pp = rng.uniform(-100, 100)
    lo, hi = np.sort(rng.uniform(-10, 10, 2))
    if hi - lo < 1e-3:
        hi = lo + 1e-3
    return QpCoefficients(P=pp, Q=qq, u_min=float(lo), u_max=float(hi))


def test_project_clamps():
    assert project(2.0, (-1.0, 1.0)) == 1.0
    assert project(0.3, (-1.0, 1.0)) == 0.3
    assert project(-5.0, (-1.0, 1.0)) == -1.0


def test_project_nonexpansive():
    rng = np.random.default_rng(21)
    lo, hi = -2.0, 3.0
    for _ in range(2000):
        a, b = rng.uniform(-20, 20, 2)
        assert abs(project(a, (lo, hi)) - project(b, (lo, hi))) <= abs(a - b)


def test_project_obtuse_angle_inequality():
    # (PR(w) - sigma) * (w - PR(w)) >= 0 for any feasible sigma
    rng = np.random.default_rng(22)
    lo, hi = -1.5, 0.5
    for _ in range(2000):
        w = rng.uniform(-10, 10)
        sigma = rng.uniform(lo, hi)
        pw = project(w, (lo, hi))
        assert (pw - sigma) * (w - pw) >= 0.0


def test_phi_derivative_zero_at_unconstrained_optimum():
    q = QpCoefficients(P=0.0, Q=2.0, u_min=-1.0, u_max=1.0)
    assert equilibrium_phi(q) == 0.0
    assert _phi_rate(0.0, q, 50.0) == 0.0
    out = relax(0.0, q, PrnnConfig(vartheta=50.0), 10.0)
    assert out.phi == 0.0
    assert out.u == 0.0
    assert out.residual <= 1e-14


def test_phi_derivative_zero_at_saturated_equilibrium():
    q = QpCoefficients(P=3.0, Q=2.0, u_min=-1.0, u_max=1.0)
    phi_star = equilibrium_phi(q)
    assert phi_star == pytest.approx(1.0, rel=1e-14)  # Q*(-1) + 3
    assert control_output(phi_star, q) == pytest.approx(-1.0, rel=1e-14)
    assert _phi_rate(phi_star, q, 50.0) == pytest.approx(0.0, abs=1e-12)
    out = relax(phi_star, q, PrnnConfig(vartheta=50.0), 10.0)
    assert out.phi == pytest.approx(phi_star, abs=1e-14)
    assert out.u == pytest.approx(-1.0, abs=1e-14)
    assert out.residual <= 1e-14


def test_relax_reaches_interior_optimum():
    q = QpCoefficients(P=-1.0, Q=2.0, u_min=-1.0, u_max=1.0)
    out = relax_until(5.0, q, PrnnConfig(), tol=1e-9)
    assert out.residual <= 1e-9
    assert out.u == pytest.approx(0.5, abs=1e-8)


def test_relax_reaches_clamped_optimum():
    q = QpCoefficients(P=3.0, Q=2.0, u_min=-1.0, u_max=1.0)
    out = relax_until(-4.0, q, PrnnConfig(), tol=1e-9)
    assert out.u == pytest.approx(-1.0, abs=1e-8)


def test_relax_matches_oracle_randomized():
    rng = np.random.default_rng(23)
    vartheta = 50.0
    cfg = PrnnConfig(vartheta=vartheta)
    for _ in range(200):
        q = _random_qp(rng)
        out = relax_until(rng.uniform(-50, 50), q, cfg, tol=1e-9)
        assert out.residual <= 1e-9
        assert 1 <= out.substeps <= 3
        assert abs(out.u - solve_oracle(q)) < 1e-6


def test_relax_matches_fine_rk4_reference():
    # u* clamped at one bound and phi0 past the breakpoint of the other, so
    # the flow crosses both kinks; RK4 approaches the exact flow as h -> 0
    rng = np.random.default_rng(25)
    vartheta, duration = 10.0, 2.0
    cfg = PrnnConfig(vartheta=vartheta)
    steps = (100, 400, 1600)
    gaps = np.zeros((len(steps), 20))
    for k in range(gaps.shape[1]):
        while True:
            qq = 10.0 ** rng.uniform(-1, 1)
            lo, hi = np.sort(rng.uniform(-3, 3, 2))
            if hi - lo >= 0.5 and abs(qq - 1.0) >= 0.05:
                break
        side = rng.choice([-1.0, 1.0])
        u_star = hi if side > 0 else lo
        q = QpCoefficients(
            P=float(-qq * (u_star + side * rng.uniform(0.5, 3))),
            Q=float(qq), u_min=float(lo), u_max=float(hi),
        )
        phi_star = equilibrium_phi(q)
        far = max(((q.Q * b + q.P) / (1.0 - q.Q) for b in (lo, hi)),
                  key=lambda b: abs(b - phi_star))
        phi0 = far + (far - phi_star) * rng.uniform(0.5, 5)
        exact = relax(phi0, q, cfg, duration)
        assert exact.substeps == 3
        for i, n in enumerate(steps):
            ref = _rk4_reference(phi0, q, vartheta, duration, n)
            gaps[i, k] = abs(ref - exact.phi) / (1.0 + abs(phi0))
    worst = gaps.max(axis=1)
    assert np.all(worst[1:] <= worst[:-1] / 4.0)
    assert worst[-1] < 1e-7


def test_interior_exponential_law():
    # phi(t) = phi0 * exp(-vartheta t) while the projection stays inactive
    vartheta = 20.0
    h = 0.1 / vartheta
    cfg = PrnnConfig(vartheta=vartheta)
    phi0 = 3.0
    phi = phi0
    n = 60  # spans t = 3/vartheta twice over
    logs, ts = [], []
    for k in range(n):
        out = relax(phi, WIDE, cfg, h)
        assert out.substeps == 1
        phi = out.phi
        ts.append((k + 1) * h)
        logs.append(math.log(abs(phi / phi0)))
    # pointwise 1% agreement at and beyond t = 3/vartheta
    for t, lg in zip(ts, logs):
        if t >= 3.0 / vartheta:
            assert lg == pytest.approx(-vartheta * t, rel=1e-3)
    assert phi == pytest.approx(phi0 * math.exp(-vartheta * n * h), rel=1e-2)


def test_doubling_rate_halves_convergence_time():
    q = QpCoefficients(P=3.0, Q=2.0, u_min=-1.0, u_max=1.0)
    times = [relax_until(10.0, q, PrnnConfig(vartheta=v), tol=1e-6).elapsed
             for v in (5.0, 10.0, 20.0, 40.0)]
    for t1, t2 in zip(times, times[1:]):
        assert t2 == pytest.approx(0.5 * t1, rel=1e-12)


CLAMPED = QpCoefficients(P=3.0, Q=2.0, u_min=-1.0, u_max=1.0)  # u* = -1, phi* = 1
CENTRED = QpCoefficients(P=0.0, Q=2.0, u_min=-1.0, u_max=1.0)  # u* = 0, breakpoints -2 and 2


# Each expected time is a sum over pieces of ln(r_start/r_end)/rate, with the
# residual |phi| on the interior piece and |phi - target|/Q on a clamped one.
# The tolerances keep the computed residual's rounding (an ulp of the target
# over Q*tol) far below 1e-12 of the time.
@pytest.mark.parametrize(
    "q, phi0, tol, pieces, expected",
    [
        # clamped only: the residual |phi - 1|/2 falls from 4.5 at rate vartheta/2
        (CLAMPED, 10.0, 1e-4, 1, lambda v: 2.0 * math.log(4.5e4) / v),
        # interior only, Q == 1: the residual |phi| falls from 3 at rate vartheta
        (WIDE, 3.0, 1e-9, 1, lambda v: math.log(3e9) / v),
        # interior only, Q != 1: phi0 lies between the breakpoints
        (CENTRED, 1.5, 1e-9, 1, lambda v: math.log(1.5e9) / v),
        # clamped at -1 (target -2) from 5 down to 2 at the breakpoint, then interior
        (CENTRED, 8.0, 1e-9, 2, lambda v: (2.0 * math.log(5.0 / 2.0) + math.log(2e9)) / v),
        # the same flow reaches tol = 3 on its first piece, before the breakpoint
        (CENTRED, 8.0, 3.0, 1, lambda v: 2.0 * math.log(5.0 / 3.0) / v),
        # clamped at +1 (target 5) to -5, interior to -1, clamped at -1 (target 1)
        (CLAMPED, -8.0, 1e-4, 3,
         lambda v: (2.0 * math.log(6.5 / 5.0) + math.log(5.0) + 2.0 * math.log(1e4)) / v),
    ],
)
@pytest.mark.parametrize("vartheta", [0.5, 50.0, 1e4])
def test_relax_until_time_is_the_sum_of_piece_times(q, phi0, tol, pieces, expected, vartheta):
    # on every piece the residual decays as exp(-rate t): rate vartheta on the
    # interior piece and vartheta/Q on a clamped one
    out = relax_until(phi0, q, PrnnConfig(vartheta=vartheta), tol)
    assert out.substeps == pieces
    assert out.residual <= tol
    assert out.elapsed == pytest.approx(expected(vartheta), rel=1e-12)


def test_relax_until_stops_at_once_when_already_converged():
    q = QpCoefficients(P=3.0, Q=2.0, u_min=-1.0, u_max=1.0)
    out = relax_until(1.0 + 1e-12, q, PrnnConfig(), tol=1e-9)
    assert (out.phi, out.substeps, out.elapsed) == (1.0 + 1e-12, 1, 0.0)


def test_relax_until_ends_when_tol_is_below_the_rounding_floor():
    # at phi* = 0.27 the computed residual is 9.7e-17, not 0, so no tol below
    # that is ever met; the walk still ends, at the rest point
    q = QpCoefficients(P=0.3, Q=0.3, u_min=-0.1, u_max=0.1)
    floor = equilibrium_residual(equilibrium_phi(q), q)
    assert floor > 0.0
    for tol in (0.0, 1e-300, floor / 2.0):
        out = relax_until(3.0, q, PrnnConfig(), tol)
        assert out.phi == equilibrium_phi(q)
        assert out.residual == floor > tol


def test_network_lyapunov_decrease():
    # v = (1/2)(phi-phi*)^2 (1 + 1/Q) never increases along relax trajectories
    rng = np.random.default_rng(24)
    vartheta = 50.0
    cfg = PrnnConfig(vartheta=vartheta)
    for _ in range(100):
        q = _random_qp(rng)
        phi_star = equilibrium_phi(q)
        h = 0.5 * min(1.0, q.Q) / vartheta
        phi = rng.uniform(-50, 50)
        v_prev = 0.5 * (phi - phi_star) ** 2 * (1.0 + 1.0 / q.Q)
        for _ in range(1000):
            phi = relax(phi, q, cfg, h).phi
            v = 0.5 * (phi - phi_star) ** 2 * (1.0 + 1.0 / q.Q)
            assert v <= v_prev + 1e-10 * (1.0 + v)
            v_prev = v


def test_output_equation_holds_after_every_substep():
    q = QpCoefficients(P=4.0, Q=0.5, u_min=-2.0, u_max=2.0)
    cfg = PrnnConfig(vartheta=30.0)
    phi = -3.0
    for _ in range(200):
        out = relax(phi, q, cfg, 0.5 / 30.0)
        assert out.u == control_output(out.phi, q)
        phi = out.phi


def test_config_validation():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            PrnnConfig(vartheta=bad)
