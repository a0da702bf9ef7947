"""Projection network: equilibria, convergence, and projection properties."""

import math

import numpy as np
import pytest

from prnn_abc.prnn import (
    PrnnConfig,
    control_output,
    equilibrium_phi,
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
    out = relax_until(5.0, q, PrnnConfig(), tol=1e-9, step=0.02)
    assert out.residual <= 1e-9
    assert out.u == pytest.approx(0.5, abs=1e-8)


def test_relax_reaches_clamped_optimum():
    q = QpCoefficients(P=3.0, Q=2.0, u_min=-1.0, u_max=1.0)
    out = relax_until(-4.0, q, PrnnConfig(), tol=1e-9, step=0.02)
    assert out.u == pytest.approx(-1.0, abs=1e-8)


def test_relax_matches_oracle_randomized():
    rng = np.random.default_rng(23)
    vartheta = 50.0
    cfg = PrnnConfig(vartheta=vartheta)
    for _ in range(200):
        q = _random_qp(rng)
        step = max(1.0, q.Q) / vartheta
        out = relax_until(rng.uniform(-50, 50), q, cfg, tol=1e-9, step=step)
        assert out.residual <= 1e-9
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
    times = []
    for vartheta in (5.0, 10.0, 20.0, 40.0):
        h = 0.1 / vartheta
        cfg = PrnnConfig(vartheta=vartheta)
        out = relax_until(10.0, q, cfg, tol=1e-6, step=h)
        times.append(out.substeps * h)
    coarsest_step = 0.1 / 5.0
    for t1, t2 in zip(times, times[1:]):
        assert t2 <= 0.5 * t1 + coarsest_step


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
