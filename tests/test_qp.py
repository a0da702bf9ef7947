"""QP assembly, cost/gradient, and the closed-form oracle."""

import numpy as np
import pytest

from prnn_abc.backstepping import ErrorCoords, Gains
from prnn_abc.qp import QpCoefficients, Weights, assemble, cost, gradient, solve_oracle

B_AT_0 = 1.4634146341463414
BOUNDS = (-30.0, 30.0)


def test_weights_warn_when_effort_dominates():
    with pytest.warns(UserWarning, match="T should exceed"):
        Weights(T=1.0, R=1.0)
    with pytest.warns(UserWarning):
        Weights(T=0.5, R=1.0)


def test_weights_warning_names_a_source_file():
    # one frame up is the dataclass-generated __init__, reported as "<string>"
    with pytest.warns(UserWarning, match="T should exceed") as record:
        Weights(T=1.0, R=1.0)
    assert record[0].filename != "<string>"
    assert record[0].filename.endswith("qp.py")


def test_weights_validation():
    with pytest.raises(ValueError):
        Weights(T=0.0, R=0.1)
    with pytest.raises(ValueError):
        Weights(T=1.0, R=-0.1)


def test_coefficients_validation():
    with pytest.raises(ValueError):
        QpCoefficients(P=0.0, Q=0.0, u_min=-1.0, u_max=1.0)
    with pytest.raises(ValueError):
        QpCoefficients(P=0.0, Q=1.0, u_min=1.0, u_max=1.0)


def test_assemble_at_upright_rest():
    e = ErrorCoords(0.0, 0.0, 0.0)
    q = assemble(0.0, B_AT_0, e, 0.0, Gains(2.0, 2.0), Weights(100.0, 0.01), BOUNDS)
    assert q.P == 0.0
    assert q.Q == pytest.approx(214.16823914336704, rel=1e-14)


def test_assemble_degenerate_gain():
    # every term of P carries a factor B, so B = 0 leaves only Q = R
    e = ErrorCoords(0.5, -1.0, 0.0)
    q = assemble(2.0, 0.0, e, 0.3, Gains(2.0, 2.0), Weights(100.0, 0.01), BOUNDS)
    assert q.P == 0.0
    assert q.Q == 0.01
    assert solve_oracle(q) == 0.0


def test_assemble_substitution_example():
    e = ErrorCoords(s1=0.1, s2=0.2, gamma1=-0.1)
    q = assemble(1.0, 1.0, e, 0.0, Gains(1.0, 2.0), Weights(1.0, 0.1), BOUNDS)
    assert q.P == pytest.approx(1.6, rel=1e-14)  # 1*(1 + 3*0.2 + 0*0.1)
    assert q.Q == pytest.approx(1.1, rel=1e-14)


def test_cost_values():
    q = QpCoefficients(P=3.0, Q=2.0, u_min=-1.0, u_max=1.0)
    assert cost(q, 0.0) == 0.0
    assert cost(q, 1.0) == 4.0
    assert cost(q, -1.5) == pytest.approx(-2.25, rel=1e-15)  # vertex value


def test_gradient_values():
    q = QpCoefficients(P=3.0, Q=2.0, u_min=-1.0, u_max=1.0)
    assert gradient(q, 0.0) == 3.0
    assert gradient(q, -1.5) == 0.0
    q2 = QpCoefficients(P=1.6, Q=1.1, u_min=-1.0, u_max=1.0)
    assert gradient(q2, 0.5) == pytest.approx(2.15, rel=1e-14)


def test_oracle_examples():
    assert solve_oracle(QpCoefficients(P=3.0, Q=2.0, u_min=-1.0, u_max=1.0)) == -1.0
    assert solve_oracle(QpCoefficients(P=-1.0, Q=2.0, u_min=-1.0, u_max=1.0)) == 0.5
    assert solve_oracle(QpCoefficients(P=0.0, Q=7.3, u_min=-1.0, u_max=1.0)) == 0.0


def _random_qp(rng):
    q = 10.0 ** rng.uniform(-2, 2)
    p = rng.uniform(-100, 100)
    lo, hi = np.sort(rng.uniform(-10, 10, 2))
    if hi - lo < 1e-3:
        hi = lo + 1e-3
    return QpCoefficients(P=p, Q=q, u_min=float(lo), u_max=float(hi))


def test_oracle_beats_dense_grid():
    # independent oracle: brute-force minimization over a 1e5-point grid
    rng = np.random.default_rng(11)
    for _ in range(1000):
        q = _random_qp(rng)
        grid = np.linspace(q.u_min, q.u_max, 100_001)
        values = 0.5 * q.Q * grid**2 + q.P * grid
        best = grid[np.argmin(values)]
        resolution = (q.u_max - q.u_min) / 100_000
        assert abs(solve_oracle(q) - best) <= resolution + 1e-12


def test_oracle_vi_certificate_at_endpoints():
    # the gradient is affine in u, so endpoint checks certify the interval
    rng = np.random.default_rng(12)
    for _ in range(1000):
        q = _random_qp(rng)
        ustar = solve_oracle(q)
        g = gradient(q, ustar)
        for u in (q.u_min, q.u_max):
            assert g * (u - ustar) >= -1e-12


def test_completing_the_square():
    rng = np.random.default_rng(13)
    for _ in range(500):
        q = _random_qp(rng)
        vertex = -q.P / q.Q
        u = rng.uniform(-20, 20)
        lhs = cost(q, u) - cost(q, vertex)
        rhs = 0.5 * q.Q * (u + q.P / q.Q) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
        assert lhs >= -1e-10 * (1.0 + abs(cost(q, u)))


def test_gradient_matches_finite_difference():
    rng = np.random.default_rng(14)
    for _ in range(500):
        q = _random_qp(rng)
        u = rng.uniform(-10, 10)
        h = 1e-4 * (1.0 + abs(u))
        fd = (cost(q, u + h) - cost(q, u - h)) / (2 * h)
        scale = 1.0 + abs(q.Q * u) + abs(q.P)
        assert abs(fd - gradient(q, u)) <= 1e-8 * scale
