"""Recursive least-squares estimator and adaptive coefficient assembly."""

import math

import numpy as np
import pytest

from prnn_abc.backstepping import ErrorCoords, Gains
from prnn_abc.plant import PendulumParams, PlantState, derivatives, drift_term, gain_term
from prnn_abc.qp import Weights, assemble
from prnn_abc.rls import (
    EstimatedPhysical,
    NotYetIdentifiableError,
    RlsState,
    adaptive_coefficients,
    extract_physical,
    initial_state,
    regressor,
    true_theta,
    update,
)
from prnn_abc.verify import batch_least_squares

PARAMS = PendulumParams()
THETA_TRUE = true_theta(PARAMS)
BOUNDS = (-30.0, 30.0)


def test_true_theta_table_values():
    assert THETA_TRUE == pytest.approx([1.0 / 11.0, 2.0, 20.0 / 11.0], rel=1e-14)


def test_regressor_at_rest():
    assert np.array_equal(regressor(PlantState(0.0, 0.0), 0.0, 0.0, 9.8), np.zeros(3))


def test_regressor_control_channel():
    pi = regressor(PlantState(0.0, 0.0), 0.0, 1.0, 9.8)
    assert pi == pytest.approx([0.0, 0.0, 0.75], rel=1e-15)


def test_regressor_identity_against_plant():
    # with exact x2dot the linear model reproduces the acceleration exactly
    rng = np.random.default_rng(31)
    for _ in range(300):
        state = PlantState(rng.uniform(-1.3, 1.3), rng.uniform(-5, 5))
        u = rng.uniform(-30, 30)
        _, x2dot = derivatives(PARAMS, state, u)
        pi = regressor(state, x2dot, u, PARAMS.g)
        assert float(pi @ THETA_TRUE) == pytest.approx(x2dot, rel=1e-10, abs=1e-10)


def _synthetic_samples(n, seed, noise=0.0):
    rng = np.random.default_rng(seed)
    pis, ys = [], []
    for _ in range(n):
        state = PlantState(rng.uniform(-0.5, 0.5), rng.uniform(-2, 2))
        u = rng.uniform(-10, 10)
        _, x2dot = derivatives(PARAMS, state, u)
        y = x2dot + noise * rng.standard_normal()
        pis.append(regressor(state, x2dot, u, PARAMS.g))
        ys.append(y)
    return pis, ys


def test_update_zero_regressor_is_identity():
    s = initial_state(THETA_TRUE * 1.1)
    s2 = update(s, np.zeros(3), 0.7)
    assert np.array_equal(s2.theta_hat, s.theta_hat)
    assert np.array_equal(s2.M, s.M)
    assert s2.k == 1


def test_update_rejects_non_spd_covariance():
    # -10*I makes 1 + Pi'M Pi = -9 for a unit regressor; the check must
    # survive `python -O`, so it is an exception rather than an assert
    s = RlsState(theta_hat=np.zeros(3), M=-10.0 * np.eye(3))
    with pytest.raises(FloatingPointError, match="positive"):
        update(s, np.array([1.0, 0.0, 0.0]), 0.0)


def test_update_consistent_sample_keeps_estimate():
    s = initial_state(THETA_TRUE)
    pi = regressor(PlantState(0.2, 0.5), 1.3, 2.0, PARAMS.g)
    y = float(pi @ THETA_TRUE)  # exact model output: innovation is zero
    s2 = update(s, pi, y)
    assert np.array_equal(s2.theta_hat, s.theta_hat)


def test_convergence_on_exciting_samples():
    # with the default prior the estimate lands within the regularization
    # bias floor ~ |theta0 - theta| / (m0_scale * lambda_min); a looser prior
    # converges to the truth outright
    pis, ys = _synthetic_samples(300, seed=32)
    rng = np.random.default_rng(33)
    theta0 = THETA_TRUE * (1.0 + 0.5 * rng.uniform(-1, 1, 3))
    s = initial_state(theta0, m0_scale=100.0)
    loose = initial_state(theta0, m0_scale=1e8)
    for pi, y in zip(pis, ys):
        s = update(s, pi, y)
        loose = update(loose, pi, y)
    assert np.linalg.norm(s.theta_hat - THETA_TRUE) < 1e-3
    assert np.linalg.norm(loose.theta_hat - THETA_TRUE) < 1e-8


def test_recursive_matches_batch_solve():
    pis, ys = _synthetic_samples(200, seed=34)
    theta0 = THETA_TRUE * np.array([1.4, 0.7, 1.2])
    s = initial_state(theta0, m0_scale=100.0)
    for pi, y in zip(pis, ys):
        s = update(s, pi, y)
    batch = batch_least_squares(pis, ys, theta0, m0_scale=100.0)
    assert np.linalg.norm(s.theta_hat - batch) < 1e-6


def test_covariance_stays_spd_and_trace_shrinks():
    pis, ys = _synthetic_samples(10_000, seed=35, noise=0.05)
    s = initial_state(THETA_TRUE * 1.3)
    prev_trace = float(np.trace(s.M))
    for pi, y in zip(pis, ys):
        s = update(s, pi, y)
        assert np.array_equal(s.M, s.M.T)
        tr = float(np.trace(s.M))
        assert tr <= prev_trace + 1e-12
        prev_trace = tr
    assert np.linalg.eigvalsh(s.M).min() > 0.0
    assert np.all(np.isfinite(s.theta_hat))
    assert np.linalg.norm(s.theta_hat - THETA_TRUE) < 1.0  # bounded under noise


def test_innovation_mean_square_nonincreasing():
    pis, ys = _synthetic_samples(400, seed=36)
    s = initial_state(THETA_TRUE * 1.3)
    sq = []
    for pi, y in zip(pis, ys):
        sq.append((y - float(pi @ s.theta_hat)) ** 2)
        s = update(s, pi, y)
    mean_sq = np.cumsum(sq) / np.arange(1, len(sq) + 1)
    assert np.all(np.diff(mean_sq) <= 1e-12)


def test_extract_physical_truth():
    est = extract_physical(THETA_TRUE)
    assert est.l_hat == pytest.approx(0.5, rel=1e-12)
    assert est.m_sum_hat == pytest.approx(1.1, rel=1e-12)
    assert est.m_hat == pytest.approx(0.1, rel=1e-12)
    assert est.physical()


def test_extract_physical_zero_mass_flagged():
    est = extract_physical(np.array([0.0, 2.0, 2.0]))
    assert est.l_hat == pytest.approx(0.5)
    assert est.m_sum_hat == pytest.approx(1.0)
    assert est.m_hat == 0.0
    assert not est.physical()


def test_extract_physical_guard():
    with pytest.raises(NotYetIdentifiableError):
        extract_physical(np.array([0.1, 1e-9, 2.0]))
    with pytest.raises(NotYetIdentifiableError):
        extract_physical(np.array([0.1, 2.0, -0.5]))


def test_adaptive_coefficients_match_nominal_at_truth():
    est = extract_physical(THETA_TRUE)
    state = PlantState(0.12, -0.4)
    e = ErrorCoords(s1=0.12, s2=-0.2, gamma1=-0.24)
    gains, weights = Gains(2.0, 2.0), Weights(100.0, 0.01)
    hat = adaptive_coefficients(est, state, e, 0.1, gains, weights, BOUNDS, PARAMS)
    ref = assemble(
        drift_term(PARAMS, state), gain_term(PARAMS, state), e, 0.1, gains, weights, BOUNDS
    )
    assert hat.P == pytest.approx(ref.P, rel=1e-12)
    assert hat.Q == pytest.approx(ref.Q, rel=1e-12)


def test_adaptive_coefficients_doubled_length():
    # hand evaluation at upright rest with l doubled: A=0 so P=0, and
    # Q = T * B_hat^2 + R with B_hat = (1/1.1) / (1.0 * (4/3 - 0.1/1.1))
    est = EstimatedPhysical(l_hat=1.0, m_sum_hat=1.1, m_hat=0.1)
    state = PlantState(0.0, 0.0)
    e = ErrorCoords(0.0, 0.0, 0.0)
    hat = adaptive_coefficients(
        est, state, e, 0.0, Gains(2.0, 2.0), Weights(100.0, 0.01), BOUNDS, PARAMS
    )
    b_hat = (1.0 / 1.1) / (1.0 * (4.0 / 3.0 - 0.1 / 1.1))
    assert hat.P == 0.0
    assert hat.Q == pytest.approx(100.0 * b_hat**2 + 0.01, rel=1e-12)


def test_adaptive_coefficients_nonphysical_fallback():
    est = EstimatedPhysical(l_hat=0.5, m_sum_hat=1.0, m_hat=0.0)
    state = PlantState(0.05, 0.1)
    e = ErrorCoords(0.05, 0.2, -0.1)
    gains, weights = Gains(2.0, 2.0), Weights(100.0, 0.01)
    with pytest.warns(UserWarning, match="nonphysical"):
        hat = adaptive_coefficients(est, state, e, 0.0, gains, weights, BOUNDS, PARAMS)
    ref = assemble(
        drift_term(PARAMS, state), gain_term(PARAMS, state), e, 0.0, gains, weights, BOUNDS
    )
    assert hat == ref


def test_initial_state_validation():
    with pytest.raises(ValueError):
        initial_state([1.0, 2.0])
    with pytest.raises(ValueError):
        initial_state(THETA_TRUE, m0_scale=0.0)
