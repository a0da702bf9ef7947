"""Recursive least-squares estimator and adaptive coefficient assembly."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oracles import derivatives
from prnn_abc.backstepping import ErrorCoords, Gains, error_coords, reference_at
from prnn_abc.config import RlsOptions, Timing
from prnn_abc.plant import PendulumParams, PlantState, drift_term, gain_term
from prnn_abc import rls, sim
from prnn_abc.qp import Weights, assemble
from prnn_abc.rls import (
    NotYetIdentifiableError,
    RlsState,
    adaptive_coefficients,
    extract_physical,
    initial_state,
    regressor,
    sample,
    true_theta,
    update,
)
from prnn_abc.verify import batch_least_squares, rls_samples_from_trace

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
        assert float(np.asarray(pi) @ THETA_TRUE) == pytest.approx(x2dot, rel=1e-10, abs=1e-10)


def test_sample_is_backward_difference_at_mid_interval():
    prev, state, u = PlantState(0.1, 0.4), PlantState(0.12, 0.3), 2.0
    pi, y = sample(prev, u, state, 0.01, PARAMS.g, 1e-8)
    assert y == pytest.approx(-10.0, rel=1e-12)
    expected = regressor(PlantState(0.11, 0.35), y, u, PARAMS.g)
    assert pi == pytest.approx(expected, rel=1e-12)


def test_sample_below_excitation_gate_is_none():
    rest = PlantState(0.0, 0.0)  # at rest without force the regressor is zero
    assert sample(rest, 0.0, rest, 0.01, PARAMS.g, 1e-8) is None
    pi, y = sample(rest, 0.0, rest, 0.01, PARAMS.g, 0.0)
    assert np.array_equal(pi, np.zeros(3)) and y == 0.0
    # a sample is kept when |Pi| reaches the gate, dropped just below it
    state = PlantState(0.0, 0.01)
    norm = math.hypot(*sample(rest, 1.0, state, 0.01, PARAMS.g, 0.0)[0])
    assert sample(rest, 1.0, state, 0.01, PARAMS.g, norm) is not None
    assert sample(rest, 1.0, state, 0.01, PARAMS.g, np.nextafter(norm, np.inf)) is None


def test_samples_from_trace_rebuild_the_applied_stream(monkeypatch):
    applied = []
    real_update = rls.update

    def recording_update(s, pi, y):
        applied.append((np.array(pi), y))
        return real_update(s, pi, y)

    monkeypatch.setattr(sim.rls, "update", recording_update)
    # a gate high enough to drop some samples, so the rebuilt stream must skip them too
    scenario = replace(
        sim.sinusoid_scenario(),
        adaptive=True,
        timing=Timing(0.001, 0.01, 1.0),
        rls=RlsOptions(excitation_gate=2.0),
    )
    trace, summary = sim.run(scenario)
    assert not summary.aborted
    pis, ys = rls_samples_from_trace(trace, scenario)
    assert 0 < len(applied) < len(trace) - 1
    assert np.array_equal(pis, np.array([pi for pi, _ in applied]))
    assert np.array_equal(ys, np.array([y for _, y in applied]))


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


def test_update_pinned_bits():
    # a full symmetric M, so every product and both halves of each average enter
    s = RlsState(
        theta_hat=(-0.30964842919189284, 1.2232880500730148, 0.33741842646929765),
        M=(
            (93.24572336625452, -11.157615617334901, -22.466222809216383),
            (-11.157615617334901, 81.56836134868813, -37.11270533786734),
            (-22.466222809216383, -37.11270533786734, 25.272357843379595),
        ),
        k=1,
    )
    pi = (-0.4720868372925112, -0.733775612354187, -2.2387593718755583)
    s2 = update(s, pi, -1.1)
    assert s2.theta_hat == (0.07712779806111347, 1.9854421738044463, -0.16372401158137417)
    assert s2.M == (
        (79.49532330945277, -38.25319018426147, -4.649954582032663),
        (-38.25319018426147, 28.17572127428432, -2.0052159368423403),
        (-4.649954582032663, -2.0052159368423403, 2.1879812265740384),
    )
    assert s2.k == 2
    assert all(type(v) is float for v in (*s2.theta_hat, *s2.M[0], *s2.M[1], *s2.M[2]))


def test_update_matches_matrix_form_on_random_spd():
    rng = np.random.default_rng(37)
    for _ in range(1000):
        a = rng.standard_normal((3, 3))
        m = a @ a.T + rng.uniform(0.01, 10.0) * np.eye(3)
        m = 0.5 * (m + m.T)
        theta, pi = rng.standard_normal(3), rng.standard_normal(3) * rng.uniform(0.01, 10.0)
        y = float(rng.standard_normal())
        # the textbook matrix form: G = M Pi / (1 + Pi'M Pi), M -= G Pi'M, symmetrized
        gain = m @ pi / (1.0 + pi @ m @ pi)
        theta_ref = theta + gain * (y - pi @ theta)
        m_ref = (np.eye(3) - np.outer(gain, pi)) @ m
        m_ref = 0.5 * (m_ref + m_ref.T)
        state = RlsState(tuple(theta.tolist()), tuple(map(tuple, m.tolist())))
        s = update(state, tuple(pi.tolist()), y)
        got_theta, got_m = np.asarray(s.theta_hat), np.asarray(s.M)
        assert np.array_equal(got_m, got_m.T)
        assert np.linalg.norm(got_theta - theta_ref) <= 1e-12 * np.linalg.norm(theta_ref)
        assert np.linalg.norm(got_m - m_ref) <= 1e-12 * np.linalg.norm(m_ref)


def test_update_rejects_non_spd_covariance():
    # -10*I makes 1 + Pi'M Pi = -9 for a unit regressor; the check must
    # survive `python -O`, so it is an exception rather than an assert
    minus_ten = ((-10.0, 0.0, 0.0), (0.0, -10.0, 0.0), (0.0, 0.0, -10.0))
    s = RlsState(theta_hat=(0.0, 0.0, 0.0), M=minus_ten)
    with pytest.raises(FloatingPointError, match="positive"):
        update(s, (1.0, 0.0, 0.0), 0.0)


def test_update_consistent_sample_keeps_estimate():
    s = initial_state(THETA_TRUE)
    pi = regressor(PlantState(0.2, 0.5), 1.3, 2.0, PARAMS.g)
    # exact model output, summed in update's order: the innovation is zero
    y = pi[0] * s.theta_hat[0] + pi[1] * s.theta_hat[1] + pi[2] * s.theta_hat[2]
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
    assert np.linalg.norm(np.asarray(s.theta_hat) - THETA_TRUE) < 1e-3
    assert np.linalg.norm(np.asarray(loose.theta_hat) - THETA_TRUE) < 1e-8


def test_recursive_matches_batch_solve():
    pis, ys = _synthetic_samples(200, seed=34)
    theta0 = THETA_TRUE * np.array([1.4, 0.7, 1.2])
    s = initial_state(theta0, m0_scale=100.0)
    for pi, y in zip(pis, ys):
        s = update(s, pi, y)
    batch = batch_least_squares(pis, ys, theta0, m0_scale=100.0)
    assert np.linalg.norm(np.asarray(s.theta_hat) - batch) < 1e-6


def test_covariance_stays_spd_and_trace_shrinks():
    pis, ys = _synthetic_samples(10_000, seed=35, noise=0.05)
    s = initial_state(THETA_TRUE * 1.3)
    prev_trace = float(np.trace(s.M))
    for pi, y in zip(pis, ys):
        s = update(s, pi, y)
        m = np.asarray(s.M)
        assert np.array_equal(m, m.T)
        tr = float(np.trace(m))
        assert tr <= prev_trace + 1e-12
        prev_trace = tr
    assert np.linalg.eigvalsh(np.asarray(s.M)).min() > 0.0
    assert np.all(np.isfinite(s.theta_hat))
    assert np.linalg.norm(np.asarray(s.theta_hat) - THETA_TRUE) < 1.0  # bounded under noise


def test_innovation_mean_square_nonincreasing():
    pis, ys = _synthetic_samples(400, seed=36)
    s = initial_state(THETA_TRUE * 1.3)
    sq = []
    for pi, y in zip(pis, ys):
        sq.append((y - float(np.asarray(pi) @ np.asarray(s.theta_hat))) ** 2)
        s = update(s, pi, y)
    mean_sq = np.cumsum(sq) / np.arange(1, len(sq) + 1)
    assert np.all(np.diff(mean_sq) <= 1e-12)


def test_extract_physical_truth():
    model = extract_physical(THETA_TRUE, 9.8)
    assert model.g == 9.8
    assert model.l == pytest.approx(0.5, rel=1e-12)
    assert model.m_c + model.m == pytest.approx(1.1, rel=1e-12)
    assert model.m == pytest.approx(0.1, rel=1e-12)


def test_extract_physical_zero_mass_flagged():
    # l = 0.5 and m_c + m = 1.0, but m = 0: no realizable pendulum
    assert extract_physical(np.array([0.0, 2.0, 2.0]), 9.8) is None
    # m = 1.2 exceeds m_c + m = 1.0, so m_c < 0
    assert extract_physical(np.array([1.2, 2.0, 2.0]), 9.8) is None


def test_extract_physical_guard():
    with pytest.raises(NotYetIdentifiableError):
        extract_physical(np.array([0.1, 1e-9, 2.0]), 9.8)
    with pytest.raises(NotYetIdentifiableError):
        extract_physical(np.array([0.1, 2.0, -0.5]), 9.8)


def test_adaptive_coefficients_match_nominal_at_truth():
    model = extract_physical(THETA_TRUE, PARAMS.g)
    state = PlantState(0.12, -0.4)
    e = ErrorCoords(s1=0.12, s2=-0.2, gamma1=-0.24)
    gains, weights = Gains(2.0, 2.0), Weights(100.0, 0.01)
    hat = adaptive_coefficients(model, state, e, 0.1, gains, weights, BOUNDS)
    ref = assemble(
        drift_term(PARAMS, state), gain_term(PARAMS, state), e, 0.1, gains, weights, BOUNDS
    )
    assert hat.P == pytest.approx(ref.P, rel=1e-12)
    assert hat.Q == pytest.approx(ref.Q, rel=1e-12)


def test_adaptive_coefficients_doubled_length():
    # hand evaluation at upright rest with l doubled: A=0 so P=0, and
    # Q = T * B_hat^2 + R with B_hat = (1/1.1) / (1.0 * (4/3 - 0.1/1.1))
    model = PendulumParams(m_c=1.0, m=0.1, l=1.0)
    state = PlantState(0.0, 0.0)
    e = ErrorCoords(0.0, 0.0, 0.0)
    hat = adaptive_coefficients(
        model, state, e, 0.0, Gains(2.0, 2.0), Weights(100.0, 0.01), BOUNDS
    )
    b_hat = (1.0 / 1.1) / (1.0 * (4.0 / 3.0 - 0.1 / 1.1))
    assert hat.P == 0.0
    assert hat.Q == pytest.approx(100.0 * b_hat**2 + 0.01, rel=1e-12)


def test_adaptive_coefficients_nonphysical_fallback():
    # theta1 < 0 means m < 0, and the gate keeps the estimate there for the
    # whole run: every period falls back to the nominal QP of the plain run
    base = replace(sim.default_scenario(), timing=replace(Timing(), duration=0.5))
    options = replace(base.rls, warmup_steps=0, theta0=(-0.05, 2.0, 1.8), excitation_gate=1e3)
    with warnings.catch_warnings():
        # the summary flag is the one report, so every run in a process makes it alike
        warnings.simplefilter("error")
        runs = [sim.run(replace(base, adaptive=True, rls=options)) for _ in range(2)]
    (trace, summary), (_, again) = runs
    nominal, _ = sim.run(base)
    assert summary.nonphysical_estimate and again.nonphysical_estimate
    assert len(trace) == len(nominal) == 50
    assert [(r.P, r.Q, r.u) for r in trace] == [(r.P, r.Q, r.u) for r in nominal]


def test_unidentifiable_period_keeps_the_last_model(monkeypatch):
    scenario = replace(
        sim.sinusoid_scenario(),
        adaptive=True,
        seed=1,
        rls=replace(RlsOptions(), warmup_steps=0),
        timing=replace(Timing(), duration=1.0),
    )
    extract = rls.extract_physical
    models, fresh = [], []  # model the loop holds, and the fresh extraction, per period

    def every_other_unidentifiable(theta_hat, g):
        model = extract(theta_hat, g)
        fresh.append(model)
        if len(fresh) % 2 == 0:
            models.append(models[-1])
            raise NotYetIdentifiableError("test: period skipped")
        models.append(model)
        return model

    monkeypatch.setattr(sim.rls, "extract_physical", every_other_unidentifiable)
    trace, summary = sim.run(scenario)
    assert not summary.aborted and len(trace) == len(models) == 100

    def coefficients(model, r):
        refs = reference_at(scenario.reference, r.t)
        state = PlantState(r.x1, r.x2)
        e = error_coords(state, refs, scenario.gains)
        c = adaptive_coefficients(
            model, state, e, refs[2], scenario.gains, scenario.weights, scenario.bounds
        )
        return c.P, c.Q

    for r, model in zip(trace, models):
        assert (r.P, r.Q) == coefficients(model, r)
    # the skipped periods really did use a stale model
    skipped = list(zip(trace, fresh))[1::2]
    assert any((r.P, r.Q) != coefficients(model, r) for r, model in skipped)


def test_initial_state_validation():
    with pytest.raises(ValueError):
        initial_state([1.0, 2.0])
    with pytest.raises(ValueError):
        initial_state(THETA_TRUE, m0_scale=0.0)
