"""Acceptance gate: every release-blocking criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
`prnn-abc verify` output, which runs the same suites) and asserts the
criterion.  Tolerances are pinned here and in prnn_abc.verify; nothing is
deferred to later calibration.  The tests after the criteria pin the
exact solution that criterion 8b measures the integrator against.
"""

import math
from dataclasses import replace

import pytest

from prnn_abc import plant, verify
from prnn_abc.plant import PendulumParams, PlantState


def _check(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}: " + "; ".join(result.lines))
    assert result.passed, "; ".join(result.lines)


def test_criterion_1_network_matches_qp_oracle():
    # >= 1000 random frozen QPs, relax to residual 1e-9, |u - clamp(-P/Q)| < 1e-6
    _check(verify.suite_prnn_oracle(seed=0))


@pytest.mark.parametrize("seed", [1, 7, 12345, 2**31 - 1])
def test_criterion_1_every_qp_reaches_its_tolerance(seed):
    # relax_until extends a stop that rounding leaves just above 1e-9, so no
    # QP counts as unconverged at any seed (the benchmark draws seeds below 2**31)
    result = verify.suite_prnn_oracle(seed=seed)
    assert result.details["unconverged"] == 0
    _check(result)


def test_criterion_2_interior_exponential_decay():
    # fitted decay rate within 0.1% of vartheta for {1, 10, 100}; settle time
    # strictly decreasing in vartheta
    _check(verify.suite_prnn_decay())


def test_criterion_3_backstepping_lyapunov_identity():
    # exact-feedback runs: |finite-difference dV2/dt + c1 S1^2 + c2 S2^2|
    # <= 10*dt + 1e-6 at every step, 3 gain settings x 2 references
    _check(verify.suite_lyapunov())


def test_criterion_4_closed_loop_stabilization():
    # 0.1 rad initial angle, defaults: |x1| < 0.01 rad within 5 s, control
    # inside +-30 N at every sample, V2 monitor clean after the transient
    _check(verify.suite_stabilization())


def test_criterion_5_effort_weight_consistency():
    # R in {1, 0.1, 0.01, 0.001}: max |u_prnn - u_exact| decreases
    # monotonically and ends below 1e-2 N
    _check(verify.suite_r_consistency())


def test_criterion_6_rls_convergence_and_batch_equivalence():
    # excited noise-free run, 30% perturbed start: final relative estimate
    # error < 1%, recursive result within 1e-6 of a direct batch solve
    _check(verify.suite_rls_batch(seed=0))


def test_criterion_7_saturation_handling():
    # +-2 N bounds from 0.15 rad: control rides the bound, never crosses it,
    # |x1| < 0.02 rad by 10 s
    _check(verify.suite_saturation())


def test_criterion_8a_gradient_matches_finite_differences():
    _check(verify.suite_gradient(seed=0))


def test_criterion_8b_integrator_fourth_order():
    # endpoint gaps over dt in {4, 2, 1, 0.5} ms shrink 12-20x per halving;
    # the finest endpoint lies within 1e-10 of the exact solution
    _check(verify.suite_rk4_order())


def test_criterion_8c_projection_nonexpansive():
    _check(verify.suite_projection(seed=0))


def test_rk4_exact_endpoint_matches_a_30_digit_solution():
    mpmath = pytest.importorskip("mpmath")
    p = PendulumParams()
    with mpmath.workdps(30):
        # the doubles the plant integrates with, taken exactly
        g, m_c, m, l, x10, t_end = map(mpmath.mpf, (p.g, p.m_c, p.m, p.l, 0.1, 0.5))
        m_sum = m_c + m

        def rhs(t, x):
            s, c = mpmath.sin(x[0]), mpmath.cos(x[0])
            den = l * (mpmath.mpf(4) / 3 - m * c**2 / m_sum)
            return [x[1], (g * s - m * l * x[1] ** 2 * c * s / m_sum) / den]

        end = [float(v) for v in mpmath.odefun(rhs, 0, [x10, mpmath.mpf(0)])(t_end)]
    for got, want in zip(end, verify.RK4_EXACT_ENDPOINT):
        assert abs(got - want) <= math.ulp(want)


def test_fine_rk4_run_lands_on_the_exact_endpoint():
    # 100,000 RK4 steps at dt = 5e-6 have no truncation error left at this
    # scale, so plant.step and the 30-digit constant must agree to roundoff
    dt = 5e-6
    rows = [[0.0, 0.0, 0.0]] * 100_000
    end = plant.step(PendulumParams(), PlantState(0.1, 0.0), 0.0, 0.0, dt, rows)
    x1, x2 = verify.RK4_EXACT_ENDPOINT
    assert abs(end.x1 - x1) < 1e-13
    assert abs(end.x2 - x2) < 1e-13


def test_rk4_order_fails_when_the_plant_integrates_another_ode(monkeypatch):
    # a gravity 1e-6 too large keeps the step-halving ratios near 16, and only
    # the exact endpoint tells the two ODEs apart
    step = plant.step

    def step_with_wrong_gravity(params, *args):
        return step(replace(params, g=params.g * (1.0 + 1e-6)), *args)

    monkeypatch.setattr(plant, "step", step_with_wrong_gravity)
    result = verify.suite_rk4_order()
    assert result.details["halving_ratio_min"] > 12.0
    assert result.details["reference_gap"] > 1e-6
    assert not result.passed
