"""Acceptance gate: every release-blocking criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
`prnn-abc verify` output, which runs the same suites) and asserts the
criterion.  Tolerances are pinned here and in prnn_abc.verify; nothing is
deferred to later calibration.
"""

from prnn_abc import verify


def _check(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: " + "; ".join(result.lines))
    assert result.passed, f"{result.name}: " + "; ".join(result.lines)


def test_criterion_1_network_matches_qp_oracle():
    # >= 1000 random frozen QPs, relax to residual 1e-9, |u - clamp(-P/Q)| < 1e-6
    _check(verify.suite_prnn_oracle(seed=0))


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
    _check(verify.suite_rk4_order())


def test_criterion_8c_projection_nonexpansive():
    _check(verify.suite_projection(seed=0))
