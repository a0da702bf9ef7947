"""Backstepping coordinates, reference signals, Lyapunov functions."""

import math

import numpy as np
import pytest

from oracles import s2_rate
from prnn_abc.backstepping import (
    ErrorCoords,
    Gains,
    ReferenceSignal,
    error_coords,
    exact_feedback,
    ideal_v2_dot,
    lyapunov_v2,
    reference_at,
)
from prnn_abc.plant import PlantState


def test_gains_require_positive():
    with pytest.raises(ValueError, match="c1"):
        Gains(c1=-1.0, c2=1.0)
    with pytest.raises(ValueError, match="c2"):
        Gains(c1=1.0, c2=0.0)


def test_constant_reference():
    assert reference_at(ReferenceSignal(kind="constant", setpoint=0.0), 2.7) == (0.0, 0.0, 0.0)
    assert reference_at(ReferenceSignal(kind="constant", setpoint=0.3), 0.0)[0] == 0.3


def test_sinusoid_reference_at_zero():
    ref = ReferenceSignal(kind="sinusoid", amplitude=0.1, frequency=0.5)
    x1d, dx1d, ddx1d = reference_at(ref, 0.0)
    assert x1d == 0.0
    assert dx1d == pytest.approx(0.1 * 2.0 * math.pi * 0.5, rel=1e-15)
    assert ddx1d == 0.0


def test_smoothstep_reference_endpoints():
    ref = ReferenceSignal(kind="smoothstep", start=0.0, setpoint=0.2, ramp_time=2.0)
    assert reference_at(ref, 0.0) == (0.0, 0.0, 0.0)
    assert reference_at(ref, 2.0) == (0.2, 0.0, 0.0)
    assert reference_at(ref, 5.0) == (0.2, 0.0, 0.0)
    mid = reference_at(ref, 1.0)
    assert mid[0] == pytest.approx(0.1, rel=1e-12)  # odd-symmetric blend


@pytest.mark.parametrize(
    "ref",
    [
        ReferenceSignal(kind="sinusoid", amplitude=0.1, frequency=0.5),
        ReferenceSignal(kind="smoothstep", start=0.1, setpoint=-0.2, ramp_time=1.5),
        ReferenceSignal(kind="constant", setpoint=0.05),
    ],
)
def test_reference_derivatives_consistent(ref):
    h = 1e-4
    for t in np.linspace(2 * h, 3.0, 57):
        xm = reference_at(ref, t - h)[0]
        x0, dx, ddx = reference_at(ref, t)
        xp = reference_at(ref, t + h)[0]
        fd1 = (xp - xm) / (2 * h)
        fd2 = (xp - 2 * x0 + xm) / h**2
        assert fd1 == pytest.approx(dx, abs=1e-5)
        assert fd2 == pytest.approx(ddx, abs=1e-3)


def test_smoothstep_is_c2_at_ramp_end():
    ref = ReferenceSignal(kind="smoothstep", start=0.3, setpoint=0.0, ramp_time=2.0)
    eps = 1e-9
    before = reference_at(ref, 2.0 - eps)
    after = reference_at(ref, 2.0 + eps)
    for b, a in zip(before, after):
        assert b == pytest.approx(a, abs=1e-6)


def test_reference_validation():
    with pytest.raises(ValueError):
        ReferenceSignal(kind="triangle")
    with pytest.raises(ValueError):
        ReferenceSignal(kind="sinusoid", amplitude=0.1, frequency=0.0)
    with pytest.raises(ValueError):
        ReferenceSignal(kind="smoothstep", ramp_time=0.0)


def test_smoothstep_ramp_whose_square_underflows_rejected():
    # ramp_time**2 divides the second derivative; at 1e-200 it is 0.0
    with pytest.raises(ValueError, match="ramp_time > 0"):
        ReferenceSignal(kind="smoothstep", ramp_time=1e-200)
    ReferenceSignal(kind="smoothstep", ramp_time=1e-150)


def test_error_coords_examples():
    gains = Gains(c1=2.0, c2=2.0)
    e = error_coords(PlantState(0.2, 0.0), (0.1, 0.0, 0.0), gains)
    assert e.s1 == pytest.approx(0.1, rel=1e-14)

    e = error_coords(PlantState(0.3, 0.5), (0.3, 0.5, 0.0), gains)
    assert (e.s1, e.gamma1, e.s2) == (0.0, -0.0, 0.0)

    e = error_coords(PlantState(0.1, 0.0), (0.0, 0.0, 0.0), gains)
    assert e.gamma1 == pytest.approx(-0.2, rel=1e-14)
    assert e.s2 == pytest.approx(0.2, rel=1e-14)


def test_error_coords_identities():
    # S1 = x1 - x1d, gamma1 = -c1*S1, S2 = x2 - dx1d - gamma1, and the
    # kinematic identity dS1/dt = x2 - dx1d = S2 + gamma1
    rng = np.random.default_rng(3)
    gains = Gains(c1=1.7, c2=0.9)
    for _ in range(100):
        state = PlantState(rng.uniform(-1, 1), rng.uniform(-3, 3))
        refs = tuple(rng.uniform(-1, 1, 3))
        e = error_coords(state, refs, gains)
        assert e.s1 == state.x1 - refs[0]
        assert e.gamma1 == -gains.c1 * e.s1
        assert e.s2 == state.x2 - refs[1] - e.gamma1
        assert state.x2 - refs[1] == pytest.approx(e.s2 + e.gamma1, rel=1e-12, abs=1e-15)


def test_error_coords_linear_in_state():
    gains = Gains(c1=2.5, c2=1.0)
    refs = (0.1, -0.2, 0.0)

    def coords(x1, x2):
        e = error_coords(PlantState(x1, x2), refs, gains)
        return np.array([e.s1, e.s2, e.gamma1])

    base = coords(0.0, 0.0)
    e10 = coords(1.0, 0.0) - base
    e01 = coords(0.0, 1.0) - base
    rng = np.random.default_rng(4)
    for _ in range(50):
        x1, x2 = rng.uniform(-2, 2, 2)
        expect = base + x1 * e10 + x2 * e01
        assert np.allclose(coords(x1, x2), expect, rtol=0, atol=1e-12)


def test_error_coords_are_immutable_values():
    e = error_coords(PlantState(0.3, -0.2), (0.1, 0.05, 0.0), Gains(c1=2.0, c2=1.0))
    s1 = 0.3 - 0.1
    assert e == ErrorCoords(s1=s1, s2=-0.2 - 0.05 + 2.0 * s1, gamma1=-2.0 * s1)
    for name in ("s1", "s2", "gamma1"):
        with pytest.raises(AttributeError):
            setattr(e, name, 0.0)
    assert (e.s1, e.s2, e.gamma1) == tuple(e)


def test_lyapunov_values():
    assert lyapunov_v2(ErrorCoords(0.0, 0.0, 0.0)) == 0.0
    assert lyapunov_v2(ErrorCoords(1.0, 1.0, 0.0)) == 1.0
    assert lyapunov_v2(ErrorCoords(0.3, -0.4, 0.0)) == pytest.approx(0.125, rel=1e-15)


def test_ideal_v2_dot_values():
    assert ideal_v2_dot(ErrorCoords(0.0, 0.0, 0.0), Gains(2.0, 2.0)) == 0.0
    assert ideal_v2_dot(ErrorCoords(1.0, 0.0, 0.0), Gains(2.0, 2.0)) == -2.0
    assert ideal_v2_dot(ErrorCoords(0.5, 0.5, 0.0), Gains(1.0, 3.0)) == pytest.approx(-1.0)


def test_ideal_v2_dot_never_positive():
    rng = np.random.default_rng(5)
    gains = Gains(c1=0.3, c2=4.0)
    for _ in range(200):
        e = ErrorCoords(rng.uniform(-5, 5), rng.uniform(-5, 5), 0.0)
        assert ideal_v2_dot(e, gains) <= 0.0


def test_exact_feedback_cancels_to_ideal_rate():
    # u from exact_feedback makes s2_rate equal -c2*S2 - S1, i.e. V2dot ideal
    rng = np.random.default_rng(6)
    gains = Gains(c1=1.3, c2=2.1)
    for _ in range(100):
        a, b = rng.uniform(-5, 5), rng.uniform(0.5, 2.0)
        ddx1d = rng.uniform(-1, 1)
        e = ErrorCoords(rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0)
        u = exact_feedback(a, b, ddx1d, e, gains)
        ds2 = s2_rate(a, b, u, ddx1d, e, gains)
        # A + B u - ddx1d + c1 S2 - c1^2 S1 == -c2 S2 - S1 under the law
        assert ds2 == pytest.approx(-gains.c2 * e.s2 - e.s1, rel=1e-9, abs=1e-12)
