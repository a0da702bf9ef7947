"""Plant dynamics: closed-form terms, RK4 integration, disturbances."""

import itertools
import math
import warnings

import numpy as np
import pytest

import prnn_abc.plant as plant_module
from oracles import derivatives, mechanical_energy, random_disturbance
from prnn_abc.plant import (
    DisturbanceSpec,
    IntegrationBlowupError,
    PendulumParams,
    PlantState,
    disturbance_value,
    drift_term,
    gain_term,
    step,
)

PARAMS = PendulumParams()
NO_DIST = DisturbanceSpec()
# one of each disturbance kind
SPECS = [
    NO_DIST,
    DisturbanceSpec(kind="constant", amplitude=0.4),
    DisturbanceSpec(kind="sinusoid", amplitude=0.8, frequency=1.3),
    DisturbanceSpec(kind="bounded-uniform-random", amplitude=0.5, seed=3),
]



def _step(state, u, spec, t, dt, steps=1):
    """plant.step over the disturbance rows of spec, as the loop in `sim` hands them."""
    (stages,) = plant_module.stage_disturbance(spec, t, dt, steps)
    return step(PARAMS, state, u, t, dt, stages)


# frozen against a 50-digit evaluation of the closed forms (Table-1 constants)
A_AT_01_05 = 1.5719695314556947
A_AT_01_00 = 1.5737853048016258
B_AT_0 = 1.4634146341463414
B_AT_01 = 1.4550425353903955


def test_params_default_values():
    assert (PARAMS.g, PARAMS.m_c, PARAMS.m, PARAMS.l) == (9.8, 1.0, 0.1, 0.5)


@pytest.mark.parametrize("field", ["g", "m_c", "m", "l"])
def test_params_reject_nonpositive(field):
    with pytest.raises(ValueError):
        PendulumParams(**{field: 0.0})


def test_drift_zero_at_origin():
    assert drift_term(PARAMS, PlantState(0.0, 0.0)) == 0.0


def test_drift_at_right_angle():
    # cos(pi/2) kills the velocity term and the denominator correction:
    # A = g / (l * 4/3) = 9.8 / (0.5 * 4/3) = 14.7
    assert drift_term(PARAMS, PlantState(math.pi / 2, 0.0)) == pytest.approx(14.7, rel=1e-12)


def test_drift_frozen_high_precision_point():
    assert drift_term(PARAMS, PlantState(0.1, 0.5)) == pytest.approx(A_AT_01_05, rel=1e-14)


def test_gain_at_origin_direct_arithmetic():
    expected = (1.0 / 1.1) / (0.5 * (4.0 / 3.0 - 0.1 / 1.1))
    assert gain_term(PARAMS, PlantState(0.0, 0.0)) == pytest.approx(expected, rel=1e-15)
    assert gain_term(PARAMS, PlantState(0.0, 0.0)) == pytest.approx(B_AT_0, rel=1e-14)


def test_gain_vanishes_at_right_angle():
    assert abs(gain_term(PARAMS, PlantState(math.pi / 2, 0.0))) < 1e-15


def test_gain_even_in_angle():
    assert gain_term(PARAMS, PlantState(-0.3, 0.0)) == gain_term(PARAMS, PlantState(0.3, 0.0))


def test_drift_odd_in_angle_at_rest():
    rng = np.random.default_rng(7)
    for x1 in rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, 200):
        plus = drift_term(PARAMS, PlantState(x1, 0.0))
        minus = drift_term(PARAMS, PlantState(-x1, 0.0))
        assert minus == pytest.approx(-plus, rel=1e-12, abs=1e-14)


def test_gain_positive_and_even_inside_half_plane():
    rng = np.random.default_rng(8)
    for x1 in rng.uniform(0.0, math.pi / 2 - 1e-6, 200):
        b = gain_term(PARAMS, PlantState(x1, 0.0))
        assert b > 0.0
        assert gain_term(PARAMS, PlantState(-x1, 0.0)) == b
    # m/(m_c+m) < 1, so the denominator l*(4/3 - m*cos(x1)**2/(m_c+m)) stays
    # above l/3 even at x1 = 0, where it is smallest, and when m dwarfs m_c:
    # PendulumParams need only check that each value is positive
    m_c, ratio, l = 10.0 ** rng.uniform([-3, 1, -3], [3, 6, 3], (100, 3)).T
    for m_c, m, l in zip(m_c, ratio * m_c, l):
        params = PendulumParams(m_c=m_c, m=m, l=l)
        assert plant_module._denominator(params, 0.0) > l / 3
        assert gain_term(params, PlantState(0.0, 0.0)) > 0.0


def test_derivatives_equilibrium_and_gain():
    assert derivatives(PARAMS, PlantState(0.0, 0.0), 0.0) == (0.0, 0.0)
    dx1, dx2 = derivatives(PARAMS, PlantState(0.0, 0.0), 1.0)
    assert dx1 == 0.0
    assert dx2 == pytest.approx(B_AT_0, rel=1e-14)


def test_derivatives_additive_disturbance():
    base = derivatives(PARAMS, PlantState(0.1, 0.0), 0.0, 0.0)[1]
    assert base == pytest.approx(A_AT_01_00, rel=1e-14)
    assert derivatives(PARAMS, PlantState(0.1, 0.0), 0.0, 0.5)[1] == base + 0.5


def test_derivatives_affine_in_control():
    rng = np.random.default_rng(9)
    for _ in range(100):
        state = PlantState(rng.uniform(-1.2, 1.2), rng.uniform(-5, 5))
        u1, u2 = rng.uniform(-30, 30, 2)
        b = gain_term(PARAMS, state)
        d1 = derivatives(PARAMS, state, u1)[1]
        d2 = derivatives(PARAMS, state, u2)[1]
        scale = 1.0 + abs(d1) + abs(d2)
        assert abs((d2 - d1) - b * (u2 - u1)) < 1e-12 * scale


def test_derivatives_match_drift_plus_gain_times_u():
    # the oracle (and so plant.step) writes A + B*u over one denominator;
    # it must stay the model that drift_term and gain_term give the controller
    rng = np.random.default_rng(23)
    for _ in range(5000):
        g, m_c, m, l = rng.uniform([1, 0.1, 0.01, 0.1], [20, 10, 5, 2]).tolist()
        params = PendulumParams(g, m_c, m, l)
        state = PlantState(float(rng.uniform(-1.55, 1.55)), float(rng.uniform(-20, 20)))
        u, d = float(rng.uniform(-100, 100)), float(rng.uniform(-5, 5))
        a, bu = drift_term(params, state), gain_term(params, state) * u
        assert abs(derivatives(params, state, u, d)[1] - (a + bu + d)) <= 1e-13 * (
            abs(a) + abs(bu) + abs(d)
        )


def test_rewritten_acceleration_identity():
    # A + B*u equals the three-term rewrite with x2dot substituted
    # self-consistently; the forms are algebraically identical.
    rng = np.random.default_rng(10)
    m, m_sum, g, l = PARAMS.m, PARAMS.m_c + PARAMS.m, PARAMS.g, PARAMS.l
    for _ in range(300):
        x1 = rng.uniform(-1.4, 1.4)
        x2 = rng.uniform(-6, 6)
        u = rng.uniform(-40, 40)
        lhs = drift_term(PARAMS, PlantState(x1, x2)) + gain_term(PARAMS, PlantState(x1, x2)) * u
        c, s = math.cos(x1), math.sin(x1)
        rhs = (
            0.75 * (m / m_sum) * (lhs * c * c - x2 * x2 * c * s)
            + (3.0 * g / (4.0 * l)) * s
            + 3.0 * c * u / (4.0 * l * m_sum)
        )
        assert abs(lhs - rhs) < 1e-9 * (1.0 + abs(lhs))


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
def test_step_non_finite_force_is_blowup_naming_u_and_t(u):
    with pytest.raises(IntegrationBlowupError) as info:
        _step(PlantState(0.1, 0.0), u, NO_DIST, 0.25, 0.001, 10)
    assert str(info.value) == f"non-finite force u={u!r} at t=0.250000"


def test_step_fixed_point_at_origin():
    state = PlantState(0.0, 0.0)
    for k in range(50):
        state = _step(state, 0.0, NO_DIST, k * 0.01, 0.01)
    assert state == PlantState(0.0, 0.0)


def _integrate(x10, dt, horizon, u=0.0):
    state = PlantState(x10, 0.0)
    for k in range(round(horizon / dt)):
        state = _step(state, u, NO_DIST, k * dt, dt)
    return state


def test_step_fourth_order_convergence():
    # unforced fall from 0.1 rad stays bounded (energy is conserved), so the
    # 1 s endpoint is a clean step-halving probe
    ends = [_integrate(0.1, dt, 1.0) for dt in (0.004, 0.002, 0.001, 0.0005)]
    gaps = [
        math.hypot(a.x1 - b.x1, a.x2 - b.x2) for a, b in zip(ends, ends[1:])
    ]
    for g1, g2 in zip(gaps, gaps[1:]):
        assert 12.0 < g1 / g2 < 20.0


def test_step_matches_fine_reference():
    coarse = _integrate(0.05, 0.001, 1.0)
    fine = _integrate(0.05, 0.00001, 1.0)
    assert coarse.x1 == pytest.approx(fine.x1, abs=1e-10)
    assert coarse.x2 == pytest.approx(fine.x2, abs=1e-9)


def test_open_loop_diverges_from_upright():
    xs = [0.1]
    state = PlantState(0.1, 0.0)
    for k in range(1000):
        state = _step(state, 0.0, NO_DIST, k * 0.001, 0.001)
        xs.append(state.x1)
    assert abs(xs[-1]) > 0.1
    assert all(b >= a for a, b in zip(xs[:200], xs[1:201]))  # initially monotone


def test_energy_drift_shrinks_at_fourth_order():
    e0 = mechanical_energy(PARAMS, PlantState(0.1, 0.0))
    drifts = []
    for dt in (0.004, 0.002, 0.001):
        end = _integrate(0.1, dt, 1.0)
        drifts.append(abs(mechanical_energy(PARAMS, end) - e0))
    for d1, d2 in zip(drifts, drifts[1:]):
        assert 12.0 < d1 / d2 < 20.0


def test_step_blowup_raises_with_time():
    with pytest.raises(IntegrationBlowupError, match="t="):
        state = PlantState(1.0, 100.0)
        for k in range(200):
            state = _step(state, 0.0, NO_DIST, k * 1e6, 1e6)


def test_step_blowup_from_stage_overflow():
    # x2**2 overflows in the first stage: a float OverflowError inside the step
    with pytest.raises(IntegrationBlowupError, match="t=") as info:
        _step(PlantState(1.0, 1e200), 0.0, NO_DIST, 0.0, 0.001)
    assert isinstance(info.value.__cause__, OverflowError)


def test_step_blowup_from_infinite_stage_angle():
    # finite inputs whose second stage angle x1 + dt/2 * x2 is inf, so
    # math.sin raises ValueError inside the step
    with pytest.raises(IntegrationBlowupError, match="t=") as info:
        _step(PlantState(1e308, 1e150), 0.0, NO_DIST, 0.0, 1e160)
    assert type(info.value.__cause__) is ValueError


def test_step_blowup_at_the_end_of_a_sub_step():
    # every stage is finite, but their weighted sum overflows: the check after
    # the sub-step fires, not the one around the stages
    with pytest.raises(IntegrationBlowupError, match="t=0.000000") as info:
        step(PendulumParams(), PlantState(0, 0), 1e308, 0.0, 1e-300, [[0, 0, 0]])
    assert info.value.__cause__ is None


def _textbook_stages(state, u, dt, row):
    """The four RK4 stages (dx1, dx2) of one step over the oracle derivatives, lazily.

    row holds d at the start, middle (k2 and k3) and end of the step.
    """
    d_start, d_mid, d_end = row
    x1, x2 = state.x1, state.x2
    k = derivatives(PARAMS, state, u, d_start)
    yield k
    k = derivatives(PARAMS, PlantState(x1 + 0.5 * dt * k[0], x2 + 0.5 * dt * k[1]), u, d_mid)
    yield k
    k = derivatives(PARAMS, PlantState(x1 + 0.5 * dt * k[0], x2 + 0.5 * dt * k[1]), u, d_mid)
    yield k
    yield derivatives(PARAMS, PlantState(x1 + dt * k[0], x2 + dt * k[1]), u, d_end)


def _textbook_rk4(state, u, dt, rows):
    """Textbook RK4, one step per row; raises where an oracle stage leaves the finite range."""
    for row in rows:
        k1, k2, k3, k4 = _textbook_stages(state, u, dt, row)
        state = PlantState(
            state.x1 + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
            state.x2 + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        )
    return state


@pytest.mark.parametrize("steps", [1, 10, 37])
def test_step_stage_copies_match_textbook_rk4(steps):
    # plant.step writes the stage acceleration out four times; exact
    # equality with one oracle, on rows whose three values differ, fails as
    # soon as one copy is edited alone (a d or an x2 swapped, x*x for x**2).
    # Steps up to 1.0 keep a one-ulp stage difference from rounding away.
    rng = np.random.default_rng(1600 + steps)
    compared = 0
    for _ in range(400):
        state = PlantState(float(rng.uniform(-1.4, 1.4)), float(rng.uniform(-6, 6)))
        u = float(rng.uniform(-40, 40))
        t = float(rng.uniform(0, 10))
        dt = float(rng.choice([1e-3, 1e-2, 0.1, 0.5, 1.0]))
        rows = rng.uniform(-2, 2, (steps, 3)).tolist()
        try:
            expected = _textbook_rk4(state, u, dt, rows)
        except (OverflowError, ValueError):
            expected = None
        if expected is None or not (math.isfinite(expected.x1) and math.isfinite(expected.x2)):
            with pytest.raises(IntegrationBlowupError):
                step(PARAMS, state, u, t, dt, rows)
            continue
        assert step(PARAMS, state, u, t, dt, rows) == expected
        compared += 1
    assert compared >= 300


def _first_overflow(state, u, dt, rows):
    """(sub-step, stage) at which the oracle RK4 first raises OverflowError."""
    for i, row in enumerate(rows):
        stages = _textbook_stages(state, u, dt, row)
        for stage in range(1, 5):
            try:
                next(stages)
            except OverflowError:
                return i, stage
        state = _textbook_rk4(state, u, dt, [row])
    return None


@pytest.mark.parametrize(
    "stage, x2, u, dt, substep",
    [(1, 1.0, 100.0, 1.0, 5), (2, 1.0, 1000.0, 1.0, 2), (3, 10.0, 1000.0, 0.5, 2), (4, 1.0, 1000.0, 0.5, 2)],
)
def test_step_blowup_in_each_stage_names_its_substep(stage, x2, u, dt, substep):
    # a large finite u grows x2 until the squared velocity of the given
    # stage overflows first, in a later sub-step of one multi-step call
    state, t, rows = PlantState(0.1, x2), 0.25, [[0.0, 0.0, 0.0]] * 6
    assert _first_overflow(state, u, dt, rows) == (substep, stage)
    with pytest.raises(IntegrationBlowupError) as info:
        step(PARAMS, state, u, t, dt, rows)
    assert str(info.value) == f"plant state became non-finite at t={t + substep * dt:.6f}"
    assert isinstance(info.value.__cause__, OverflowError)


def _reference_step(state, u, spec, t, dt):
    """Textbook RK4 over the oracle derivatives, sampling d at all four stages."""

    def f(x1, x2, ts):
        return derivatives(PARAMS, PlantState(x1, x2), u, disturbance_value(spec, ts))

    x1, x2 = state.x1, state.x2
    k1 = f(x1, x2, t)
    k2 = f(x1 + 0.5 * dt * k1[0], x2 + 0.5 * dt * k1[1], t + 0.5 * dt)
    k3 = f(x1 + 0.5 * dt * k2[0], x2 + 0.5 * dt * k2[1], t + 0.5 * dt)
    k4 = f(x1 + dt * k3[0], x2 + dt * k3[1], t + dt)
    return PlantState(
        x1 + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        x2 + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
    )


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
def test_step_bit_identical_to_reference_rk4(spec):
    # exact equality pins the fused step to the expression order of the
    # oracle derivatives; large steps keep a one-ulp stage difference
    # from being rounded away in x + dt/6 * (...)
    rng = np.random.default_rng(11)
    for _ in range(500):
        state = PlantState(rng.uniform(-1.4, 1.4), rng.uniform(-6, 6))
        u = rng.uniform(-40, 40)
        t = rng.uniform(0, 10)
        dt = rng.choice([1e-3, 1e-2, 0.1, 1.0])
        assert _step(state, u, spec, t, dt) == _reference_step(state, u, spec, t, dt)


@pytest.mark.parametrize("steps", [1, 10, 37])
@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
def test_multi_step_bit_identical_to_step_loop(spec, steps):
    rng = np.random.default_rng(steps)
    for _ in range(50):
        state = PlantState(float(rng.uniform(-1.4, 1.4)), float(rng.uniform(-6, 6)))
        u = float(rng.uniform(-40, 40))
        t = float(rng.uniform(0, 10))
        dt = float(rng.choice([1e-3, 1e-2, 0.05]))
        expected = state
        for i in range(steps):
            expected = _step(expected, u, spec, t + i * dt, dt)
        assert _step(state, u, spec, t, dt, steps) == expected


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
def test_multi_step_samples_time_invariant_disturbance_once(monkeypatch, spec):
    # the rows of a multi-step call come from at most one disturbance_at call:
    # none for a time-invariant kind, whose rows hold its one value, and one
    # over the call's whole stage grid for a time-varying kind; step then
    # reads the rows and samples nothing itself
    grids = []
    sample_at = plant_module.disturbance_at

    def counting_at(spec, times):
        grids.append(np.array(times))
        return sample_at(spec, times)

    monkeypatch.setattr(plant_module, "disturbance_at", counting_at)
    dt, steps = 0.001, 10
    for t in (0.0, 0.37, 1.2345):
        grids.clear()
        (stages,) = plant_module.stage_disturbance(spec, t, dt, steps)
        if spec.kind in ("none", "constant"):
            assert grids == []
            assert stages == [[disturbance_value(spec, 0.0)] * 3] * steps
        else:
            (grid,) = grids
            expected = [
                [(ti + offset).hex() for offset in (0.0, 0.5 * dt, dt)]
                for ti in (t + i * dt for i in range(steps))
            ]
            assert [[[v.hex() for v in row] for row in rows] for rows in grid.tolist()] == [
                expected
            ]
        grids.clear()
        step(PARAMS, PlantState(0.1, 0.0), 1.0, t, dt, stages)
        assert grids == []


def test_stage_times_match_step_arithmetic():
    # a whole run's grid, from period starts k*period as the loop forms them,
    # with each stage time rounded as the one IEEE operation step's t_i is
    period, dt, substeps, periods = 0.01, 0.001, 10, 120
    grid = plant_module.stage_times([k * period for k in range(periods)], dt, substeps)
    assert grid.shape == (periods, substeps, 3)
    for k, period_rows in enumerate(grid.tolist()):
        for i, row in enumerate(period_rows):
            ti = k * period + i * dt
            assert [v.hex() for v in row] == [ti.hex(), (ti + 0.5 * dt).hex(), (ti + dt).hex()]
    one = plant_module.stage_times(0.37, dt, substeps)
    assert np.array_equal(one, plant_module.stage_times(np.array([0.37]), dt, substeps)[0])


def test_random_disturbance_matches_scalar_oracle_over_a_run():
    # the vectorized stream against the integer SplitMix64 restatement, at
    # every stage time of a 1.2 s run of 10 sub-steps per period
    spec = DisturbanceSpec(kind="bounded-uniform-random", amplitude=0.3, seed=2**63 + 11)
    grid = plant_module.stage_times(np.arange(120) * 0.01, 0.001, 10)
    values = plant_module.disturbance_at(spec, grid)
    assert values.shape == grid.shape
    for t, value in zip(grid.ravel().tolist(), values.ravel().tolist()):
        assert value.hex() == random_disturbance(spec.seed, spec.amplitude, t).hex()


def test_random_disturbance_of_one_time_raises_no_warning():
    # numpy scalar uint64 products warn on overflow; arrays wrap silently
    spec = DisturbanceSpec(kind="bounded-uniform-random", amplitude=1.0, seed=7)
    expected = random_disturbance(7, 1.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for times in (0.5, np.float64(0.5), np.array(0.5), np.array([0.5]), np.array([[0.5]])):
            values = plant_module.disturbance_at(spec, times)
            assert values.shape == np.shape(times)
            assert float(values.ravel()[0]) == expected
        assert disturbance_value(spec, 0.5) == expected


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
def test_disturbance_sampler_matches_disturbance_value(spec):
    # disturbance_value samples one time in any order, bit for bit as the
    # kind's closed form; the sinusoid keeps the left-to-right product
    rng = np.random.default_rng(5)
    times = [0.0, -0.0, 1e-300, 5e-324, -2.5, 1e6] + [float(t) for t in rng.uniform(-10, 10, 200)]
    closed_form = {
        "none": lambda t: 0.0,
        "constant": lambda t: spec.amplitude,
        "sinusoid": lambda t: spec.amplitude * math.sin(2.0 * math.pi * spec.frequency * t),
        "bounded-uniform-random": lambda t: random_disturbance(spec.seed, spec.amplitude, t),
    }[spec.kind]
    for t in times + times[::-1]:
        assert disturbance_value(spec, t).hex() == closed_form(t).hex()
    # the vectorized form, entry for entry, over the same odd times
    vector = plant_module.disturbance_at(spec, np.array(times)).tolist()
    assert [v.hex() for v in vector] == [disturbance_value(spec, t).hex() for t in times]


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
def test_stage_disturbance_is_disturbance_at_stage_times(spec):
    # the rows step reads, for one period and for a whole run of periods, as
    # Python floats bit for bit equal to the sampler at the stage times
    dt, steps = 0.001, 10
    for t, periods, period in ((0.37, 1, 0.0), (0.0, 120, 0.01), (0.25, 7, 0.01)):
        rows = list(plant_module.stage_disturbance(spec, t, dt, steps, periods, period))
        starts = [t + k * period for k in range(periods)]
        expected = plant_module.disturbance_at(spec, plant_module.stage_times(starts, dt, steps))
        assert [[[v.hex() for v in row] for row in period] for period in rows] == [
            [[v.hex() for v in row] for row in period] for period in expected.tolist()
        ]
        assert all(type(v) is float for period in rows for row in period for v in row)
        if spec.kind in ("none", "constant"):
            # one shared list of rows: no grid in memory
            assert all(period is rows[0] for period in rows)


def test_multi_step_blowup_reports_failing_substep_time():
    # x2**2 overflows in the first stage of sub-step 8 of 10
    state, t, dt = PlantState(-0.4389668639417583, 61.15905286903185), 0.25, 0.5243606518220018
    message = f"plant state became non-finite at t={t + 8 * dt:.6f}"
    probe = state
    for i in range(8):
        probe = _step(probe, 0.0, NO_DIST, t + i * dt, dt)
    with pytest.raises(IntegrationBlowupError) as looped:
        _step(probe, 0.0, NO_DIST, t + 8 * dt, dt)
    with pytest.raises(IntegrationBlowupError) as fused:
        _step(state, 0.0, NO_DIST, t, dt, 10)
    assert str(looped.value) == str(fused.value) == message
    assert isinstance(fused.value.__cause__, OverflowError)


@pytest.mark.parametrize("steps", [0, -1])
def test_step_rejects_fewer_than_one_step(steps):
    with pytest.raises(ValueError, match="steps"):
        step(PARAMS, PlantState(0.1, 0.0), 0.0, 0.0, 0.001, [[0.0, 0.0, 0.0]] * steps)


def test_disturbance_kinds():
    assert disturbance_value(DisturbanceSpec(), 3.0) == 0.0
    assert disturbance_value(DisturbanceSpec(kind="constant", amplitude=1.5), 3.0) == 1.5
    sin = DisturbanceSpec(kind="sinusoid", amplitude=2.0, frequency=0.25)
    assert disturbance_value(sin, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert disturbance_value(sin, 0.0) == 0.0


def test_random_disturbance_deterministic_and_bounded():
    spec = DisturbanceSpec(kind="bounded-uniform-random", amplitude=0.7, seed=42)
    values = [disturbance_value(spec, t) for t in np.linspace(0.0, 1.0, 97)]
    again = [disturbance_value(spec, t) for t in np.linspace(0.0, 1.0, 97)]
    assert values == again
    assert all(abs(v) <= 0.7 for v in values)
    assert len(set(values)) > 90  # distinct times give fresh draws
    other = DisturbanceSpec(kind="bounded-uniform-random", amplitude=0.7, seed=43)
    assert disturbance_value(other, 0.5) != disturbance_value(spec, 0.5)


def test_random_disturbance_golden_values():
    # SplitMix64 of (seed, bits of t); pinned so the stream cannot drift unnoticed
    def draw(seed, t):
        spec = DisturbanceSpec(kind="bounded-uniform-random", amplitude=1.0, seed=seed)
        return disturbance_value(spec, t)

    assert draw(0, 0.0) == -0.4364774045548301
    assert draw(7, 0.5) == 0.37397756259167036
    assert draw(2**40, 1.2345) == 0.03358515218094671


def test_random_disturbance_uniform_statistics():
    amplitude = 0.5
    ts = np.arange(20_000) * 1e-3
    streams = []
    for seed in (0, 1, 2**40):
        spec = DisturbanceSpec(kind="bounded-uniform-random", amplitude=amplitude, seed=seed)
        values = plant_module.disturbance_at(spec, ts)
        assert np.all(np.abs(values) <= amplitude)
        # mean and variance of U(-a, a): 0 and a^2/3; the standard error of
        # the mean is about 0.002 here
        assert abs(values.mean()) < 0.02
        assert values.var() == pytest.approx(amplitude**2 / 3.0, rel=0.05)
        streams.append(values)
    for a, b in itertools.combinations(streams, 2):
        assert not np.any(a == b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_disturbance_spec_validation():
    with pytest.raises(ValueError):
        DisturbanceSpec(kind="gusts")
    with pytest.raises(ValueError):
        DisturbanceSpec(kind="constant", amplitude=-1.0)
    with pytest.raises(ValueError):
        DisturbanceSpec(kind="sinusoid", amplitude=1.0, frequency=0.0)
    for amplitude in (math.inf, math.nan):
        with pytest.raises(ValueError, match="disturbance.amplitude"):
            DisturbanceSpec(kind="constant", amplitude=amplitude)
    # finite, but 2*pi*frequency overflows
    with pytest.raises(ValueError, match="disturbance.frequency"):
        DisturbanceSpec(kind="sinusoid", amplitude=1.0, frequency=1e308)
    for seed in (-3, 2**64):
        with pytest.raises(ValueError, match="disturbance.seed"):
            DisturbanceSpec(kind="bounded-uniform-random", amplitude=1.0, seed=seed)


def test_controllable_flag():
    assert PlantState(1.5, 0.0).controllable()
    assert not PlantState(math.pi / 2, 0.0).controllable()
