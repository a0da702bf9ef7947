"""Closed-loop runs, Lyapunov monitoring, and parameter sweeps."""

import concurrent.futures
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import prnn_abc.plant as plant_module
from prnn_abc import sim, verify
from prnn_abc.backstepping import Gains, ReferenceSignal
from prnn_abc.cli import main
from prnn_abc.config import BOUND_KEYS, Scenario, Timing, apply_grid_point
from prnn_abc.plant import DisturbanceSpec, PlantState
from prnn_abc.prnn import PrnnConfig
from prnn_abc.qp import QpCoefficients, Weights
from prnn_abc.sim import (
    default_scenario,
    lyapunov_monitor,
    run,
    run_exact_baseline,
    sinusoid_scenario,
    sweep,
)

STABILIZE = Scenario(
    initial=PlantState(0.1, 0.0),
    reference=ReferenceSignal(kind="constant", setpoint=0.0),
    timing=Timing(plant_dt=0.001, control_period=0.01, duration=2.0),
)
# a +-2 N box that binds while the loop catches the pendulum from 0.15 rad
SATURATING = replace(STABILIZE, initial=PlantState(0.15, 0.0), bounds=(-2.0, 2.0))


def _theta(r):
    return (r.theta1, r.theta2, r.theta3)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(bounds=(1.0, -1.0))
    with pytest.raises(ValueError):
        Scenario(timing=Timing(plant_dt=0.003, control_period=0.01))
    with pytest.raises(ValueError):
        Scenario(timing=Timing(duration=-1.0))
    # 2*pi*f is finite, but the sinusoid's phase 2*pi*f*t overflows within 5 s
    disturbance = DisturbanceSpec(kind="sinusoid", amplitude=1.0, frequency=1e307)
    with pytest.raises(ValueError, match="disturbance.frequency"):
        Scenario(disturbance=disturbance, timing=Timing(duration=5.0))
    Scenario(disturbance=disturbance, timing=Timing(duration=0.5))
    # the reference sinusoid is read at the control times, so the same rule holds for it
    reference = ReferenceSignal(kind="sinusoid", amplitude=0.0, frequency=1e307)
    with pytest.raises(ValueError, match="^reference.frequency 1e[+]307 makes the sinusoid's"):
        Scenario(reference=reference, timing=Timing(duration=5.0))
    Scenario(reference=reference, timing=Timing(duration=0.5))


@pytest.mark.parametrize("initial", [PlantState(math.nan, 0.0), PlantState(0.0, -math.inf)])
def test_scenario_rejects_non_finite_initial_state(initial):
    key = "x1" if not math.isfinite(initial.x1) else "x2"
    message = f"key 'initial.{key}' must be finite, got {getattr(initial, key)!r}"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        Scenario(initial=initial)


def test_equilibrium_start_stays_on_reference():
    scenario = replace(STABILIZE, initial=PlantState(0.0, 0.0), timing=Timing(0.001, 0.01, 5.0))
    trace, summary = run(scenario)
    assert not summary.aborted
    assert summary.max_abs_s1 < 1e-6


def test_stabilization_run():
    trace, summary = run(replace(STABILIZE, timing=Timing(0.001, 0.01, 5.0)))
    assert not summary.aborted
    assert abs(trace[-1].x1) < 0.01
    assert summary.settling_time <= 5.0
    lo, hi = STABILIZE.bounds
    assert all(lo <= r.u <= hi for r in trace)


def test_trace_records_are_consistent():
    trace, _ = run(STABILIZE)
    sc = STABILIZE
    for r in trace:
        assert r.V2 == pytest.approx(0.5 * r.S1**2 + 0.5 * r.S2**2, rel=1e-15)
        assert r.V2_dot_ideal == pytest.approx(
            -sc.gains.c1 * r.S1**2 - sc.gains.c2 * r.S2**2, rel=1e-15
        )
        assert r.condition_residual == pytest.approx(sc.weights.R / r.Q, rel=1e-15)
        assert math.isnan(r.theta1)  # non-adaptive run logs no estimate


def test_determinism_bit_identical():
    t1, s1 = run(replace(STABILIZE, adaptive=True, seed=7))
    t2, s2 = run(replace(STABILIZE, adaptive=True, seed=7))
    assert t1 == t2
    assert s1 == s2


def test_seed_changes_adaptive_run():
    t1, _ = run(replace(STABILIZE, adaptive=True, seed=1))
    t2, _ = run(replace(STABILIZE, adaptive=True, seed=2))
    assert _theta(t1[10]) != _theta(t2[10])


_DRAW_SEEDS = (
    list(range(1000))
    + [2**31 - 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**100]
    + np.random.default_rng(20141).integers(0, 2**64, 300, dtype=np.uint64).tolist()
)


def test_initial_theta_draws_are_numpys_default_rng():
    # the pure-Python PCG64 reproduces numpy's doubles bit for bit
    for seed in _DRAW_SEEDS:
        want = np.random.default_rng(seed).uniform(-1.0, 1.0, 3).tolist()
        assert sim._seeded_uniform(seed, 3) == want, seed


def test_adaptive_run_and_validate_do_not_load_numpy_random(tmp_path):
    # a fresh interpreter: this module imports numpy.random itself
    code = (
        "import sys; from prnn_abc.cli import main; "
        f"assert main(['simulate', '--adaptive', 'on', '--out', {str(tmp_path)!r}]) == 0; "
        f"assert main(['validate', {str(tmp_path / 'trace.csv')!r}]) == 0; "
        "print('numpy.random' in sys.modules)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert done.stdout.strip().splitlines()[-1] == "False"


def test_adaptive_tracking_with_perturbed_estimate():
    # excited run: estimates converge and tracking is preserved
    scenario = replace(sinusoid_scenario(), adaptive=True, seed=3, timing=Timing(0.001, 0.01, 5.0))
    trace, summary = run(scenario)
    assert not summary.aborted
    assert summary.final_theta_error < 0.05
    # the reference starts with a 1.57 rad/s velocity step, so allow the
    # catch-up transient and check the steady tracking band instead
    steady = [abs(r.S1) for r in trace if r.t > 3.0]
    assert max(steady) < 0.03
    theta_cols = np.array([_theta(r) for r in trace[1:]])
    assert np.all(np.isfinite(theta_cols))


def test_final_theta_error_is_that_of_the_last_logged_theta(monkeypatch):
    # the 61st period updates the estimate, then aborts before logging it
    real_relax = sim.prnn.relax
    calls = []

    def relax(*args):
        calls.append(None)
        if len(calls) == 61:
            raise sim.prnn.IntegrationDivergedError("network state diverged")
        return real_relax(*args)

    monkeypatch.setattr(sim.prnn, "relax", relax)
    scenario = replace(sinusoid_scenario(), adaptive=True, seed=3, timing=Timing(0.001, 0.01, 1.0))
    trace, summary = run(scenario)
    assert summary.aborted and len(trace) == 60
    truth = np.asarray(sim.rls.true_theta(scenario.params))
    logged = np.linalg.norm(np.asarray(_theta(trace[-1])) - truth) / np.linalg.norm(truth)
    assert summary.final_theta_error == pytest.approx(logged, rel=1e-12)


def test_abort_when_leaving_half_plane():
    # powerless controller cannot catch a large initial angle
    scenario = replace(STABILIZE, initial=PlantState(1.4, 0.0), bounds=(-0.05, 0.05),
                       timing=Timing(0.001, 0.01, 5.0))
    trace, summary = run(scenario)
    assert summary.aborted
    assert "pi/2" in summary.abort_reason
    assert "t=" in summary.abort_reason
    assert len(trace) < scenario.timing.control_steps


@pytest.mark.parametrize("law", [run, run_exact_baseline], ids=["run", "run_exact_baseline"])
def test_each_period_is_one_plant_step_call(monkeypatch, law):
    # the loop integrates a control period with one plant.step call over
    # `substeps` disturbance rows, through the module attribute, so a
    # wrapper there sees every plant integration and every blowup
    scenario = replace(STABILIZE, timing=Timing(0.001, 0.01, 0.5))
    expected, _ = law(scenario)
    calls = []
    original = plant_module.step

    def counting(*args):
        calls.append(args[5])
        return original(*args)

    monkeypatch.setattr(plant_module, "step", counting)
    trace, _ = law(scenario)
    assert trace == expected
    rows = [[0.0, 0.0, 0.0]] * scenario.timing.substeps
    assert calls == [rows] * scenario.timing.control_steps


@pytest.mark.parametrize("kind", ["none", "constant", "sinusoid", "bounded-uniform-random"])
def test_disturbance_sampled_once_per_run(monkeypatch, kind):
    # one stage_disturbance call before the loop samples the whole run, for
    # every kind; each period's plant.step call then reads `substeps` rows
    disturbance = DisturbanceSpec(kind=kind, amplitude=0.3, frequency=1.5, seed=5)
    scenario = replace(
        sinusoid_scenario(0.4, 0.8), disturbance=disturbance, timing=Timing(0.001, 0.01, 1.2)
    )
    expected, _ = run(scenario)
    sampled, rows = [], []
    sample, integrate = plant_module.stage_disturbance, plant_module.step

    def counting_sample(spec, t, dt, steps):
        sampled.append((spec, np.shape(t), dt, steps))
        return sample(spec, t, dt, steps)

    def counting_step(params, state, u, t, dt, stages):
        rows.append(len(stages))
        return integrate(params, state, u, t, dt, stages)

    monkeypatch.setattr(plant_module, "stage_disturbance", counting_sample)
    monkeypatch.setattr(plant_module, "step", counting_step)
    trace, _ = run(scenario)
    assert trace == expected
    timing = scenario.timing
    assert sampled == [(disturbance, (timing.control_steps,), timing.plant_dt, timing.substeps)]
    assert rows == [timing.substeps] * timing.control_steps


@pytest.mark.parametrize("kind", ["sinusoid", "bounded-uniform-random"])
def test_time_varying_disturbance_sampled_once_per_run(monkeypatch, kind):
    # the whole run's stage samples come from one disturbance_at call over
    # the run's stage grid before the loop; plant.step samples nothing itself
    disturbance = DisturbanceSpec(kind=kind, amplitude=0.3, frequency=1.5, seed=5)
    scenario = replace(
        sinusoid_scenario(0.4, 0.8), disturbance=disturbance, timing=Timing(0.001, 0.01, 1.2)
    )
    expected, _ = run(scenario)
    grids = []
    sample_at = plant_module.disturbance_at

    def counting_at(spec, times):
        grids.append(np.shape(times))
        return sample_at(spec, times)

    monkeypatch.setattr(plant_module, "disturbance_at", counting_at)
    trace, _ = run(scenario)
    assert trace == expected
    timing = scenario.timing
    assert grids == [(timing.control_steps, timing.substeps, 3)]


def test_exact_baseline_tracks_ideal_v2_rate():
    scenario = replace(STABILIZE, timing=Timing(0.001, 0.001, 2.0))
    trace, summary = run_exact_baseline(scenario)
    assert not summary.aborted
    dt = scenario.timing.control_period
    for k in range(len(trace) - 1):
        fd = (trace[k + 1].V2 - trace[k].V2) / dt
        assert abs(fd - trace[k].V2_dot_ideal) <= 10.0 * dt + 1e-6


def test_s2_rate_closed_form_matches_trajectory():
    # compare the finite-difference dS2/dt against the closed form
    # A + B*u - ddx1d + c1*S2 - c1^2*S1 along an exact-feedback run
    from oracles import s2_rate
    from prnn_abc.backstepping import ErrorCoords, reference_at

    scenario = replace(STABILIZE, timing=Timing(0.001, 0.001, 2.0))
    trace, _ = run_exact_baseline(scenario)
    dt = scenario.timing.control_period
    worst = 0.0
    for k in range(len(trace) - 1):
        r = trace[k]
        e = ErrorCoords(s1=r.S1, s2=r.S2, gamma1=-scenario.gains.c1 * r.S1)
        ddx1d = reference_at(scenario.reference, r.t)[2]
        fd = (trace[k + 1].S2 - r.S2) / dt
        worst = max(worst, abs(fd - s2_rate(r.A, r.B, r.u, ddx1d, e, scenario.gains)))
    assert worst <= 10.0 * dt + 1e-6


def test_exact_baseline_v2_strictly_decreasing():
    trace, _ = run_exact_baseline(replace(STABILIZE, timing=Timing(0.001, 0.01, 3.0)))
    v2 = [r.V2 for r in trace]
    assert all(b < a for a, b in zip(v2, v2[1:]) if a > 1e-14)


def test_exact_baseline_on_reference_stays():
    scenario = replace(STABILIZE, initial=PlantState(0.0, 0.0))
    trace, summary = run_exact_baseline(scenario)
    assert summary.max_abs_s1 < 1e-9


def test_exact_baseline_does_not_read_the_effort_weight():
    # verify's r-consistency suite runs one baseline for all four R on this premise
    base = replace(Scenario(), bounds=(-1e6, 1e6))
    columns = [
        [record.u for record in run_exact_baseline(replace(base, weights=Weights(T=100.0, R=r)))[0]]
        for r in (1.0, 0.001)
    ]
    assert len(columns[0]) == 500
    assert columns[0] == columns[1] == [record.u for record in run_exact_baseline(base)[0]]


def test_r_consistency_names_an_aborted_baseline(monkeypatch):
    # the one baseline is checked before any network run, not as "aborted at R=1.0"
    def tipped(scenario):
        return run_exact_baseline(replace(scenario, initial=PlantState(1.6, 0.0)))

    def never(scenario):
        raise AssertionError("network run after an aborted baseline")

    monkeypatch.setattr(sim, "run_exact_baseline", tipped)
    monkeypatch.setattr(sim, "run", never)
    result = verify.suite_r_consistency()
    assert not result.passed
    assert result.lines == ["exact baseline aborted: |x1| >= pi/2 at t=0.000000 (x1=1.6000 rad)"]


# a run from x1 = 1.6 aborts at t=0, before it logs its first row
TIPPED = "|x1| >= pi/2 at t=0.000000 (x1=1.6000 rad)"


def _tip(monkeypatch, law):
    start = getattr(sim, law)
    monkeypatch.setattr(sim, law, lambda sc: start(replace(sc, initial=PlantState(1.6, 0.0))))


# suite: (the law whose runs abort, the suite's one line)
ABORT_LINES = {
    "stabilization": ("run", f"run aborted: {TIPPED}"),
    "saturation": ("run", f"run aborted: {TIPPED}"),
    "rls-batch": ("run", f"run aborted: {TIPPED}"),
    "r-consistency": ("run", f"run at R=1.0 aborted: {TIPPED}"),
    "lyapunov": ("run_exact_baseline", f"exact baseline aborted: {TIPPED}"),
}


@pytest.mark.parametrize("name", list(ABORT_LINES))
def test_suite_whose_run_aborts_fails_naming_the_reason(monkeypatch, name):
    law, line = ABORT_LINES[name]
    _tip(monkeypatch, law)
    result = verify.SUITES[name]()
    assert not result.passed
    assert result.lines == [line]


def test_verify_reports_an_aborted_suite_as_a_fail(monkeypatch, capsys):
    _tip(monkeypatch, "run")
    assert main(["verify", "--suite", "stabilization"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "[FAIL] stabilization",
        f"    run aborted: {TIPPED}",
        "0/1 suites passed",
    ]
    assert "Traceback" not in captured.err


def test_exact_baseline_aborts_when_input_gain_vanishes():
    # B(x) = 0 at x1 = pi/2; just inside the half-plane |B| < 1e-9
    scenario = replace(STABILIZE, initial=PlantState(math.pi / 2 - 1e-12, 0.0))
    trace, summary = run_exact_baseline(scenario)
    assert trace == []
    assert summary.aborted
    assert "exact feedback undefined" in summary.abort_reason
    assert "t=0.000000" in summary.abort_reason


def test_exact_baseline_overflowing_feedback_aborts():
    # (c1 + c2)*S2 overflows to inf, so the exact force is -inf: an abort, not a raise
    trace, summary = run_exact_baseline(replace(Scenario(), gains=Gains(c1=1.3e154, c2=1e300)))
    assert summary.aborted
    assert summary.abort_reason == "non-finite force u=-inf at t=0.000000"
    assert len(trace) == 1


def test_exact_baseline_ignores_adaptive_flag():
    nominal = replace(sinusoid_scenario(), seed=3, timing=Timing(0.001, 0.01, 1.0))
    trace_a, summary_a = run_exact_baseline(replace(nominal, adaptive=True))
    trace_n, summary_n = run_exact_baseline(nominal)
    assert repr(trace_a) == repr(trace_n)  # repr: the theta columns hold NaN
    assert repr(summary_a) == repr(summary_n)
    assert all(math.isnan(v) for r in trace_a for v in _theta(r))
    assert math.isnan(summary_a.final_theta_error)
    assert not summary_a.nonphysical_estimate


def test_monitor_clean_on_baseline_and_prnn():
    trace_b, _ = run_exact_baseline(replace(STABILIZE, timing=Timing(0.001, 0.01, 3.0)))
    assert lyapunov_monitor(trace_b) == []
    assert lyapunov_monitor(trace_b[:1]) == []  # one row has no step to check
    trace_p, _ = run(replace(STABILIZE, timing=Timing(0.001, 0.01, 3.0)))
    transient = 5.0 / STABILIZE.prnn.vartheta
    assert [v for v in lyapunov_monitor(trace_p) if v.t > transient] == []


def test_monitor_flags_disturbed_run():
    disturbance = DisturbanceSpec(kind="constant", amplitude=2.0)
    scenario = replace(STABILIZE, disturbance=disturbance, timing=Timing(0.001, 0.01, 3.0))
    trace, summary = run(scenario)
    assert not summary.aborted  # robustness probe completes
    assert len(lyapunov_monitor(trace)) > 0


def test_saturation_scenario_respects_bounds():
    scenario = replace(SATURATING, timing=Timing(0.001, 0.01, 4.0), settle_tol=0.02)
    trace, summary = run(scenario)
    u = np.array([r.u for r in trace])
    assert np.all(u >= -2.0) and np.all(u <= 2.0)
    assert summary.saturation_fraction > 0.0
    assert not summary.aborted


def test_stiff_network_still_converges():
    # vartheta * period = 100: the network settles well within every period
    scenario = replace(SATURATING, initial=PlantState(0.18, 0.0), prnn=PrnnConfig(vartheta=1e4),
                       timing=Timing(0.001, 0.01, 5.0))
    trace, summary = run(scenario)
    assert not summary.aborted
    assert summary.saturation_fraction > 0.0
    assert math.isfinite(summary.time_to_prnn_residual)
    assert trace[-1].prnn_residual < 1e-6


def test_network_divergence_aborts(monkeypatch):
    # non-finite QP coefficients from step 10 on make the network state NaN
    real_assemble = sim.qp.assemble
    calls = []

    def assemble(*args):
        calls.append(None)
        q = real_assemble(*args)
        if len(calls) <= 10:
            return q
        return QpCoefficients(P=math.nan, Q=q.Q, u_min=q.u_min, u_max=q.u_max)

    monkeypatch.setattr(sim.qp, "assemble", assemble)
    trace, summary = run(replace(STABILIZE, timing=Timing(0.001, 0.01, 1.0)))
    assert summary.aborted
    assert "non-finite" in summary.abort_reason
    assert "t=0.100000" in summary.abort_reason
    assert len(trace) == 10


def test_overflow_at_extreme_finite_state_aborts():
    # x2**2 in the model terms overflows before any plant step runs
    scenario = replace(STABILIZE, initial=PlantState(0.0, 1e160))
    trace, summary = run(scenario)
    assert summary.aborted
    assert summary.abort_reason.startswith("OverflowError")
    assert summary.abort_reason.endswith("at t=0.000000")
    assert trace == []


def test_timescale_consistency_under_faster_network():
    # a 10x faster network must not change the closed loop materially (the
    # optimizer is already quasi-static)
    base = replace(SATURATING, timing=Timing(0.001, 0.01, 4.0))
    fast = replace(base, prnn=PrnnConfig(vartheta=base.prnn.vartheta * 10))
    trace_a, _ = run(base)
    trace_b, _ = run(fast)
    s1a = np.array([r.S1 for r in trace_a])
    s1b = np.array([r.S1 for r in trace_b])
    assert np.max(np.abs(s1a - s1b)) < 0.01 * np.max(np.abs(s1a))


def test_summary_metrics_scaling():
    _, summary = run(replace(STABILIZE, timing=Timing(0.001, 0.01, 5.0)))
    assert summary.max_abs_s1 == pytest.approx(0.1, rel=1e-9)  # initial offset dominates
    assert summary.control_effort > 0.0
    assert summary.tracking_cost > 0.0
    assert math.isnan(summary.final_theta_error)
    assert summary.final_v2 < 1e-8


def test_default_and_sinusoid_scenarios_run():
    sc = replace(default_scenario(), timing=Timing(0.001, 0.01, 1.0))
    _, summary = run(sc)
    assert not summary.aborted
    assert summary.max_abs_s1 < 0.02  # smoothstep keeps the error small
    sc2 = replace(sinusoid_scenario(), timing=Timing(0.001, 0.01, 1.0))
    _, summary2 = run(sc2)
    assert not summary2.aborted


def test_sweep_single_cell_matches_run():
    base = replace(STABILIZE, timing=Timing(0.001, 0.01, 1.0))
    cells = sweep(base, {"prnn.vartheta": [50.0]})
    assert len(cells) == 1
    _, direct = run(base)
    assert cells[0].summary == direct
    assert cells[0].error == ""


def test_sweep_vartheta_speeds_network_settling():
    base = replace(SATURATING, timing=Timing(0.001, 0.01, 5.0))
    cells = sweep(base, {"prnn.vartheta": [10.0, 20.0, 40.0]})
    times = [c.summary.time_to_prnn_residual for c in cells]
    assert all(math.isfinite(t) for t in times)
    assert all(b < a for a, b in zip(times, times[1:]))


def test_sweep_effort_weight_column_monotone():
    base = replace(STABILIZE, timing=Timing(0.001, 0.01, 3.0))
    cells = sweep(base, {"weights.R": [1.0, 0.1, 0.01]})
    conds = [c.summary.mean_condition_residual for c in cells]
    tracks = [c.summary.tracking_cost for c in cells]
    assert all(b < a for a, b in zip(conds, conds[1:]))
    assert all(b <= a * (1.0 + 1e-9) for a, b in zip(tracks, tracks[1:]))


def test_sweep_pool_capped_at_cell_count(monkeypatch):
    # a stub pool that records its size and maps serially: a real pool would
    # fork every requested worker
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # sweep imports the pool class from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    base = replace(STABILIZE, timing=Timing(0.001, 0.01, 0.1))
    cells = sweep(base, {"weights.R": [0.1, -1.0, 0.01]}, max_workers=5000)
    assert sizes == [2]  # the invalid R = -1 cell never reaches the pool
    assert [c.summary is not None for c in cells] == [True, False, True]
    assert cells[0].summary == run(apply_grid_point(base, {"weights.R": 0.1}))[1]


def test_pool_modules_load_only_for_a_parallel_sweep():
    # a fresh interpreter: this module imports concurrent.futures itself
    code = (
        "import sys, prnn_abc.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_sweep_grid_order_and_failures():
    base = replace(STABILIZE, timing=Timing(0.001, 0.01, 0.5))
    cells = sweep(base, {"gains.c1": [-1.0, 2.0], "weights.T": [50.0, 100.0]})
    want = [{"gains.c1": c1, "weights.T": T} for c1 in (-1.0, 2.0) for T in (50.0, 100.0)]
    assert [c.coords for c in cells] == want
    assert cells[0].summary is None and "gains.c1 must be > 0" in cells[0].error
    assert cells[1].summary is None
    assert cells[2].summary is not None and cells[2].error == ""
    # a duration whose ratio to the control period overflows is a config error too
    (cell,) = sweep(base, {"timing.duration": [1e308]})
    assert cell.summary is None
    assert cell.error == (
        "ValueError: timing.duration / control_period must be finite, got 1e+308 / 0.01"
    )


def test_sweep_records_a_cell_whose_run_raises(monkeypatch):
    # an error inside one cell's run is that cell's result; the others still run
    base = replace(STABILIZE, timing=Timing(0.001, 0.01, 0.1))
    real_run = sim.run

    def run_or_boom(scenario):
        if scenario.prnn.vartheta == 50.0:
            raise RuntimeError("boom")
        return real_run(scenario)

    monkeypatch.setattr(sim, "run", run_or_boom)
    cells = sweep(base, {"prnn.vartheta": [25.0, 50.0, 100.0]}, max_workers=1)
    assert [(c.summary is None, c.error) for c in cells] == [
        (False, ""), (True, "RuntimeError: boom"), (False, "")
    ]
    assert cells[2].summary == real_run(apply_grid_point(base, {"prnn.vartheta": 100.0}))[1]


def test_sweep_parallel_matches_serial():
    base = replace(STABILIZE, timing=Timing(0.001, 0.01, 0.5))
    grid = {"prnn.vartheta": [25.0, 50.0], "weights.R": [0.1, 0.01]}
    serial = sweep(base, grid, max_workers=1)
    parallel = sweep(base, grid, max_workers=2)
    assert len(serial) == 4
    assert repr(parallel) == repr(serial)  # repr: the theta error is NaN


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep(STABILIZE, {})
    with pytest.raises(ValueError):
        sweep(STABILIZE, {"weights.R": []})


def test_apply_grid_point_unknown_key():
    with pytest.raises(ValueError, match=r"unknown key\(s\): params.mass"):
        apply_grid_point(STABILIZE, {"params.mass": 2.0})


@pytest.mark.parametrize(
    "name",
    ["gains.c1", "gains.c2", "weights.T", "weights.R", "prnn.vartheta",
     "bounds.u_min", "bounds.u_max", "timing.duration", "seed"],
    ids=lambda name: name.rpartition(".")[2],
)
def test_grid_axis_sets_its_key_path(name):
    section, _, key = name.rpartition(".")
    value = -7.0 if key == "u_min" else 7.0
    scenario = apply_grid_point(STABILIZE, {name: value})
    if section == "bounds":
        got = dict(zip(BOUND_KEYS, scenario.bounds))[key]
    else:
        got = getattr(getattr(scenario, section) if section else scenario, key)
    assert got == value and type(got) is type(getattr(STABILIZE, key, 0.0))


def test_grid_bound_sets_both_sides():
    assert apply_grid_point(STABILIZE, {"bound": -2.5}).bounds == (-2.5, 2.5)
    assert apply_grid_point(STABILIZE, {"bound": math.inf}).bounds == (-math.inf, math.inf)
    with pytest.raises(ValueError, match="bounds.u_max"):
        apply_grid_point(STABILIZE, {"bound": math.nan})


@pytest.mark.parametrize("side", ["u_min", "u_max"])
def test_grid_bound_clashes_with_either_side(side):
    # in either order one axis would silently override the other
    path = f"bounds.{side}"
    for coords in ({"bound": 1.0, path: 5.0}, {path: 5.0, "bound": 1.0}):
        with pytest.raises(ValueError, match=rf"'bound' and '{path}' both set {path}$"):
            apply_grid_point(STABILIZE, coords)
    cells = sweep(STABILIZE, {path: [5.0], "bound": [1.0]})
    assert cells[0].summary is None and "'bound'" in cells[0].error


def test_grid_axis_inside_another_axis_clashes():
    for coords in ({"gains": 1.0, "gains.c1": 2.0}, {"gains.c1": 2.0, "gains": 1.0}):
        with pytest.raises(ValueError, match=r"'gains' and 'gains.c1' both set gains.c1$"):
            apply_grid_point(STABILIZE, coords)


def test_sweep_over_initial_state_and_timing_axes():
    # every scalar key path is an axis: these three need no code of their own
    base = replace(STABILIZE, timing=Timing(0.001, 0.01, 0.5))
    grid = {
        "initial.x1": [0.05, 0.1],
        "timing.control_period": [0.01, 0.02],
        "timing.plant_dt": [0.001, 0.002],
    }
    cells = sweep(base, grid)
    assert [c.error for c in cells] == [""] * 8
    for cell in cells:
        assert cell.summary == run(apply_grid_point(base, cell.coords))[1]
    assert len({repr(c.summary) for c in cells}) == 8
    for name, message in [
        ("gains.c3", "unknown key(s): gains.c3"),
        ("rls.theta0", "key 'rls.theta0' must be a list of 3 numbers"),
    ]:
        (cell,) = sweep(base, {name: [1.0]})
        assert cell.summary is None and cell.error == f"ValueError: {message}"


@pytest.mark.parametrize(
    "cell, field, want",
    [
        ({"bounds.u_max": -40.0, "bounds.u_min": -50.0}, "bounds", (-50.0, -40.0)),
        ({"bounds.u_min": 40.0, "bounds.u_max": 50.0}, "bounds", (40.0, 50.0)),
        ({"weights.R": 200.0, "weights.T": 1000.0}, "weights", Weights(T=1000.0, R=200.0)),
    ],
)
def test_grid_cell_axes_apply_together(cell, field, want):
    # applied one axis at a time, the first order checked a half-applied cell:
    # bounds (-30, -40) or (40, 30); weights T=100, R=200 builds silently either way
    for coords in (cell, dict(reversed(cell.items()))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert getattr(apply_grid_point(STABILIZE, coords), field) == want


def test_duration_must_give_one_control_step():
    # shorter runs gave an empty trace and a clean exit
    with pytest.raises(ValueError, match="at least one control period"):
        Timing(plant_dt=0.001, control_period=0.01, duration=0.004)
    assert Timing(plant_dt=0.001, control_period=0.01, duration=0.006).control_steps == 1
