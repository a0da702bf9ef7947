"""Helpers that only the tests use.

The model restatements are written out from their closed forms, apart from
the fused code paths of the package, so that a test can use them as oracles.
"""

import ast
import functools
import math
import os
import struct
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from prnn_abc import rls, sim
from prnn_abc.backstepping import ErrorCoords, Gains, ReferenceSignal
from prnn_abc.config import Scenario, Timing, dumps_scenario
from prnn_abc.plant import PendulumParams, PlantState
from prnn_abc.qp import QpCoefficients


def derivatives(
    params: PendulumParams, state: PlantState, u: float, d: float = 0.0
) -> tuple[float, float]:
    """State derivative (dx1, dx2) = (x2, A + B*u + d).

    A + B*u is written over its one denominator, in the expression order of
    `plant.step`'s stages, so that textbook RK4 over it matches `step` bit
    for bit.  A test pins it to `drift_term + gain_term * u + d` to rounding.
    """
    m_sum = params.m_c + params.m
    k, f = params.m * params.l / m_sum, u / m_sum
    s, c, v = math.sin(state.x1), math.cos(state.x1), state.x2
    return v, (params.g * s - c * (k * v**2 * s - f)) / (params.l * (4.0 / 3.0) - k * c * c) + d


_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def random_disturbance(seed: int, amplitude: float, t: float) -> float:
    """The bounded-uniform-random disturbance at t, restated in Python integers.

    The SplitMix64 finalizer of (mixed seed xor the bit pattern of t), its
    top 53 bits mapped to [-amplitude, amplitude).
    """
    bits = struct.unpack("<Q", struct.pack("<d", t))[0]
    z = _mix64(_mix64((seed + 0x9E3779B97F4A7C15) & _MASK64) ^ bits)
    return amplitude * ((z >> 11) * 2.0**-52 - 1.0)


def mechanical_energy(params: PendulumParams, state: PlantState) -> float:
    """Energy-like invariant of the unforced angle dynamics.

    E = 1/2 * [(4/3) l (m_c+m) - m l cos^2 x1] * x2^2 + g (m_c+m) cos x1
    is exactly conserved by the continuous model when u = d = 0, which makes
    its drift a direct measure of integration error.
    """
    m_sum = params.m_c + params.m
    inertia = (4.0 / 3.0) * params.l * m_sum - params.m * params.l * math.cos(state.x1) ** 2
    return 0.5 * inertia * state.x2**2 + params.g * m_sum * math.cos(state.x1)


def s2_rate(a: float, b: float, u: float, ddx1d: float, e: ErrorCoords, gains: Gains) -> float:
    """Closed-form dS2/dt = A + B*u - ddx1d + c1*S2 - c1^2*S1."""
    return a + b * u - ddx1d + gains.c1 * e.s2 - gains.c1**2 * e.s1


def save_scenario(path, scenario: Scenario) -> None:
    """Write a scenario file, as `simulate` writes scenario.yaml."""
    Path(path).write_text(dumps_scenario(scenario), encoding="utf-8")


def random_box(rng: np.random.Generator, half_width: float) -> tuple[float, float]:
    """`verify._random_box` drawn by numpy: two uniforms sorted by np.sort."""
    lo, hi = np.sort(rng.uniform(-half_width, half_width, 2))
    if hi - lo < 1e-3:
        hi = lo + 1e-3
    return float(lo), float(hi)


def random_qp(rng: np.random.Generator) -> QpCoefficients:
    """`verify._random_qp` drawn by numpy."""
    q = 10.0 ** rng.uniform(-2.0, 2.0)
    p = rng.uniform(-100.0, 100.0)
    return QpCoefficients(p, q, *random_box(rng, 10.0))


def lyapunov_details() -> dict[str, float]:
    """The `lyapunov` suite's figures, from all six exact-law traces at once."""
    timing = Timing(plant_dt=0.001, control_period=0.001, duration=3.0)
    traces = [
        sim.run_exact_baseline(
            Scenario(initial=PlantState(x10, 0.0), reference=ref,
                     gains=Gains(c1=c1, c2=c2), timing=timing)
        )[0]
        for c1, c2 in ((1.0, 1.0), (2.0, 2.0), (3.0, 1.0))
        for ref, x10 in (
            (ReferenceSignal(kind="constant", setpoint=0.0), 0.1),
            (ReferenceSignal(kind="sinusoid", amplitude=0.1, frequency=0.5), 0.05),
        )
    ]
    worst = 0.0
    for trace in traces:
        for prev, cur in zip(trace, trace[1:]):
            worst = max(worst, abs((cur.V2 - prev.V2) / 0.001 - prev.V2_dot_ideal))
    return {"worst_identity_error": worst, "tolerance": 10.0 * 0.001 + 1e-6}


def holds_below_from(values, threshold: float, times) -> float:
    """First time after which |values| stays below threshold; nan if never.

    The array statement of `sim.holds_below_from`.
    """
    below = np.abs(np.asarray(values)) < threshold
    if not below[-1]:
        return math.nan
    above = np.flatnonzero(~below)
    if above.size == 0:
        return float(times[0])
    return float(times[above[-1] + 1])


@np.errstate(over="ignore", invalid="ignore")  # an overflowing metric is inf, inf - inf is nan
def summarize(records, scenario: Scenario, aborted: bool, reason: str, nonphysical: bool):
    """`sim._summarize` over numpy arrays: np.sum, np.mean and np.max do the reductions."""
    flags = {"aborted": aborted, "abort_reason": reason, "nonphysical_estimate": nonphysical}
    if not records:
        figures = {f.name: math.nan for f in fields(sim.RunSummary) if f.name not in flags}
        return sim.RunSummary(**figures, **flags)
    period = scenario.timing.control_period
    t = np.array([r.t for r in records])
    s1 = np.array([r.S1 for r in records])
    u = np.array([r.u for r in records])
    res = np.array([r.prnn_residual for r in records])
    cond = np.array([r.condition_residual for r in records])
    lo, hi = scenario.bounds
    on_bound = (u <= lo + 1e-12 * (1.0 + abs(lo))) | (u >= hi - 1e-12 * (1.0 + abs(hi)))

    last = records[-1]
    theta_err = math.nan
    if not math.isnan(last.theta1):
        theta, truth = (last.theta1, last.theta2, last.theta3), rls.true_theta(scenario.params)
        theta_err = math.hypot(*(a - b for a, b in zip(theta, truth))) / math.hypot(*truth)

    return sim.RunSummary(
        settling_time=holds_below_from(s1, scenario.settle_tol, t),
        max_abs_s1=float(np.max(np.abs(s1))),
        control_effort=float(np.sum(u**2) * period),
        tracking_cost=float(np.sum(s1**2) * period),
        saturation_fraction=float(np.mean(on_bound)),
        final_theta_error=theta_err,
        time_to_prnn_residual=holds_below_from(res, sim.PRNN_RESIDUAL_SETTLED, t),
        mean_condition_residual=float(np.mean(cond)),
        final_v2=last.V2,
        **flags,
    )


_CHECKPOINTS = """
import os, sys
from prnn_abc.cli import main
WATCHED = ('numpy', 'numpy.random', 'concurrent', 'concurrent.futures', 'multiprocessing')
def checkpoint():
    print('loaded', [m for m in WATCHED if m in sys.modules])
def ok(*argv):
    assert main(list(argv)) == 0, argv
os.chdir(sys.argv[1])
checkpoint()
ok('simulate', '--out', 'a')
ok('simulate', '--config', 'constant.yaml', '--out', 'b')
ok('validate', 'a/trace.csv')
ok('simulate', '--adaptive', 'on', '--out', 'e')
ok('validate', 'e/trace.csv')
ok('sweep', '--grid', 'gains.c1=1,2', '--out', 's')
checkpoint()
ok('simulate', '--config', 'sinusoid.yaml', '--out', 'c')
ok('validate', 'c/trace.csv')
ok('simulate', '--config', 'random.yaml', '--out', 'd')
ok('validate', 'd/trace.csv')
checkpoint()
ok('verify')
checkpoint()
os.environ['PRNN_ABC_THREADS'] = '2'
ok('sweep', '--config', 'constant.yaml', '--grid', 'gains.c1=1,2', '--out', 'p')
checkpoint()
"""


@functools.lru_cache(maxsize=None)
def module_load_checkpoints() -> tuple[list[str], ...]:
    """The watched modules loaded at each of five ordered checkpoints of one fresh interpreter.

    A fresh interpreter, since the test modules import numpy and
    concurrent.futures themselves.  The checkpoints follow: importing the CLI;
    default, constant-disturbance and adaptive runs with validate, and a serial
    sweep; sinusoid and random-disturbance runs with validate; verify (all
    suites); a PRNN_ABC_THREADS=2 sweep.  The module-load tests share this one
    run and each asserts its own checkpoints.
    """
    configs = {
        "constant": "disturbance: {kind: constant, amplitude: 0.2}",
        "sinusoid": "disturbance: {kind: sinusoid, amplitude: 0.2, frequency: 1.5}",
        "random": "disturbance: {kind: bounded-uniform-random, amplitude: 0.2, seed: 4}",
    }
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PRNN_ABC_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as work:
        for name, text in configs.items():
            Path(work, f"{name}.yaml").write_text(text + "\ntiming: {duration: 1.0}\n", "utf-8")
        done = subprocess.run(
            [sys.executable, "-c", _CHECKPOINTS, work], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
    lines = [line for line in done.stdout.splitlines() if line.startswith("loaded ")]
    assert len(lines) == 5, done.stdout
    return tuple(ast.literal_eval(line.removeprefix("loaded ")) for line in lines)

