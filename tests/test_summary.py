"""Run summaries: the pure-Python figures against numpy's reductions.

`sim._summarize` and `sim.holds_below_from` work on lists of Python floats,
so that a run never loads numpy; `oracles.summarize` and
`oracles.holds_below_from` are their array statements.  Every figure must
have the oracle's bits, compared by repr so that a NaN matches a NaN.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from prnn_abc import sim
from prnn_abc.config import Timing, parse_scenario
from prnn_abc.plant import DisturbanceSpec

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text(encoding="utf-8"))["runs"]
SCENARIO_RUNS = {name: entry["scenario"] for name, entry in GOLDEN.items() if "scenario" in entry}


def _oracle_of(trace, scenario, summary):
    return oracles.summarize(
        trace, scenario, summary.aborted, summary.abort_reason, summary.nonphysical_estimate
    )


@pytest.mark.parametrize("name", list(SCENARIO_RUNS))
def test_summary_matches_numpy_oracle_on_golden_runs(name):
    scenario = parse_scenario(SCENARIO_RUNS[name])
    trace, summary = sim.run(scenario)
    assert repr(summary) == repr(_oracle_of(trace, scenario, summary))


def test_summary_matches_numpy_oracle_on_the_exact_law():
    scenario = sim.default_scenario()
    trace, summary = sim.run_exact_baseline(scenario)
    assert repr(summary) == repr(_oracle_of(trace, scenario, summary))


QUICK = replace(
    sim.default_scenario(),
    bounds=(-2.0, 2.0),
    timing=Timing(0.001, 0.01, 0.5),
    disturbance=DisturbanceSpec(kind="constant", amplitude=0.2),
)


def _tampered(trace, rows, **values):
    out = list(trace)
    for k in rows:
        out[k] = out[k]._replace(**values)
    return out


EDGE_TRACES = {
    "empty": lambda tr: [],
    "one-row": lambda tr: tr[:1],
    "one-row-above": lambda tr: _tampered(tr[:1], [0], S1=1.0, prnn_residual=1.0),
    "nan-residuals": lambda tr: _tampered(tr, range(0, len(tr), 3), prnn_residual=math.nan),
    "nan-last-residual": lambda tr: _tampered(tr, [-1], prnn_residual=math.nan),
    "last-row-above": lambda tr: _tampered(tr, [-1], S1=1.0, prnn_residual=1.0),
    "nan-s1": lambda tr: _tampered(tr, [2], S1=math.nan),
    "inf-s1": lambda tr: _tampered(tr, [2], S1=-math.inf),
    "u-squared-overflows": lambda tr: _tampered(tr, [5], u=1e200),
    "u-on-both-bounds": lambda tr: _tampered(_tampered(tr, [1, 2], u=2.0), [7], u=-2.0),
    "nan-condition-residual": lambda tr: _tampered(tr, [4], condition_residual=math.nan),
    "opposite-infinite-condition-residuals": lambda tr: _tampered(
        _tampered(tr, [4], condition_residual=math.inf), [9], condition_residual=-math.inf
    ),
    "estimate": lambda tr: _tampered(tr, [-1], theta1=10.0, theta2=1.0, theta3=0.5),
}


@pytest.fixture(scope="module")
def quick_trace():
    trace, _ = sim.run(QUICK)
    return trace


@pytest.mark.parametrize("case", list(EDGE_TRACES))
def test_summary_matches_numpy_oracle_on_edge_traces(quick_trace, case):
    trace = EDGE_TRACES[case](quick_trace)
    summary = sim._summarize(trace, QUICK, False, "", False)
    assert repr(summary) == repr(oracles.summarize(trace, QUICK, False, "", False))
    if case == "u-squared-overflows":
        assert summary.control_effort == math.inf
    if case in ("last-row-above", "nan-last-residual"):
        assert math.isnan(summary.time_to_prnn_residual)
    if case == "empty":
        assert math.isnan(summary.max_abs_s1) and math.isnan(summary.mean_condition_residual)


# floats of every class, and the values where a threshold or a bound decides
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-7, 1e-6, 0.01, 1.0, 2.0, -2.0, 1e200, -1e200, math.nan]),
)
SCENARIOS = [
    replace(QUICK, bounds=bounds, settle_tol=tol, timing=Timing(0.001, period, 1.0))
    for bounds, tol, period in (
        ((-2.0, 2.0), 0.01, 0.01),
        ((-math.inf, math.inf), 1e-6, 0.001),
        ((-math.inf, 1.0), 1.0, 0.05),
        ((-1e-300, 0.0), 0.01, 0.01),
    )
]


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(st.tuples(FLOATS, FLOATS, FLOATS, FLOATS, FLOATS), max_size=40),
    theta=st.one_of(st.just((math.nan,) * 3), st.tuples(FLOATS, FLOATS, FLOATS)),
    scenario=st.sampled_from(SCENARIOS),
)
def test_summary_matches_numpy_oracle_on_any_trace(rows, theta, scenario):
    base = sim.TraceRecord(*[0.0] * len(sim.TraceRecord._fields))
    trace = [
        base._replace(t=t, S1=s1, u=u, prnn_residual=res, condition_residual=cond)
        for t, s1, u, res, cond in rows
    ]
    if trace:
        trace[-1] = trace[-1]._replace(theta1=theta[0], theta2=theta[1], theta3=theta[2])
    got = sim._summarize(trace, scenario, True, "reason", True)
    assert repr(got) == repr(oracles.summarize(trace, scenario, True, "reason", True))


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(FLOATS, min_size=1, max_size=60),
    threshold=st.sampled_from([1e-6, 0.01, 1.0, math.inf]),
)
def test_holds_below_from_matches_numpy_oracle(values, threshold):
    times = [0.01 * k for k in range(len(values))]
    got = sim.holds_below_from(values, threshold, times)
    assert repr(got) == repr(oracles.holds_below_from(values, threshold, times))


@pytest.mark.parametrize("scale", ["unit", "wide"])
def test_sum_is_numpys_pairwise_sum(scale):
    # every length through two levels of the pairwise split, and two longer
    # runs; wide exponents make any change of summation order show
    rng = np.random.default_rng(11)
    for n in [*range(1101), 3000, 5000]:
        a = rng.standard_normal(n)
        if scale == "wide":
            a *= 10.0 ** rng.integers(-30, 30, n)
        values = a.tolist()
        assert repr(sim._sum(values)) == repr(float(np.sum(a))), n
        if n:
            assert repr(sim._sum(values) / n) == repr(float(np.mean(a))), n


def test_sum_of_negative_zeros_is_numpys_positive_zero():
    for n in (0, 1, 7, 8, 128, 129, 1000):
        values = [-0.0] * n
        assert repr(sim._sum(values)) == repr(float(np.sum(np.array(values)))) == "0.0"
