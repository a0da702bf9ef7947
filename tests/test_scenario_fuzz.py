"""Property: no scenario tree, however malformed, ends in a traceback.

Every generated tree must give a ConfigError, an aborted run, or a clean run
whose trace is internally consistent and keeps u inside the bounds.  A tree
is a random subset of plausible settings with at most one fault: an
extreme, non-finite or wrongly typed value, an unknown key, or a section
that is not a mapping.  Timing stays small, so a case runs at most 200
control steps of at most 20 plant sub-steps each.
"""

import math
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from prnn_abc.config import ConfigError, parse_scenario
from prnn_abc.sim import run
from prnn_abc.traceio import check_trace


def number(lo, hi):
    if math.ceil(lo) > math.floor(hi):
        return st.floats(lo, hi)
    return st.one_of(st.floats(lo, hi), st.integers(math.ceil(lo), math.floor(hi)))


def kind(*names):
    return st.sampled_from(names)


PLAUSIBLE = {
    "params": {"g": number(1.0, 20.0), "m_c": number(0.2, 3.0), "m": number(0.01, 1.0),
               "l": number(0.1, 2.0)},
    "initial": {"x1": number(-1.6, 1.6), "x2": number(-3.0, 3.0)},
    "reference": {"kind": kind("constant", "sinusoid", "smoothstep"),
                  "setpoint": number(-0.5, 0.5), "amplitude": number(0.0, 0.6),
                  "frequency": number(0.0, 2.0), "ramp_time": number(0.0, 1.0),
                  "start": number(-0.5, 0.5)},
    "disturbance": {"kind": kind("none", "constant", "sinusoid", "bounded-uniform-random"),
                    "amplitude": number(0.0, 1.0), "frequency": number(0.0, 2.0),
                    "seed": st.integers(0, 2**64 - 1)},
    "gains": {"c1": number(0.1, 10.0), "c2": number(0.1, 10.0)},
    "weights": {"T": number(0.1, 1000.0), "R": number(1e-4, 1.0)},
    "bounds": {"u_min": number(-40.0, 0.0), "u_max": number(0.0, 40.0)},
    "timing": {"plant_dt": st.sampled_from([0.001, 0.002, 0.005]),
               "control_period": st.sampled_from([0.005, 0.01, 0.02]),
               "duration": st.one_of(st.sampled_from([0.007, 0.3, 1.0]), st.floats(0.0, 1.0))},
    "prnn": {"vartheta": number(1.0, 1e4)},
    "rls": {"theta0_perturbation": number(0.0, 1.0), "m0_scale": number(1e-3, 1e14),
            "warmup_steps": st.integers(0, 200), "excitation_gate": number(0.0, 1.0),
            "theta0": st.lists(number(-3.0, 3.0), min_size=3, max_size=3)},
}
TOP = {"adaptive": st.booleans(), "seed": st.integers(0, 2**40), "settle_tol": number(1e-4, 0.1)}
PATHS = [(s, k) for s, keys in PLAUSIBLE.items() for k in keys] + [(None, k) for k in TOP]

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
WRONG_TYPE = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3), st.just([1.0]), st.just({"x": 1})
)
BAD_VALUE = st.one_of(
    NON_FINITE,
    WRONG_TYPE,
    st.floats(allow_nan=False, allow_infinity=False),  # extreme finite values included
    st.integers(-(2**70), 2**70),
    st.lists(st.one_of(NON_FINITE, st.booleans(), st.floats(-3.0, 3.0)), max_size=4),
)
# a long run is legal, so timing faults stay small or invalid
BAD_TIMING = st.one_of(NON_FINITE, WRONG_TYPE, st.floats(-1.0, 1e-3), st.integers(-5, 0))


@st.composite
def trees(draw):
    tree = {
        name: draw(st.fixed_dictionaries({}, optional=keys))
        for name, keys in PLAUSIBLE.items()
        if name == "timing" or draw(st.booleans())
    }
    tree["timing"].setdefault("duration", draw(PLAUSIBLE["timing"]["duration"]))
    tree.update(draw(st.fixed_dictionaries({}, optional=TOP)))

    fault = draw(st.sampled_from(["none", "none", "value", "value", "unknown", "section", "root"]))
    if fault == "value":
        section, key = draw(st.sampled_from(PATHS))
        node = tree if section is None else tree.setdefault(section, {})
        node[key] = draw(BAD_TIMING if section == "timing" else BAD_VALUE)
    elif fault == "unknown":
        section = draw(st.sampled_from([None, *PLAUSIBLE]))
        node = tree if section is None else tree.setdefault(section, {})
        node[draw(st.sampled_from(["typo", "T", "r", "u_mid"]))] = 1.0
    elif fault == "section":
        tree[draw(st.sampled_from(list(PLAUSIBLE)))] = draw(
            st.one_of(st.integers(), st.text(max_size=3), st.just([1.0]))
        )
    elif fault == "root":
        tree = draw(st.one_of(st.booleans(), st.text(max_size=3), st.just([tree])))
    return tree


@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(trees())
# a finite frequency whose 2*pi*f overflows once crashed inside the first step
@example({"disturbance": {"kind": "sinusoid", "amplitude": 1.0, "frequency": 1.0e308}})
# a reference phase that overflows within the run once raised from math.sin
@example({"reference": {"kind": "sinusoid", "amplitude": 0.0, "frequency": 1.0e307}})
# an adaptive run that tracks a sinusoid under a random disturbance
@example({"reference": {"kind": "sinusoid", "amplitude": 0.4, "frequency": 0.8},
          "disturbance": {"kind": "bounded-uniform-random", "amplitude": 0.3, "seed": 5},
          "timing": {"duration": 1.2}, "rls": {"warmup_steps": 80}, "adaptive": True})
def test_every_tree_is_config_error_abort_or_clean_run(tree):
    # building a scenario never warns, whatever its weights: T <= R shows in the summary
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            scenario = parse_scenario(tree)
        except ConfigError:
            return
    records, summary = run(scenario)
    if summary.aborted:
        assert "t=" in summary.abort_reason
        return
    assert check_trace(records) == []
    lo, hi = scenario.bounds
    assert all(lo <= r.u <= hi for r in records)
