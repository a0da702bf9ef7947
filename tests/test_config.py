"""Scenario configuration parsing, validation, and round-tripping."""

import math
import re
from dataclasses import replace

import pytest
import yaml

from oracles import save_scenario
from prnn_abc.backstepping import ReferenceSignal
from prnn_abc.config import (
    BOUND_KEYS,
    ConfigError,
    RlsOptions,
    Scenario,
    _StrictLoader,
    apply_grid_point,
    dumps_scenario,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
)
from prnn_abc.plant import DisturbanceSpec
from prnn_abc.prnn import PrnnConfig
from prnn_abc.sim import default_scenario, sinusoid_scenario


def test_empty_config_gives_defaults():
    scenario = parse_scenario({})
    assert scenario.params.g == 9.8
    assert scenario.params.m_c == 1.0
    assert scenario.params.m == 0.1
    assert scenario.params.l == 0.5
    assert scenario.bounds == (-30.0, 30.0)
    assert scenario.weights.T == 100.0
    assert scenario.gains.c1 == 2.0
    assert not scenario.adaptive


def test_round_trip_identity():
    for scenario in (
        default_scenario(),
        sinusoid_scenario(),
        parse_scenario({"adaptive": True, "rls": {"theta0": [0.1, 2.1, 1.7]}}),
        parse_scenario({"prnn": {"vartheta": 12.5}}),
    ):
        assert scenario_to_dict(scenario)["prnn"] == {"vartheta": scenario.prnn.vartheta}
        once = parse_scenario(scenario_to_dict(scenario))
        assert once == scenario
        twice = parse_scenario(yaml.safe_load(dumps_scenario(once)))
        assert twice == once


def test_round_trip_through_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    scenario = sinusoid_scenario()
    save_scenario(path, scenario)
    assert load_scenario(path) == scenario


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_scenario({"pendulum": {}})


def test_unknown_nested_key_with_path():
    with pytest.raises(ConfigError, match="weights.r"):
        parse_scenario({"weights": {"r": 0.1}})


def test_invalid_gain_rejected_before_running():
    with pytest.raises(ConfigError, match="c1"):
        parse_scenario({"gains": {"c1": -1.0}})


def test_type_errors():
    with pytest.raises(ConfigError, match="must be a number"):
        parse_scenario({"weights": {"T": "big"}})
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_scenario({"seed": 1.5})
    with pytest.raises(ConfigError, match="true/false"):
        parse_scenario({"adaptive": "yes"})
    with pytest.raises(ConfigError, match="must be a mapping"):
        parse_scenario({"gains": 3})
    with pytest.raises(ConfigError, match="theta0"):
        parse_scenario({"rls": {"theta0": [1.0, 2.0]}})


@pytest.mark.parametrize(
    "key, value", [("inner_steps", 20), ("tol", 1e-9), ("rate_convention", "divide")]
)
def test_removed_prnn_keys_rejected(key, value):
    # the network is integrated exactly, so its former sub-stepping knobs are gone
    with pytest.raises(ConfigError, match=f"unknown key.*prnn.{key}"):
        parse_scenario({"prnn": {"vartheta": 50.0, key: value}})


def test_timing_mismatch_rejected():
    with pytest.raises(ConfigError, match="integer multiple"):
        parse_scenario({"timing": {"plant_dt": 0.003, "control_period": 0.01}})


def test_reference_kinds_parse():
    sc = parse_scenario(
        {"reference": {"kind": "smoothstep", "start": 0.2, "setpoint": 0.0, "ramp_time": 1.0}}
    )
    assert sc.reference.kind == "smoothstep"
    with pytest.raises(ConfigError):
        parse_scenario({"reference": {"kind": "sawtooth"}})


def test_missing_file_reports_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario(tmp_path / "absent.yaml")


def test_malformed_yaml_reports_config_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("weights: {T: 100.0\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_scenario(path)


def test_non_mapping_root_rejected():
    with pytest.raises(ConfigError, match="mapping"):
        parse_scenario([1, 2, 3])


def test_negative_disturbance_seed_rejected():
    data = {"disturbance": {"kind": "bounded-uniform-random", "amplitude": 0.1, "seed": -3}}
    with pytest.raises(ConfigError, match=r"disturbance\.seed"):
        parse_scenario(data)


def test_negative_top_level_seed_rejected():
    with pytest.raises(ConfigError, match=r"^seed must be >= 0"):
        parse_scenario({"seed": -1, "adaptive": True})


# one tree per range check of a section or of the scenario; values pass the
# type rule, so each error comes from the check itself
SECTION_CHECKS = [
    ("params.g", {"params": {"g": 0.0}}),
    ("params.m_c", {"params": {"m_c": -1.0}}),
    ("params.m", {"params": {"m": 0.0}}),
    ("params.l", {"params": {"l": -0.5}}),
    ("reference.kind", {"reference": {"kind": "sawtooth"}}),
    ("reference.frequency", {"reference": {"kind": "sinusoid", "frequency": 0.0}}),
    ("reference.frequency", {"reference": {"kind": "sinusoid", "frequency": 1e307}}),
    ("reference.frequency", {"reference": {"kind": "sinusoid", "amplitude": 1, "frequency": 1e160}}),
    ("reference.ramp_time", {"reference": {"kind": "smoothstep", "ramp_time": 1e-200}}),
    ("reference.ramp_time", {"reference": {"kind": "smoothstep", "ramp_time": 1e200}}),
    ("disturbance.kind", {"disturbance": {"kind": "gust"}}),
    ("disturbance.amplitude", {"disturbance": {"kind": "constant", "amplitude": -1.0}}),
    ("disturbance.frequency", {"disturbance": {"kind": "sinusoid", "frequency": 0.0}}),
    ("disturbance.frequency", {"disturbance": {"frequency": 1e308}}),
    ("disturbance.frequency", {"disturbance": {"kind": "sinusoid", "frequency": 1e307}}),
    ("disturbance.seed", {"disturbance": {"seed": 2**64}}),
    ("gains.c1", {"gains": {"c1": -1.0}}),
    ("gains.c2", {"gains": {"c2": 0.0}}),
    ("weights.T", {"weights": {"T": 0.0}}),
    ("weights.R", {"weights": {"R": -0.01}}),
    ("bounds.u_min", {"bounds": {"u_min": 40.0}}),
    ("timing.plant_dt", {"timing": {"plant_dt": 0.02}}),
    ("timing.plant_dt", {"timing": {"plant_dt": 1e-300}}),
    ("timing.duration", {"timing": {"duration": -1.0}}),
    ("timing.duration", {"timing": {"duration": 0.004}}),
    ("timing.control_period", {"timing": {"control_period": 0.0105}}),
    # ratios that overflow once made round() raise OverflowError
    ("timing.duration", {"timing": {"duration": 1e308}}),
    ("timing.control_period", {"timing": {"control_period": 1e308}}),
    ("timing.control_period", {"timing": {"plant_dt": 1e-320}}),
    ("prnn.vartheta", {"prnn": {"vartheta": 0.0}}),
    ("rls.theta0_perturbation", {"rls": {"theta0_perturbation": -0.1}}),
    ("rls.m0_scale", {"rls": {"m0_scale": 0.0}}),
    ("rls.warmup_steps", {"rls": {"warmup_steps": -1}}),
    ("seed", {"seed": -1}),
    ("settle_tol", {"settle_tol": 0.0}),
]


@pytest.mark.parametrize("path, tree", SECTION_CHECKS, ids=[str(t) for _, t in SECTION_CHECKS])
def test_range_error_names_its_key_path(path, tree):
    with pytest.raises(ConfigError) as info:
        parse_scenario(tree)
    assert str(info.value).startswith(f"{path} ")


DEFAULT_YAML = """\
params:
  g: 9.8
  m_c: 1.0
  m: 0.1
  l: 0.5
initial:
  x1: 0.1
  x2: 0.0
reference:
  kind: smoothstep
  setpoint: 0.0
  amplitude: 0.0
  frequency: 0.0
  ramp_time: 2.0
  start: 0.1
disturbance:
  kind: none
  amplitude: 0.0
  frequency: 0.0
  seed: 0
gains:
  c1: 2.0
  c2: 2.0
weights:
  T: 100.0
  R: 0.01
bounds:
  u_min: -30.0
  u_max: 30.0
timing:
  plant_dt: 0.001
  control_period: 0.01
  duration: 5.0
prnn:
  vartheta: 50.0
rls:
  theta0_perturbation: 0.3
  m0_scale: 100.0
  warmup_steps: 50
  excitation_gate: 1.0e-08
adaptive: false
seed: 0
settle_tol: 0.01
"""

# the bundled sinusoid scenario differs from the default only in `initial` and `reference`
SINUSOID_YAML = (
    DEFAULT_YAML.replace("x1: 0.1", "x1: 0.0")
    .replace("kind: smoothstep", "kind: sinusoid")
    .replace("amplitude: 0.0\n  frequency: 0.0\n  ramp_time: 2.0\n  start: 0.1",
             "amplitude: 0.5\n  frequency: 0.5\n  ramp_time: 0.0\n  start: 0.0")
)


def test_dump_of_bundled_scenarios_is_pinned():
    # scenario.yaml follows the Scenario field order; a reorder must show here
    assert dumps_scenario(default_scenario()) == DEFAULT_YAML
    assert dumps_scenario(sinusoid_scenario()) == SINUSOID_YAML


def test_empty_tree_is_default_scenario():
    assert parse_scenario({}) == Scenario()
    assert parse_scenario(None) == Scenario()


def test_empty_section_keeps_the_base_values(tmp_path):
    # `gains:` with nothing under it reads as None
    tree = yaml.safe_load("gains:\nbounds:\nseed: 4\n")
    assert tree == {"gains": None, "bounds": None, "seed": 4}
    assert parse_scenario(tree) == Scenario(seed=4)
    path = tmp_path / "empty.yaml"
    path.write_text("gains:\nbounds:\nseed: 4\n", encoding="utf-8")
    assert load_scenario(path) == Scenario(seed=4)


@pytest.mark.parametrize(
    "text, message",
    [("1: 2\na: 3\n", "unknown key(s): 1, a"),
     ("params: {1: 2, zz: 3}\n", "unknown key(s): params.1, params.zz")],
)
def test_non_string_key_is_an_unknown_key(text, message):
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        parse_scenario(yaml.safe_load(text))


def test_explicit_theta0_dumps_last_in_rls():
    sc = parse_scenario({"rls": {"theta0": [0.1, 2, 1.7]}})
    assert sc.rls.theta0 == (0.1, 2.0, 1.7)
    assert list(scenario_to_dict(sc)["rls"].items())[-1] == ("theta0", [0.1, 2.0, 1.7])
    assert "theta0" not in scenario_to_dict(Scenario())["rls"]
    assert parse_scenario({"rls": {"theta0": None}}).rls.theta0 is None


@pytest.mark.parametrize(
    "path, value",
    [
        ("prnn.vartheta", float("inf")),
        ("settle_tol", float("inf")),
        ("reference.ramp_time", float("inf")),
        ("initial.x1", float("-inf")),
        ("bounds.u_min", float("nan")),
        ("bounds.u_max", float("nan")),
        ("params.l", 10**400),
    ],
)
def test_non_finite_value_names_its_key(path, value):
    section, _, key = path.rpartition(".")
    tree = {section: {key: value}} if section else {key: value}
    with pytest.raises(ConfigError, match=rf"^key '{path}' must be"):
        parse_scenario(tree)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PrnnConfig(vartheta=math.inf), "key 'prnn.vartheta' must be finite"),
        (
            lambda: ReferenceSignal(kind="smoothstep", ramp_time=math.inf),
            "key 'reference.ramp_time' must be finite",
        ),
        (lambda: Scenario(settle_tol=math.inf), "key 'settle_tol' must be finite"),
    ],
    ids=["prnn.vartheta", "reference.ramp_time", "settle_tol"],
)
def test_infinite_value_built_in_code_rejected(build, message):
    # each of these once ran a whole loop without an abort; the value rule
    # refuses it where its section, or the scenario, is built
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}, got inf$"):
        build()


def _leaves(tree, prefix=""):
    """(key path, default) of every leaf of a default tree; a list's entries are indexed."""
    for key, like in tree.items():
        if isinstance(like, dict):
            yield from _leaves(like, f"{prefix}{key}.")
        elif isinstance(like, list):
            yield from ((f"{prefix}{key}[{i}]", x) for i, x in enumerate(like))
        else:
            yield f"{prefix}{key}", like


# the tree of Scenario(), with rls.theta0 as three numbers
DEFAULT_TREE = scenario_to_dict(Scenario())
DEFAULT_TREE["rls"]["theta0"] = [0.0, 0.0, 0.0]
LEAVES = list(_leaves(DEFAULT_TREE))
LEAF_PATHS = [path for path, _ in LEAVES]
FLOAT_PATHS = [path for path, like in LEAVES if type(like) is float]
INT_PATHS = [path for path, like in LEAVES if type(like) is int]


def _theta0_with(key, value):
    """theta0 [1, 2, 3] with the entry that section key `key`, e.g. theta0[2], names set."""
    theta0 = [1.0, 2.0, 3.0]
    theta0[int(key[len("theta0["):-1])] = value
    return theta0


def _code_built(path, value):
    """Scenario() with the value at key path `path` set in code."""
    name, _, key = path.partition(".")
    sc = Scenario()
    if not key:
        return replace(sc, **{name: value})
    if name == "bounds":
        bounds = dict(zip(BOUND_KEYS, sc.bounds), **{key: value})
        return replace(sc, bounds=tuple(bounds.values()))
    if key.startswith("theta0["):
        return replace(sc, rls=RlsOptions(theta0=tuple(_theta0_with(key, value))))
    section = getattr(sc, name)
    return replace(sc, **{name: replace(section, **{key: value})})


def _file_built(path, value):
    """The file tree that sets the value at key path `path`, parsed."""
    name, _, key = path.partition(".")
    if key.startswith("theta0["):
        key, value = "theta0", _theta0_with(key, value)
    return parse_scenario({name: {key: value}} if key else {name: value})


def _assert_one_rule(path, value):
    # code gets the file's outcome: the same scenario, or the same message
    code = _outcome(_code_built, path, value)
    file = _outcome(_file_built, path, value)
    assert code == file


# the three tests below set each of the 36 leaves to each of 8 values, in code
# and in a file
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("path", LEAF_PATHS)
def test_non_finite_section_value_built_in_code_rejected(path, value):
    # the file rule holds for a scenario built in code: no number is +-inf
    # or NaN, except that the bounds may be +-inf in both
    _assert_one_rule(path, value)


@pytest.mark.parametrize("value", [True, 1.5])
@pytest.mark.parametrize("path", LEAF_PATHS)
def test_non_integer_value_built_in_code_rejected(path, value):
    _assert_one_rule(path, value)


@pytest.mark.parametrize("value", [3.0, "a", None], ids=repr)
@pytest.mark.parametrize("path", LEAF_PATHS)
def test_integral_or_mistyped_value_built_in_code_as_in_a_file(path, value):
    _assert_one_rule(path, value)


def test_every_leaf_is_a_float_or_integer_key_or_a_flag_or_a_kind():
    kinds = {path for path, like in LEAVES if type(like) in (bool, str)}
    assert kinds == {"reference.kind", "disturbance.kind", "adaptive"}
    assert INT_PATHS == ["disturbance.seed", "rls.warmup_steps", "seed"]
    assert len(FLOAT_PATHS) + len(INT_PATHS) + len(kinds) == len(LEAVES)


@pytest.mark.parametrize(
    "path, value, message",
    [
        ("params.m_c", math.inf, "key 'params.m_c' must be finite, got inf"),
        ("params.m_c", -math.inf, "key 'params.m_c' must be finite, got -inf"),
        ("timing.duration", math.inf, "key 'timing.duration' must be finite, got inf"),
        ("reference.setpoint", math.nan, "key 'reference.setpoint' must be finite, got nan"),
        ("rls.excitation_gate", -math.inf, "key 'rls.excitation_gate' must be finite, got -inf"),
        ("rls.theta0[2]", math.nan, "key 'rls.theta0[2]' must be finite, got nan"),
        # a finite value then meets its key's declared rule
        ("prnn.vartheta", 0.0, "prnn.vartheta must be > 0, got 0.0"),
        ("settle_tol", -1.0, "settle_tol must be > 0, got -1.0"),
        ("disturbance.amplitude", -0.5, "disturbance.amplitude must be >= 0, got -0.5"),
        ("gains.c1", -0.0, "gains.c1 must be > 0, got -0.0"),
    ],
)
def test_finiteness_rule_names_the_key_after_the_range_checks(path, value, message):
    # the value rule runs first where a section is built, so its range checks
    # meet only finite numbers: m_c = -inf is not finite before it is not > 0
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        _code_built(path, value)


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: Scenario(rls=RlsOptions(theta0=(1.0, 2.0))),
         "key 'rls.theta0' must be a list of 3 numbers"),
        (lambda: Scenario(rls=RlsOptions(warmup_steps=True)),
         "key 'rls.warmup_steps' must be an integer, got True"),
        (lambda: Scenario(seed=1.5), "key 'seed' must be an integer, got 1.5"),
        (lambda: Scenario(adaptive=0), "key 'adaptive' must be true/false, got 0"),
        (lambda: Scenario(seed="a"), "key 'seed' must be an integer, got 'a'"),
        # in code as in a file, an integer key turns 3.0 into 3
        (lambda: Scenario(seed=3.0).seed, 3),
        (lambda: DisturbanceSpec(kind="bounded-uniform-random", seed=3.0).seed, 3),
        (lambda: Scenario(rls=RlsOptions(warmup_steps=10.0)).rls.warmup_steps, 10),
        # zero is allowed at each ">= 0" key
        (lambda: RlsOptions(theta0_perturbation=0).theta0_perturbation, 0.0),
        (lambda: RlsOptions(warmup_steps=0.0).warmup_steps, 0),
        (lambda: DisturbanceSpec(kind="constant", amplitude=0).amplitude, 0.0),
        (lambda: Scenario(seed=0.0).seed, 0),
        # a file's empty section reads as None, but a section built in code is never None
        (lambda: Scenario(gains=None), "section 'gains' must be a mapping, got None"),
        (lambda: Scenario(bounds=(-1.0, 0.0, 5.0)),
         "key 'bounds' must be a pair (u_min, u_max), got (-1.0, 0.0, 5.0)"),
        (lambda: Scenario(bounds=(1.0,)), "key 'bounds' must be a pair (u_min, u_max), got (1.0,)"),
        (lambda: Scenario(bounds=1.0), "key 'bounds' must be a pair (u_min, u_max), got 1.0"),
    ],
    ids=["theta0-of-2", "warmup-true", "seed-1.5", "adaptive-0", "seed-str", "seed-3.0",
         "disturbance.seed-3.0", "warmup-10.0", "perturbation-0", "warmup-0.0",
         "amplitude-0", "seed-0.0", "gains-none", "bounds-of-3", "bounds-of-1",
         "bounds-scalar"],
)
def test_shape_and_type_rule_built_in_code(build, expected):
    # each of these once constructed or failed without naming its key; seed
    # 3.0, disturbance.seed 3.0 and three bounds then made sim.run raise
    outcome = _outcome(build)
    assert (outcome, type(outcome)) == (expected, type(expected))


@pytest.mark.parametrize(
    "listed, tupled",
    [
        (Scenario(bounds=[-1.0, 1.0]), Scenario(bounds=(-1.0, 1.0))),
        (Scenario(rls=RlsOptions(theta0=[1.0, 2.0, 3.0])),
         Scenario(rls=RlsOptions(theta0=(1.0, 2.0, 3.0)))),
    ],
    ids=["bounds", "rls.theta0"],
)
def test_list_built_in_code_is_stored_as_a_tuple(listed, tupled):
    # a list once made the frozen scenario unhashable, unequal to its tuple
    # twin, and not equal to itself after a round trip through a file
    assert listed == tupled
    assert hash(listed) == hash(tupled)
    assert parse_scenario(yaml.safe_load(dumps_scenario(listed))) == listed


def test_infinite_bounds_leave_the_box_open():
    sc = parse_scenario({"bounds": {"u_min": float("-inf"), "u_max": float("inf")}})
    assert sc.bounds == (float("-inf"), float("inf"))
    assert parse_scenario(yaml.safe_load(dumps_scenario(sc))) == sc


def test_integer_keys_take_integral_numbers():
    sc = parse_scenario({"seed": 3.0, "rls": {"warmup_steps": 10.0}})
    assert (sc.seed, sc.rls.warmup_steps) == (3, 10)
    assert isinstance(sc.seed, int) and isinstance(sc.rls.warmup_steps, int)
    with pytest.raises(ConfigError, match=r"key 'rls.warmup_steps' must be an integer"):
        parse_scenario({"rls": {"warmup_steps": 2.5}})


def test_theta0_entry_named_by_index():
    with pytest.raises(ConfigError, match=r"key 'rls.theta0\[2\]' must be finite"):
        parse_scenario({"rls": {"theta0": [1.0, 2.0, float("inf")]}})
    with pytest.raises(ConfigError, match=r"key 'rls.theta0\[1\]' must be a number"):
        parse_scenario({"rls": {"theta0": [1.0, "2", 3.0]}})


@pytest.mark.parametrize(
    "text, key, line",
    [
        ("initial: {x1: 0.1, x1: 0.3}\n", "x1", 1),
        ("seed: 1\ntiming: {duration: 1.0}\nseed: 2\n", "seed", 3),
        ("rls:\n  warmup_steps: 5\n  m0_scale: 10.0\n  warmup_steps: 6\n", "warmup_steps", 4),
    ],
)
def test_duplicate_key_is_config_error_naming_key_and_line(tmp_path, text, key, line):
    path = tmp_path / "dup.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"duplicate key '{key}'\n.*line {line},"):
        load_scenario(path)


def test_merge_key_overrides_are_not_duplicates():
    text = "a: &base {x: 1, y: 2}\nb:\n  <<: *base\n  x: 3\n"
    assert yaml.load(text, Loader=_StrictLoader) == {"a": {"x": 1, "y": 2}, "b": {"x": 3, "y": 2}}


def test_non_utf8_file_is_config_error_naming_path(tmp_path):
    path = tmp_path / "latin1.yaml"
    path.write_bytes("timing: {duration: 1.0}  # café\n".encode("latin-1"))
    with pytest.raises(ConfigError, match=rf"{path.name} is not UTF-8"):
        load_scenario(path)


# scenarios whose dumped text exercises the emitter's edge cases: infinite
# bounds, the largest seed, an explicit theta0 and a subnormal float
EDGE_SCENARIOS = [
    default_scenario(),
    sinusoid_scenario(),
    parse_scenario({"bounds": {"u_min": float("-inf"), "u_max": float("inf")}}),
    parse_scenario({"disturbance": {"kind": "bounded-uniform-random", "amplitude": 0.5,
                                    "seed": 2**64 - 1}, "seed": 2**40}),
    parse_scenario({"adaptive": True, "rls": {"theta0": [0.1, -2, 1.7e-8]}}),
    parse_scenario({"initial": {"x1": 5e-324, "x2": -0.0}, "settle_tol": 1e-300}),
]


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("scenario", EDGE_SCENARIOS)
def test_libyaml_reads_and_writes_like_pure_python(scenario):
    text = dumps_scenario(scenario)
    assert text == yaml.dump(scenario_to_dict(scenario), Dumper=yaml.SafeDumper, sort_keys=False)
    # repr tells -0.0 from 0.0 and keeps every float digit
    assert repr(yaml.load(text, Loader=_StrictLoader)) == repr(yaml.safe_load(text))
    assert parse_scenario(yaml.load(text, Loader=_StrictLoader)) == scenario


SCALAR_PATHS = [path for path, _ in LEAVES if "[" not in path]
# names that are not key paths, such as leaf names, fail as that key in a file would
NOT_PATHS = ["c1", "c2", "T", "R", "vartheta", "u_min", "u_max", "duration"]


def _file_tree(base, name, value):
    """`base` as a file tree with the keys that grid axis `name` sets to `value`."""
    tree = scenario_to_dict(base)
    if name == "bound":
        # a NaN bound is rejected on its u_max, before a u_min exists
        tree["bounds"] = {"u_max": abs(value)}
        if not math.isnan(value):
            tree["bounds"]["u_min"] = -abs(value)
        return tree
    *sections, key = name.split(".")
    node = tree
    for section in sections:
        node = node[section]
    node[key] = value
    return tree


def _outcome(build, *args):
    try:
        return build(*args)
    except ValueError as err:
        return str(err)


# values are typed like their Scenario() default, not like the base: over the
# integer bounds (-2, 2), u_max 5.5 and bound 2.5 are numbers, not bad integers
@pytest.mark.parametrize("base", [default_scenario(), replace(default_scenario(), bounds=(-2, 2))])
@pytest.mark.parametrize("name", [*SCALAR_PATHS, "bound", *NOT_PATHS])
@pytest.mark.parametrize("value", [3.0, 2.5, -1.0, 0.0, math.inf, math.nan])
def test_grid_cell_builds_like_file_tree(base, name, value):
    cell = _outcome(apply_grid_point, base, {name: value})
    file = _outcome(parse_scenario, _file_tree(base, name, value))
    assert cell == file
