"""Scenario configuration parsing, validation, and round-tripping."""

import pytest
import yaml

from prnn_abc.config import (
    ConfigError,
    dumps_scenario,
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_to_dict,
)
from prnn_abc.sim import Scenario, default_scenario, sinusoid_scenario


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
        parse_scenario({"prnn": {"tol": 1e-8, "rate_convention": "divide"}}),
    ):
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


def test_prnn_tiling_derived_from_timing():
    scenario = parse_scenario(
        {"timing": {"control_period": 0.02, "plant_dt": 0.002}, "prnn": {"inner_steps": 8}}
    )
    assert scenario.prnn.inner_dt * scenario.prnn.inner_steps == pytest.approx(0.02, rel=1e-15)


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
