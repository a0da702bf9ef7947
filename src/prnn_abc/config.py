"""Scenario configuration files: a strict YAML key-value tree.

Every key is optional and defaults to the bundled Table-of-constants values;
unknown keys are rejected with their full path so typos cannot silently fall
back to defaults.  Serialization round-trips exactly: parse(dump(parse(x)))
yields an identical Scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

import yaml

from .backstepping import Gains, ReferenceSignal
from .plant import DisturbanceSpec, PendulumParams, PlantState
from .prnn import PrnnConfig
from .qp import Weights
from .sim import RlsOptions, Scenario, Timing


class ConfigError(ValueError):
    """Malformed scenario configuration; message carries the offending key."""


@dataclass
class _Section:
    """One mapping node being consumed key by key."""

    path: str
    data: dict

    def take(self, key, default):
        return self.data.pop(key, default)

    def take_number(self, key, default) -> float:
        v = self.data.pop(key, default)
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"key '{self._at(key)}' must be a number, got {v!r}")
        return float(v)

    def take_int(self, key, default) -> int:
        v = self.data.pop(key, default)
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"key '{self._at(key)}' must be an integer, got {v!r}")
        return v

    def take_bool(self, key, default) -> bool:
        v = self.data.pop(key, default)
        if not isinstance(v, bool):
            raise ConfigError(f"key '{self._at(key)}' must be true/false, got {v!r}")
        return v

    def take_str(self, key, default) -> str:
        v = self.data.pop(key, default)
        if not isinstance(v, str):
            raise ConfigError(f"key '{self._at(key)}' must be a string, got {v!r}")
        return v

    def finish(self) -> None:
        if self.data:
            stray = sorted(self._at(k) for k in self.data)
            raise ConfigError(f"unknown key(s): {', '.join(stray)}")

    def _at(self, key) -> str:
        return f"{self.path}.{key}" if self.path else str(key)


def _section(parent: _Section, key: str) -> _Section:
    raw = parent.take(key, {})
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"section '{key}' must be a mapping, got {raw!r}")
    return _Section(path=key, data=dict(raw))


def parse_scenario(data: dict) -> Scenario:
    """Build a validated Scenario from a parsed configuration tree."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"configuration root must be a mapping, got {type(data).__name__}")
    root = _Section(path="", data=dict(data))
    try:
        sec = _section(root, "params")
        params = PendulumParams(
            g=sec.take_number("g", 9.8),
            m_c=sec.take_number("m_c", 1.0),
            m=sec.take_number("m", 0.1),
            l=sec.take_number("l", 0.5),
        )
        sec.finish()

        sec = _section(root, "initial")
        initial = PlantState(x1=sec.take_number("x1", 0.1), x2=sec.take_number("x2", 0.0))
        sec.finish()

        sec = _section(root, "reference")
        reference = ReferenceSignal(
            kind=sec.take_str("kind", "constant"),
            setpoint=sec.take_number("setpoint", 0.0),
            amplitude=sec.take_number("amplitude", 0.0),
            frequency=sec.take_number("frequency", 0.0),
            ramp_time=sec.take_number("ramp_time", 0.0),
            start=sec.take_number("start", 0.0),
        )
        sec.finish()

        sec = _section(root, "disturbance")
        disturbance = DisturbanceSpec(
            kind=sec.take_str("kind", "none"),
            amplitude=sec.take_number("amplitude", 0.0),
            frequency=sec.take_number("frequency", 0.0),
            seed=sec.take_int("seed", 0),
        )
        sec.finish()

        sec = _section(root, "gains")
        gains = Gains(c1=sec.take_number("c1", 2.0), c2=sec.take_number("c2", 2.0))
        sec.finish()

        sec = _section(root, "weights")
        weights = Weights(T=sec.take_number("T", 100.0), R=sec.take_number("R", 0.01))
        sec.finish()

        sec = _section(root, "bounds")
        bounds = (sec.take_number("u_min", -30.0), sec.take_number("u_max", 30.0))
        sec.finish()

        sec = _section(root, "timing")
        timing = Timing(
            plant_dt=sec.take_number("plant_dt", 0.001),
            control_period=sec.take_number("control_period", 0.01),
            duration=sec.take_number("duration", 5.0),
        )
        sec.finish()

        sec = _section(root, "prnn")
        prnn_cfg = PrnnConfig(vartheta=sec.take_number("vartheta", 50.0))
        sec.finish()

        sec = _section(root, "rls")
        theta0_raw = sec.take("theta0", None)
        if theta0_raw is not None:
            if not isinstance(theta0_raw, (list, tuple)) or len(theta0_raw) != 3:
                raise ConfigError("key 'rls.theta0' must be a list of 3 numbers")
            theta0 = tuple(float(v) for v in theta0_raw)
        else:
            theta0 = None
        rls_options = RlsOptions(
            theta0_perturbation=sec.take_number("theta0_perturbation", 0.3),
            m0_scale=sec.take_number("m0_scale", 100.0),
            warmup_steps=sec.take_int("warmup_steps", 50),
            excitation_gate=sec.take_number("excitation_gate", 1e-8),
            theta0=theta0,
        )
        sec.finish()

        adaptive = root.take_bool("adaptive", False)
        seed = root.take_int("seed", 0)
        settle_tol = root.take_number("settle_tol", 0.01)
        root.finish()

        return Scenario(
            params=params,
            initial=initial,
            reference=reference,
            disturbance=disturbance,
            gains=gains,
            weights=weights,
            bounds=bounds,
            prnn=prnn_cfg,
            timing=timing,
            adaptive=adaptive,
            rls=rls_options,
            seed=seed,
            settle_tol=settle_tol,
        )
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from err


def scenario_to_dict(s: Scenario) -> dict:
    """Configuration tree that parses back to an identical Scenario."""
    out = {
        "params": {"g": s.params.g, "m_c": s.params.m_c, "m": s.params.m, "l": s.params.l},
        "initial": {"x1": s.initial.x1, "x2": s.initial.x2},
        "reference": {
            "kind": s.reference.kind,
            "setpoint": s.reference.setpoint,
            "amplitude": s.reference.amplitude,
            "frequency": s.reference.frequency,
            "ramp_time": s.reference.ramp_time,
            "start": s.reference.start,
        },
        "disturbance": {
            "kind": s.disturbance.kind,
            "amplitude": s.disturbance.amplitude,
            "frequency": s.disturbance.frequency,
            "seed": s.disturbance.seed,
        },
        "gains": {"c1": s.gains.c1, "c2": s.gains.c2},
        "weights": {"T": s.weights.T, "R": s.weights.R},
        "bounds": {"u_min": s.bounds[0], "u_max": s.bounds[1]},
        "timing": {
            "plant_dt": s.timing.plant_dt,
            "control_period": s.timing.control_period,
            "duration": s.timing.duration,
        },
        "prnn": {"vartheta": s.prnn.vartheta},
        "rls": {
            "theta0_perturbation": s.rls.theta0_perturbation,
            "m0_scale": s.rls.m0_scale,
            "warmup_steps": s.rls.warmup_steps,
            "excitation_gate": s.rls.excitation_gate,
        },
        "adaptive": s.adaptive,
        "seed": s.seed,
        "settle_tol": s.settle_tol,
    }
    if s.rls.theta0 is not None:
        out["rls"]["theta0"] = list(s.rls.theta0)
    return out


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except yaml.YAMLError as err:
        raise ConfigError(f"invalid YAML in {path}: {err}") from err
    return parse_scenario(data)


def dumps_scenario(s: Scenario) -> str:
    return yaml.safe_dump(scenario_to_dict(s), sort_keys=False)


def save_scenario(path, s: Scenario) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_scenario(s))
