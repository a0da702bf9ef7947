"""The scenario schema, strict YAML files, and sweep cells.

A file is a key-value tree that mirrors `Scenario`: one mapping per section
field, keyed by the section's field names, and the scalar fields at the top
level, all in declaration order.  Every key is optional and defaults to
`Scenario()`; unknown keys are rejected with their full path so typos cannot
silently fall back to defaults.  Each value is checked once, where its
section is built: a section's __post_init__ types its fields like their
defaults and applies the sign or choice rule declared with a default
(`plant.check_fields`, `plant.ranged`) before its remaining checks, and
`Scenario`'s does so for its own keys, so code, files and sweep cells meet
one rule that names the key path; `_build` only maps a tree onto `replace`
calls.  A key given twice in one mapping is rejected with its line.
Serialization round-trips exactly: parse(dump(parse(x))) yields an identical
Scenario.  Files are read and written through libyaml when PyYAML has it;
the constructor and representer are PyYAML's safe ones either way, so the
parsed tree and the dumped text do not depend on it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, is_dataclass, replace

import yaml

from .backstepping import Gains, ReferenceSignal
from .plant import DisturbanceSpec, PendulumParams, PlantState, check_fields, checked_value, ranged
from .prnn import PrnnConfig
from .qp import Weights


@dataclass(frozen=True)
class Timing:
    """Loop timing; the control period must tile into whole plant steps."""

    plant_dt: float = 0.001
    control_period: float = 0.01
    duration: float = ranged(5.0, "> 0")

    def __post_init__(self):
        check_fields(self, "timing")  # first: the checks below take finite numbers
        if not 0 < self.plant_dt <= self.control_period:
            raise ValueError(
                f"timing.plant_dt must be in (0, control_period], got {self.plant_dt!r}"
            )
        # a ratio past the float range would make round() overflow
        for num, den in (("control_period", "plant_dt"), ("duration", "control_period")):
            a, b = getattr(self, num), getattr(self, den)
            if not math.isfinite(a / b):
                raise ValueError(f"timing.{num} / {den} must be finite, got {a!r} / {b!r}")
        ratio = self.control_period / self.plant_dt
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("timing.control_period must be an integer multiple of plant_dt")
        if self.control_steps < 1:
            raise ValueError("timing.duration must round to at least one control period")
        # a step too small to move the clock at the run's end would never
        # finish the run
        end = self.control_steps * self.control_period
        if end + 0.5 * self.plant_dt == end:
            raise ValueError(
                f"timing.plant_dt {self.plant_dt!r} is too small: "
                f"half a step vanishes at the run's end t={end!r}"
            )

    @property
    def substeps(self) -> int:
        return round(self.control_period / self.plant_dt)

    @property
    def control_steps(self) -> int:
        return round(self.duration / self.control_period)


@dataclass(frozen=True)
class RlsOptions:
    """Estimator initialization and gating knobs."""

    theta0_perturbation: float = ranged(0.3, ">= 0")
    m0_scale: float = ranged(100.0, "> 0")
    warmup_steps: int = ranged(50, ">= 0")
    excitation_gate: float = 1e-8
    theta0: tuple[float, float, float] | None = None  # explicit initial estimate

    def __post_init__(self):
        check_fields(self, "rls")
        if (theta0 := self.theta0) is not None:
            if not isinstance(theta0, (list, tuple)) or len(theta0) != 3:
                raise ValueError("key 'rls.theta0' must be a list of 3 numbers")
            theta0 = tuple(checked_value(f"rls.theta0[{i}]", v, 0.0) for i, v in enumerate(theta0))
            object.__setattr__(self, "theta0", theta0)


@dataclass(frozen=True)
class Scenario:
    """Complete description of one closed-loop experiment.

    Fields and section fields are declared in scenario-file order and carry
    their file key names, so parse and dump derive from them.
    """

    params: PendulumParams = PendulumParams()
    initial: PlantState = PlantState(0.1, 0.0)
    reference: ReferenceSignal = ReferenceSignal()
    disturbance: DisturbanceSpec = DisturbanceSpec()
    gains: Gains = Gains()
    weights: Weights = Weights()
    bounds: tuple[float, float] = (-30.0, 30.0)
    timing: Timing = Timing()
    prnn: PrnnConfig = PrnnConfig()
    rls: RlsOptions = RlsOptions()
    adaptive: bool = False
    seed: int = ranged(0, ">= 0")
    settle_tol: float = ranged(0.01, "> 0")

    def __post_init__(self):
        # the sections checked their values when built; these keys are the scenario's
        for name, cls in _SECTIONS.items():
            if not isinstance(section := getattr(self, name), cls):
                raise ValueError(f"section '{name}' must be a mapping, got {section!r}")
        x1, x2 = (checked_value(f"initial.{k}", v, 0.0) for k, v in vars(self.initial).items())
        object.__setattr__(self, "initial", PlantState(x1, x2))
        if not isinstance(self.bounds, (list, tuple)) or len(self.bounds) != 2:
            raise ValueError(f"key 'bounds' must be a pair (u_min, u_max), got {self.bounds!r}")
        lo, hi = (checked_value(f"bounds.{k}", v, 0.0) for k, v in zip(BOUND_KEYS, self.bounds))
        object.__setattr__(self, "bounds", (lo, hi))
        check_fields(self, "")
        if not lo < hi:
            raise ValueError("bounds.u_min must be < bounds.u_max")
        # a sinusoid's phase 2*pi*f*t must stay finite up to the last time it
        # is read, below twice the run's length, or math.sin has no value there
        horizon = 2.0 * self.timing.control_steps * self.timing.control_period
        for name, signal in (("reference", self.reference), ("disturbance", self.disturbance)):
            phase = 2.0 * math.pi * signal.frequency * horizon
            if signal.kind == "sinusoid" and not math.isfinite(phase):
                raise ValueError(
                    f"{name}.frequency {signal.frequency!r} makes the sinusoid's "
                    f"phase overflow within the run"
                )


_SECTIONS = {f.name: type(f.default) for f in fields(Scenario) if is_dataclass(f.default)}
BOUND_KEYS = ("u_min", "u_max")  # file keys of the two `bounds` entries


class ConfigError(ValueError):
    """Malformed scenario configuration; message carries the offending key."""


_SafeLoader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
_SafeDumper = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper
_MERGE_TAG = "tag:yaml.org,2002:merge"


class _StrictLoader(_SafeLoader):
    """The safe loader, rejecting a key that one mapping gives twice."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            # a merge key (<<) is expanded by the base constructor, and a
            # non-scalar key is unhashable, which the base constructor reports
            if key_node.tag == _MERGE_TAG or not isinstance(key_node, yaml.ScalarNode):
                continue
            key = self.construct_object(key_node)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark,
                )
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def _build(path: str, tree, current):
    """`current` (a Scenario, a section or the bounds) with the partial tree `tree` applied.

    Keys the tree leaves out, and an empty (None) section, keep `current`'s
    values; values are typed like their `Scenario()` default, not like `current`.
    """
    if tree is None:
        return current
    if not isinstance(tree, dict):
        raise ValueError(f"section '{path}' must be a mapping, got {tree!r}")
    prefix = f"{path}." if path else ""
    keys = BOUND_KEYS if path == "bounds" else [f.name for f in fields(current)]
    known = {k: tree[k] for k in keys if k in tree}
    if path == "bounds":
        built = tuple(known.get(k, b) for k, b in zip(keys, current))
    else:
        built = replace(current, **{
            k: _build(k, v, getattr(current, k)) if not path and k in (*_SECTIONS, "bounds") else v
            for k, v in known.items()
        })
    if len(known) < len(tree):
        stray = sorted(f"{prefix}{k}" for k in tree if k not in known)
        raise ValueError(f"unknown key(s): {', '.join(stray)}")
    return built


def parse_scenario(data: dict) -> Scenario:
    """Build a validated Scenario from a parsed configuration tree."""
    if data is not None and not isinstance(data, dict):
        raise ConfigError(f"configuration root must be a mapping, got {type(data).__name__}")
    try:
        return _build("", data, Scenario())
    except ValueError as err:
        raise ConfigError(str(err)) from err


def apply_grid_point(base: Scenario, coords: dict[str, float]) -> Scenario:
    """`base` with the axes of one sweep cell applied together, so their order does not matter.

    Each axis name is a scenario file key path such as `gains.c1` or `seed`, and the
    cell becomes a partial scenario tree built like a file's, so a path that no file
    could set fails with the file's message.  `bound` sets -|v| <= u <= |v| at once.
    """
    paths = {name: "bounds" if name == "bound" else name for name in coords}
    for a, b in itertools.combinations(sorted(paths), 2):
        outer, inner = sorted((paths[a], paths[b]), key=len)
        if f"{inner}.".startswith(f"{outer}."):
            # in either order, one of the two axes would silently override the other
            raise ValueError(f"sweep parameters {a!r} and {b!r} both set {inner}")
    tree: dict = {}
    for name, value in coords.items():
        if name == "bound":
            v = abs(checked_value("bounds.u_max", value, 0.0))
            name, value = "bounds", {"u_min": -v, "u_max": v}
        *sections, key = name.split(".")
        node = tree
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
    return _build("", tree, base)


def scenario_to_dict(s: Scenario) -> dict:
    """Configuration tree that parses back to an identical Scenario."""
    out = {}
    for name, value in vars(s).items():
        if name == "bounds":
            value = dict(zip(BOUND_KEYS, value))
        elif is_dataclass(value):
            # the unset optional rls.theta0 is left out; tuples dump as lists
            value = {
                k: list(v) if isinstance(v, tuple) else v
                for k, v in vars(value).items()
                if not (k == "theta0" and v is None)
            }
        out[name] = value
    return out


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_StrictLoader)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except UnicodeDecodeError as err:  # raised while reading
        raise ConfigError(f"config {path} is not UTF-8 text: {err}") from err
    except yaml.YAMLError as err:
        raise ConfigError(f"invalid YAML in {path}: {err}") from err
    return parse_scenario(data)


def dumps_scenario(s: Scenario) -> str:
    return yaml.dump(scenario_to_dict(s), Dumper=_SafeDumper, sort_keys=False)
