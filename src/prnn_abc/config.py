"""The scenario schema and its value rule, strict YAML files, and sweep cells.

A file is a key-value tree that mirrors `Scenario`: one mapping per section
field, keyed by the section's field names, and the scalar fields at the top
level, all in declaration order.  Every key is optional and defaults to
`Scenario()`; unknown keys are rejected with their full path so typos cannot
silently fall back to defaults.  One value rule, `_checked`, walks a tree
against the default one, `_LIKE`, and names the key path of a bad value: a
file or a sweep cell (a partial tree over a base scenario) goes through it
section by section in `_build`, and a `Scenario` built in code goes through
it whole.  A key given twice in one mapping is rejected with its line.
Serialization round-trips exactly: parse(dump(parse(x))) yields an identical
Scenario.  Files are read and written through libyaml when PyYAML has it;
the constructor and representer are PyYAML's safe ones either way, so the
parsed tree and the dumped text do not depend on it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from types import SimpleNamespace

import yaml

from .backstepping import Gains, ReferenceSignal
from .plant import DisturbanceSpec, PendulumParams, PlantState
from .prnn import PrnnConfig
from .qp import Weights


@dataclass(frozen=True)
class Timing:
    """Loop timing; the control period must tile into whole plant steps."""

    plant_dt: float = 0.001
    control_period: float = 0.01
    duration: float = 5.0

    def __post_init__(self):
        # the file's value rule first, so round() never meets an infinite ratio
        for key, value in vars(self).items():
            checked_value(f"timing.{key}", value, 0.0)
        if not 0 < self.plant_dt <= self.control_period:
            raise ValueError(
                f"timing.plant_dt must be in (0, control_period], got {self.plant_dt!r}"
            )
        if not self.duration > 0:
            raise ValueError(f"timing.duration must be > 0, got {self.duration!r}")
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

    theta0_perturbation: float = 0.3
    m0_scale: float = 100.0
    warmup_steps: int = 50
    excitation_gate: float = 1e-8
    theta0: tuple[float, float, float] | None = None  # explicit initial estimate

    def __post_init__(self):
        if isinstance(self.theta0, list):  # stored as the tuple a file gives
            object.__setattr__(self, "theta0", tuple(self.theta0))
        if not self.theta0_perturbation >= 0:
            raise ValueError(
                f"rls.theta0_perturbation must be >= 0, got {self.theta0_perturbation!r}"
            )
        if not self.m0_scale > 0:
            raise ValueError(f"rls.m0_scale must be > 0, got {self.m0_scale!r}")
        if self.warmup_steps < 0:
            raise ValueError(f"rls.warmup_steps must be >= 0, got {self.warmup_steps!r}")


@dataclass(frozen=True)
class Scenario:
    """Complete description of one closed-loop experiment.

    Fields and section fields are declared in scenario-file order and carry
    their file key names, so parse and dump derive from them.
    """

    params: PendulumParams = field(default_factory=PendulumParams)
    initial: PlantState = field(default_factory=lambda: PlantState(0.1, 0.0))
    reference: ReferenceSignal = field(default_factory=ReferenceSignal)
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    gains: Gains = field(default_factory=Gains)
    weights: Weights = field(default_factory=Weights)
    bounds: tuple[float, float] = (-30.0, 30.0)
    timing: Timing = field(default_factory=Timing)
    prnn: PrnnConfig = field(default_factory=PrnnConfig)
    rls: RlsOptions = field(default_factory=RlsOptions)
    adaptive: bool = False
    seed: int = 0
    settle_tol: float = 0.01

    def __post_init__(self):
        if isinstance(self.bounds, list):  # stored as the tuple a file gives
            object.__setattr__(self, "bounds", tuple(self.bounds))
        # the file's value rule; the sections ran their own range checks when
        # they were built, and the scenario's follow
        _checked("", scenario_to_dict(self), _LIKE, exact=True)
        if not self.bounds[0] < self.bounds[1]:
            raise ValueError("bounds.u_min must be < bounds.u_max")
        if not 0 < self.settle_tol < math.inf:
            raise ValueError(f"settle_tol must be finite and > 0, got {self.settle_tol!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


BOUND_KEYS = ("u_min", "u_max")  # file keys of the two `bounds` entries
_OPEN_KEYS = ("bounds.u_min", "bounds.u_max")  # +-inf here leaves that side of the box open


def checked_value(path: str, value, like):
    """`value` for the scenario key at `path`, typed like that key's default `like`.

    The leaf of the value rule (`_checked`) for files, sweep grids and
    scenarios built in code; a ValueError names the key path.  Numbers must
    be finite and not NaN, except that the bounds may be +-inf.  Integer keys
    take integral numbers, so a grid's 3.0 is 3.
    """
    if isinstance(like, (bool, str)):
        if not isinstance(value, type(like)):
            want = "true/false" if isinstance(like, bool) else "a string"
            raise ValueError(f"key '{path}' must be {want}, got {value!r}")
        return value
    want = "an integer" if isinstance(like, int) else "a number"
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(like, int) and isinstance(value, float) and not value.is_integer())
    ):
        raise ValueError(f"key '{path}' must be {want}, got {value!r}")
    if isinstance(like, int):
        return int(value)
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"key '{path}' must be finite, got {value!r}") from None
    if math.isnan(number) or (math.isinf(number) and path not in _OPEN_KEYS):
        want = "a number" if path in _OPEN_KEYS else "finite"
        raise ValueError(f"key '{path}' must be {want}, got {number!r}")
    return number


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


def _checked(path: str, value, like, exact: bool = False):
    """`value` for the scenario key at `path` under the value rule, typed like `like`.

    `like` is the node of `_LIKE` at `path`.  A mapping takes its known keys,
    each checked in declaration order, and no other; `rls.theta0` takes None
    or a list of 3 numbers; a leaf goes through `checked_value`.  `exact` is
    for a scenario built in code: it refuses an integral float at an integer
    key, which a file's 3.0 is converted from, and a None section, which a
    file's empty section reads as.  A ValueError names the key path.
    """
    if isinstance(like, dict):
        if value is None and not exact:
            return {}
        if not isinstance(value, dict):
            raise ValueError(f"section '{path}' must be a mapping, got {value!r}")
        prefix = f"{path}." if path else ""
        out = {k: _checked(prefix + k, value[k], v, exact) for k, v in like.items() if k in value}
        if len(out) < len(value):
            stray = sorted(f"{prefix}{k}" for k in value if k not in like)
            raise ValueError(f"unknown key(s): {', '.join(stray)}")
        return out
    if isinstance(like, list):
        if value is None:
            return None
        if not isinstance(value, (list, tuple)) or len(value) != len(like):
            raise ValueError(f"key '{path}' must be a list of {len(like)} numbers")
        return tuple(_checked(f"{path}[{i}]", v, like[i], exact) for i, v in enumerate(value))
    checked = checked_value(path, value, like)
    if exact and type(checked) is int and isinstance(value, float):
        raise ValueError(f"key '{path}' must be an integer, got {value!r}")
    return checked


def _build(tree: dict, base: Scenario) -> Scenario:
    """`base` with the partial scenario tree `tree` applied, one section at a time.

    Sections the tree leaves out stay as in `base`.  Values are typed like their
    `Scenario()` default, not like `base`; a bad one raises a ValueError naming its key.
    """
    root = dict(tree)
    changes = {}
    for name, like in _LIKE.items():
        if name in root:
            value, current = _checked(name, root.pop(name), like), getattr(base, name)
            if name == "bounds":
                value = tuple(value.get(k, b) for k, b in zip(BOUND_KEYS, current))
            elif isinstance(like, dict):
                value = replace(current, **value)
            changes[name] = value
    _checked("", root, _LIKE)  # only unknown keys are left
    return replace(base, **changes)


def parse_scenario(data: dict) -> Scenario:
    """Build a validated Scenario from a parsed configuration tree."""
    if data is not None and not isinstance(data, dict):
        raise ConfigError(f"configuration root must be a mapping, got {type(data).__name__}")
    try:
        return _build(data or {}, Scenario())
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
    return _build(tree, base)


def scenario_to_dict(s: Scenario) -> dict:
    """Configuration tree that parses back to an identical Scenario."""
    out = {}
    for name, value in vars(s).items():
        if name == "bounds":
            # a scenario built in code can hold any value here, and zip drops a third entry
            if not isinstance(value, (list, tuple)) or len(value) != len(BOUND_KEYS):
                raise ValueError(f"key 'bounds' must be a pair (u_min, u_max), got {value!r}")
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


# the tree of `Scenario()`, with rls.theta0 as three numbers; built from the
# field defaults, since every Scenario, the default too, is checked against it
_LIKE = scenario_to_dict(SimpleNamespace(**{
    f.name: f.default_factory() if f.default is MISSING else f.default for f in fields(Scenario)
}))
_LIKE["rls"]["theta0"] = [0.0, 0.0, 0.0]


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
