"""Scenario configuration files: a strict YAML key-value tree.

The tree mirrors `Scenario`: one mapping per section field, keyed by the
section's field names, and the scalar fields at the top level, all in
declaration order.  Every key is optional and defaults to `Scenario()`;
unknown keys are rejected with their full path so typos cannot silently fall
back to defaults, and every value passes `sim.checked_value`, which names the
key path.  A key given twice in one mapping is rejected with its line.
Serialization round-trips exactly: parse(dump(parse(x))) yields an identical
Scenario.  Files are read and written through libyaml when PyYAML has it;
the constructor and representer are PyYAML's safe ones either way, so the
parsed tree and the dumped text do not depend on it.
"""

from __future__ import annotations

from dataclasses import asdict, fields, is_dataclass, replace

import yaml

from .sim import BOUND_KEYS, Scenario, checked_value


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


def _mapping(path: str, raw) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"section '{path}' must be a mapping, got {raw!r}")
    return dict(raw)


def _finish(prefix: str, data: dict) -> None:
    if data:
        stray = sorted(f"{prefix}{k}" for k in data)
        raise ConfigError(f"unknown key(s): {', '.join(stray)}")


def _theta0(raw) -> tuple[float, float, float] | None:
    if raw is None:
        return None
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ConfigError("key 'rls.theta0' must be a list of 3 numbers")
    return tuple(checked_value(f"rls.theta0[{i}]", v, 0.0) for i, v in enumerate(raw))


def _parse_section(name: str, raw, default):
    data = _mapping(name, raw)
    if name == "bounds":
        value = tuple(
            checked_value(f"bounds.{k}", data.pop(k, d), d) for k, d in zip(BOUND_KEYS, default)
        )
    else:
        changes = {}
        for f in fields(default):
            if f.name in data:
                path, given = f"{name}.{f.name}", data.pop(f.name)
                if path == "rls.theta0":
                    changes[f.name] = _theta0(given)
                else:
                    changes[f.name] = checked_value(path, given, getattr(default, f.name))
        value = replace(default, **changes)
    _finish(f"{name}.", data)
    return value


def parse_scenario(data: dict) -> Scenario:
    """Build a validated Scenario from a parsed configuration tree."""
    if data is not None and not isinstance(data, dict):
        raise ConfigError(f"configuration root must be a mapping, got {type(data).__name__}")
    root = dict(data or {})
    defaults = Scenario()
    try:
        values = {}
        for f in fields(Scenario):
            default = getattr(defaults, f.name)
            if f.name == "bounds" or is_dataclass(default):
                values[f.name] = _parse_section(f.name, root.pop(f.name, None), default)
            elif f.name in root:
                values[f.name] = checked_value(f.name, root.pop(f.name), default)
        _finish("", root)
        return Scenario(**values)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from err


def scenario_to_dict(s: Scenario) -> dict:
    """Configuration tree that parses back to an identical Scenario."""
    out = {}
    for f in fields(s):
        value = getattr(s, f.name)
        if f.name == "bounds":
            value = dict(zip(BOUND_KEYS, value))
        elif is_dataclass(value):
            # an unset optional (rls.theta0) is left out; tuples dump as lists
            value = {
                k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(value).items()
                if v is not None
            }
        out[f.name] = value
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
