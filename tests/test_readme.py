"""The README's library example runs, its `prnn_abc.` names exist, its scenario block is
the default scenario, its suites paragraph names every verify suite, and its sweeps build."""

import importlib
import re
from pathlib import Path

import yaml

import prnn_abc
from prnn_abc import verify
from prnn_abc.config import Scenario, apply_grid_point, parse_scenario, scenario_to_dict
from prnn_abc.sim import default_scenario

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
# (name, values) of each --grid on a `prnn-abc sweep` command line
SWEEP_AXES = [
    (name, [float(v) for v in values.split(",")])
    for line in README.splitlines()
    if "prnn-abc sweep" in line
    for name, values in re.findall(r'--grid "?([^=\s"]+)=([^\s"]+)', line)
]


def test_library_use_example_runs(capsys):
    code = re.search(r"\n## Library use\n[^#]*?```python\n(.*?)```", README, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    saturation_fraction, settling_time = capsys.readouterr().out.splitlines()[0].split()
    assert 0.0 < float(saturation_fraction) < 1.0
    assert float(settling_time) <= 5.0


def test_top_level_names_are_the_documented_ones():
    documented = re.findall(r"from prnn_abc import ([\w, ]+)", README)
    names = {name.strip() for line in documented for name in line.split(",")}
    names |= set(re.findall(r"`prnn_abc\.([A-Z]\w*)`", README))
    assert sorted(prnn_abc.__all__) == sorted(names | {"__version__"})
    for name in prnn_abc.__all__:
        assert hasattr(prnn_abc, name)


def test_dotted_names_in_readme_resolve():
    for dotted in set(re.findall(r"`(prnn_abc(?:\.\w+)+)", README)):
        module, _, attr = dotted.rpartition(".")
        try:
            importlib.import_module(dotted)
        except ModuleNotFoundError:
            assert hasattr(importlib.import_module(module), attr), dotted


def test_scenario_file_block_is_the_default_scenario():
    text = re.search(r"\n## Scenario files\n.*?```yaml\n(.*?)```", README, re.S).group(1)
    tree = yaml.safe_load(text)
    assert parse_scenario(tree) == Scenario()
    assert list(tree) == list(scenario_to_dict(Scenario()))


def test_suites_paragraph_names_every_suite_in_order():
    paragraph = re.search(r"\nVerification suites: (.*?)\n\n", README, re.S).group(1)
    assert re.findall(r"`([a-z0-9-]+)`", paragraph) == list(verify.SUITES)


def _builds(name, value):
    try:
        apply_grid_point(default_scenario(), {name: value})
    except ValueError:
        return False
    return True


def test_documented_sweep_axes_are_accepted():
    assert {"prnn.vartheta", "weights.R", "gains.c1", "initial.x1"} <= {n for n, _ in SWEEP_AXES}
    # a name that is not a key path fails every value as an unknown key
    for name, values in SWEEP_AXES:
        assert any(_builds(name, v) for v in values), (name, values)
