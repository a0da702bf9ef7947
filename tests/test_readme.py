"""The README's library example runs, and its `prnn_abc.` names exist."""

import importlib
import re
from pathlib import Path

import prnn_abc

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


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
