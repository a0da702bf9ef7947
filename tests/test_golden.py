"""Golden digests: the pinned runs write the same bytes as when they were pinned.

Each run in `golden.json` is a scenario file dict with the sha256 of the
`trace.csv` and `summary.json` that `prnn-abc simulate` writes for it.  The
one run without a scenario is the exact-law trace of the default scenario, as
`traceio.write_trace` writes it.  Any change to a logged bit fails here.

After an intended change, or to pin a run added to the file by hand, rewrite
the digests and log the rewrite with its reason in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --rewrite
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
import yaml

from prnn_abc import sim, traceio
from prnn_abc.cli import main
from prnn_abc.config import parse_scenario, scenario_to_dict

GOLDEN = Path(__file__).with_name("golden.json")
RUNS = json.loads(GOLDEN.read_text(encoding="utf-8"))["runs"]


def digests(scenario: dict | None, workdir: Path) -> dict[str, str]:
    """sha256 of the files that a pinned run writes; scenario None is the exact-law run."""
    out = workdir / "out"
    files = {"trace_sha256": out / "trace.csv"}
    if scenario is None:
        out.mkdir()
        trace, _ = sim.run_exact_baseline(sim.default_scenario())
        traceio.write_trace(out / "trace.csv", trace)
    else:
        config = workdir / "in.yaml"
        config.write_text(yaml.safe_dump(scenario, sort_keys=False), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["simulate", "--config", str(config), "--out", str(out)]) in (0, 1)
        files["summary_sha256"] = out / "summary.json"
    return {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in files.items()}


@pytest.mark.filterwarnings("ignore:nonphysical parameter estimate")
@pytest.mark.parametrize("name", list(RUNS))
def test_run_writes_golden_bytes(name, tmp_path):
    pinned = dict(RUNS[name])
    assert digests(pinned.pop("scenario", None), tmp_path) == pinned


def rewrite() -> None:
    """Re-pin every run in golden.json, normalizing each scenario through `config`."""
    lines = []
    for name, entry in RUNS.items():
        pinned = {}
        if "scenario" in entry:
            pinned["scenario"] = scenario_to_dict(parse_scenario(entry["scenario"]))
        with tempfile.TemporaryDirectory() as tmp:
            pinned.update(digests(pinned.get("scenario"), Path(tmp)))
        lines.append(f"  {json.dumps(name)}: {json.dumps(pinned)}")
    # one line per run, so that a re-pin diffs run by run
    GOLDEN.write_text('{"runs": {\n' + ",\n".join(lines) + "\n}}\n", encoding="utf-8")
    print(f"rewrote {GOLDEN}: {len(lines)} runs")


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit(f"usage: {sys.argv[0]} --rewrite")
    rewrite()
