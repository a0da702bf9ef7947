"""Golden digests: the pinned runs write the same bytes as when they were pinned.

Each run in `golden.json` is a scenario file dict with the sha256 of the
`trace.csv` and `summary.json` that `prnn-abc simulate` writes for it.  The
one run without a scenario is the exact-law trace of the default scenario, as
`traceio.write_trace` writes it.  Any change to a logged bit fails here.

After an intended change, or to pin a run added to the file by hand, rewrite
the digests and log the rewrite with its reason in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --rewrite

The digests do not depend on the BLAS kernel: no logged value goes through a
BLAS call, and a test recomputes the adaptive runs under another OpenBLAS
kernel.  They do depend on the libm variant glibc picks for the CPU: its FMA
and non-FMA `sin`, `cos`, `exp`, `log` and `atan` differ in the last bit on a
few inputs, and under `GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA` six golden runs
and the BLAS kernel test fail.  A mismatch on another host may be that drift,
not a regression.  `--digests NAME...` prints the fresh digests of the named
runs.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml

from prnn_abc import sim, traceio
from prnn_abc.cli import main
from prnn_abc.config import parse_scenario, scenario_to_dict

GOLDEN = Path(__file__).with_name("golden.json")
RUNS = json.loads(GOLDEN.read_text(encoding="utf-8"))["runs"]
ADAPTIVE_RUNS = [name for name, entry in RUNS.items() if entry.get("scenario", {}).get("adaptive")]


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


def fresh_digests(scenario: dict | None) -> dict[str, str]:
    """`digests` of a run made in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        return digests(scenario, Path(tmp))


@pytest.mark.parametrize("name", list(RUNS))
def test_run_writes_golden_bytes(name, tmp_path):
    pinned = dict(RUNS[name])
    assert digests(pinned.pop("scenario", None), tmp_path) == pinned


def _openblas_on_x86() -> bool:
    """numpy links OpenBLAS on x86-64, where OPENBLAS_CORETYPE picks the kernel."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not _openblas_on_x86(), reason="needs numpy on OpenBLAS on x86-64")
def test_adaptive_digests_do_not_depend_on_the_blas_kernel():
    # an SSE-only kernel without FMA: its dot products round unlike the AVX kernels'
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_CORETYPE="Nehalem")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, __file__, "--digests", *ADAPTIVE_RUNS],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    pinned = {name: dict(RUNS[name]) for name in ADAPTIVE_RUNS}
    for entry in pinned.values():
        del entry["scenario"]
    assert json.loads(done.stdout) == pinned


def rewrite() -> None:
    """Re-pin every run in golden.json, normalizing each scenario through `config`.

    Prints the name of every run whose digests changed, a new run included.
    """
    lines, changed = [], []
    for name, entry in RUNS.items():
        pinned = {}
        if "scenario" in entry:
            pinned["scenario"] = scenario_to_dict(parse_scenario(entry["scenario"]))
        fresh = fresh_digests(pinned.get("scenario"))
        if any(entry.get(key) != digest for key, digest in fresh.items()):
            changed.append(name)
        pinned.update(fresh)
        lines.append(f"  {json.dumps(name)}: {json.dumps(pinned)}")
    # one line per run, so that a re-pin diffs run by run
    GOLDEN.write_text('{"runs": {\n' + ",\n".join(lines) + "\n}}\n", encoding="utf-8")
    print(f"rewrote {GOLDEN}: {len(lines)} runs, digests changed for {len(changed)}")
    for name in changed:
        print(f"  {name}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--rewrite"]:
        rewrite()
    elif sys.argv[1:2] == ["--digests"] and set(sys.argv[2:]) <= set(RUNS):
        names = sys.argv[2:]
        print(json.dumps({name: fresh_digests(RUNS[name].get("scenario")) for name in names}))
    else:
        sys.exit(f"usage: {sys.argv[0]} --rewrite | --digests NAME...")
