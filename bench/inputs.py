"""Seeded input generators, one per workload.

Each generator writes only what the program receives (scenario YAMLs or
the verify seed) and returns the batch as plain data: the
`prnn-abc` command lines of each operation plus what the output checks need
to know about them.  The same seed always gives the same files.  Nothing
here imports `prnn_abc`, so the parent process stays light.

The ranges below were chosen so that no operation fails; the measurements
behind them are in README.md.
"""

from __future__ import annotations

import random
from pathlib import Path

import yaml

WORKLOADS = ("stabilize-nominal", "track-adaptive-disturbed", "verify-all")

# operations per pass over the batch; a timed run repeats passes
BATCH = {"stabilize-nominal": 24, "track-adaptive-disturbed": 24}

STABILIZE_DURATION = 5.0
TIGHT_SHARE = 0.4  # share of stabilize runs with a bound tight enough to saturate
TRACK_DURATION = 1.2
# estimates are used, and checked for physical sense, from this step on; at
# the default 50 the weakly excited m/(m_c+m) can still be negative there
TRACK_WARMUP_STEPS = 80
THETA_ERROR_TOL = 0.1  # pinned; the worst of 1400 trials was 0.025
# the suites of `prnn-abc verify`, in its order; checks.py confirms the list
VERIFY_SUITES = ("prnn-oracle", "prnn-decay", "lyapunov", "stabilization", "r-consistency",
                 "rls-batch", "saturation", "gradient", "rk4-order", "projection")
SMOKE_VERIFY_SUITE = "projection"


def _write_yaml(path: Path, tree: dict) -> str:
    path.write_text(yaml.safe_dump(tree, sort_keys=False), encoding="utf-8")
    return str(path)


def _stabilize(rng: random.Random, inputs: Path, n: int) -> dict:
    ops = []
    for i in range(n):
        if rng.random() < TIGHT_SHARE:
            # tight bound: rides the limit for 1-3% of steps; a faster start
            # or a looser range adds V2 monitor violations or aborts
            sign = rng.choice((-1.0, 1.0))
            bound = rng.uniform(2.4, 2.5)
            x1 = sign * rng.uniform(0.175, 0.185)
            x2 = -sign * rng.uniform(0.0, 0.03)
        else:
            bound = rng.uniform(4.0, 30.0)
            x1 = rng.uniform(-0.2, 0.2)
            x2 = rng.uniform(-0.1, 0.1)
        tree = {
            "initial": {"x1": x1, "x2": x2},
            "reference": {"kind": "constant", "setpoint": 0.0},
            "bounds": {"u_min": -bound, "u_max": bound},
            "timing": {"duration": STABILIZE_DURATION},
        }
        config = _write_yaml(inputs / f"stabilize-{i:03d}.yaml", tree)
        ops.append({
            "argv": [
                ["simulate", "--config", config, "--out", "{out}"],
                ["validate", "{out}/trace.csv"],
            ],
            "bounds": [-bound, bound],
        })
    return {"setup_yaml": ops[0]["argv"][0][2], "ops": ops}


def _track(rng: random.Random, inputs: Path, n: int) -> dict:
    ops = []
    for i in range(n):
        tree = {
            "initial": {"x1": 0.0, "x2": 0.0},
            "reference": {
                "kind": "sinusoid",
                "amplitude": rng.uniform(0.35, 0.5),
                "frequency": rng.uniform(0.7, 1.0),
            },
            "disturbance": {
                "kind": "bounded-uniform-random",
                "amplitude": rng.uniform(0.05, 0.5),
                "seed": rng.randrange(2**31),
            },
            "timing": {"duration": TRACK_DURATION},
            "rls": {"warmup_steps": TRACK_WARMUP_STEPS},
            "seed": rng.randrange(2**31),
        }
        config = _write_yaml(inputs / f"track-{i:03d}.yaml", tree)
        ops.append({
            "argv": [
                ["simulate", "--config", config, "--adaptive", "on", "--out", "{out}"],
                ["validate", "{out}/trace.csv"],
            ],
            "bounds": [-30.0, 30.0],
        })
    return {"setup_yaml": ops[0]["argv"][0][2], "ops": ops}


def _verify(rng: random.Random, inputs: Path, suites: tuple[str, ...]) -> dict:
    # one operation per suite: a pass over the batch is one full `verify`, in
    # operations short enough for their latency percentiles to mean something
    seed = rng.randrange(2**31)
    (inputs / "verify-seed.txt").write_text(f"{seed}\n", encoding="utf-8")
    ops = [{"argv": [["verify", "--suite", name, "--seed", str(seed)]], "suite": name}
           for name in suites]
    return {"setup_yaml": None, "ops": ops}


def generate(workload: str, seed: int, inputs: Path, smoke: bool = False) -> dict:
    """Write the workload's inputs for `seed` under `inputs`; return the batch.

    `smoke` shrinks the batch to a single cheap operation for the smoke test.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "stabilize-nominal":
        batch = _stabilize(rng, inputs, 1 if smoke else BATCH[workload])
    elif workload == "track-adaptive-disturbed":
        batch = _track(rng, inputs, 1 if smoke else BATCH[workload])
    elif workload == "verify-all":
        batch = _verify(rng, inputs, (SMOKE_VERIFY_SUITE,) if smoke else VERIFY_SUITES)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    batch["workload"] = workload
    return batch
