"""Command-line front end for batch simulation, verification, and sweeps.

Exit codes are a stable contract: 0 success, 1 run abort or failed
verification, 2 configuration/usage error.  `PRNN_ABC_THREADS` caps sweep
parallelism.  Only `verify` imports the `verify` module, and with it numpy.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import sim, traceio
from .config import ConfigError, Scenario, dumps_scenario, load_scenario
from .sim import RunSummary, default_scenario

EXIT_OK = 0
EXIT_RUN_FAILED = 1
EXIT_CONFIG = 2

_SUMMARY_FIELDS = [f.name for f in dataclasses.fields(RunSummary)]


def _load_or_default(config_path: str | None) -> Scenario:
    if config_path is None:
        return default_scenario()
    return load_scenario(config_path)


def _out_dir(path: str) -> Path:
    """The --out directory, created before anything runs; ConfigError if it cannot be."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"--out {path!r}: cannot create output directory: {err}") from err
    return out_dir


def _print_summary(summary: RunSummary) -> None:
    print("run summary:")
    for name in _SUMMARY_FIELDS:
        value = getattr(summary, name)
        if isinstance(value, float):
            print(f"  {name:24s} {value:.6g}")
        else:
            print(f"  {name:24s} {value}")


# the plotted columns are found by name in the trace columns; gnuplot counts from 1
_GNUPLOT_SCRIPT = """\
# gnuplot script for a controller trace; run from the output directory:
#   gnuplot plot.gp
set datafile separator ','
set key autotitle columnhead
set terminal pngcairo size 1200,900
set output 'trace.png'
set multiplot layout 3,1
set ylabel 'angle (rad)'
plot 'trace.csv' using {t}:{x1} with lines title 'x1', '' using {t}:{x1d} with lines title 'x1d'
set ylabel 'control (N)'
plot 'trace.csv' using {t}:{u} with lines title 'u'
set ylabel 'V2'
set logscale y
plot 'trace.csv' using {t}:{V2} with lines title 'V2'
unset multiplot
""".format(**{name: i for i, name in enumerate(traceio.TRACE_COLUMNS, start=1)})


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load_or_default(args.config)
    if args.adaptive is not None:
        scenario = dataclasses.replace(scenario, adaptive=args.adaptive == "on")
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    out_dir = _out_dir(args.out)

    trace, summary = sim.run(scenario)
    traceio.write_trace(out_dir / "trace.csv", trace)
    payload = {  # JSON has no NaN or infinity
        k: (None if isinstance(v, float) and not math.isfinite(v) else v)
        for k, v in dataclasses.asdict(summary).items()
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")
    with open(out_dir / "scenario.yaml", "w", encoding="utf-8") as fh:
        fh.write(dumps_scenario(scenario))
    if args.gnuplot:
        (out_dir / "plot.gp").write_text(_GNUPLOT_SCRIPT, encoding="utf-8")

    _print_summary(summary)
    print(f"trace: {out_dir / 'trace.csv'} ({len(trace)} control steps)")
    if summary.aborted:
        print(f"run aborted: {summary.abort_reason}", file=sys.stderr)
        return EXIT_RUN_FAILED
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    scenario = None if args.scenario is None else load_scenario(args.scenario)
    names = None if args.suite is None else [args.suite]
    results = verify.run_suites(names, seed=args.seed, scenario=scenario)
    for name, result in results.items():
        print(result.line(name))
        for line in result.lines:
            print(f"    {line}")
    failed = [r for r in results.values() if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return EXIT_OK if not failed else EXIT_RUN_FAILED


def _parse_grid(specs: list[str]) -> dict[str, list[float]]:
    grid: dict[str, list[float]] = {}
    for spec in specs:
        key, sep, raw = spec.partition("=")
        key = key.strip()
        if not sep or not key or not raw.strip():
            raise ConfigError(f"grid spec {spec!r} must look like name=v1,v2,...")
        try:
            values = [float(v) for v in raw.split(",") if v.strip()]
        except ValueError as err:
            raise ConfigError(f"grid spec {spec!r}: {err}") from err
        if not values:
            raise ConfigError(f"grid spec {spec!r} has no values")
        if key in grid:
            raise ConfigError(f"grid name {key!r} given more than once")
        grid[key] = values
    return grid


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _load_or_default(args.config)
    grid = _parse_grid(args.grid)
    out_dir = _out_dir(args.out)

    workers = 1
    env = os.environ.get("PRNN_ABC_THREADS")
    if env:
        try:
            workers = max(1, int(env))
        except ValueError:
            print(f"ignoring malformed PRNN_ABC_THREADS={env!r}", file=sys.stderr)

    results = sim.sweep(base, grid, max_workers=workers)

    out_path = out_dir / "sweep.csv"
    keys = list(grid)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys + _SUMMARY_FIELDS + ["status"])
        for cell in results:
            row = [format(cell.coords[k], ".17g") for k in keys]
            if cell.summary is None:
                row += ["" for _ in _SUMMARY_FIELDS]
                row.append(cell.error)
            else:
                for name in _SUMMARY_FIELDS:
                    value = getattr(cell.summary, name)
                    row.append(format(value, ".17g") if isinstance(value, float) else str(value))
                if cell.summary.aborted:
                    row.append(f"aborted: {cell.summary.abort_reason}")
                else:
                    row.append("ok")
            writer.writerow(row)
    failures = sum(1 for c in results if c.summary is None)
    print(f"sweep: {len(results)} cells ({failures} failed) -> {out_path}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        records = traceio.read_trace(args.trace)
    except (OSError, traceio.TraceFormatError) as err:
        print(f"invalid trace: {err}", file=sys.stderr)
        return EXIT_RUN_FAILED
    problems = traceio.check_trace(records)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{args.trace}: {len(problems)} problem(s)", file=sys.stderr)
        return EXIT_RUN_FAILED
    print(f"{args.trace}: {len(records)} rows, consistent")
    return EXIT_OK


class _SuiteNames:
    """The --suite choices: `verify.SUITES`' keys, imported when argparse reads them."""

    def __iter__(self):
        from .verify import SUITES

        return iter(SUITES)

    def __contains__(self, name) -> bool:
        from .verify import SUITES

        return name in SUITES


def _seed(text: str) -> int:
    """The --seed of simulate and verify: a non-negative integer, else a usage error."""
    try:
        seed = int(text)
    except ValueError:
        pass
    else:
        if seed >= 0:
            return seed
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


@functools.cache  # parse_args keeps no state in the parser, so in-process callers share one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prnn-abc",
        description="Constraint-aware backstepping control of an inverted pendulum "
        "with an online projection-network QP optimizer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one closed-loop scenario")
    p.add_argument("--config", help="scenario YAML (bundled default if omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--adaptive", choices=("on", "off"), help="override the adaptive flag")
    p.add_argument("--seed", type=_seed, help="override the scenario seed")
    p.add_argument("--gnuplot", action="store_true", help="also emit a gnuplot script")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument(
        "--suite", choices=_SuiteNames(), metavar="NAME",
        help="run a single suite (default: all): %(choices)s",
    )
    p.add_argument("--seed", type=_seed, default=0, help="seed for randomized suites")
    p.add_argument("--scenario", help="scenario YAML whose run adds a lyapunov-monitor result")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="grid of runs, one summary row per cell")
    p.add_argument("--config", help="base scenario YAML (bundled default if omitted)")
    p.add_argument(
        "--grid",
        action="append",
        required=True,
        help='grid axis as "path=v1,v2,...": a scenario key path such as gains.c1, '
        'or bound for a symmetric actuator box; repeat for a product grid',
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="check a trace file for internal consistency")
    p.add_argument("trace", help="trace CSV produced by simulate")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:  # raised only while reading inputs, before anything runs
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
