"""Command-line interface: subcommands, outputs, exit codes."""

import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import prnn_abc.plant as plant_module
from oracles import save_scenario
from prnn_abc import verify
from prnn_abc.cli import build_parser, main
from prnn_abc.config import Scenario, Timing, load_scenario
from prnn_abc.plant import PlantState
from prnn_abc.sim import default_scenario
from prnn_abc.traceio import TRACE_COLUMNS, read_trace


@pytest.fixture()
def quick_config(tmp_path):
    scenario = replace(default_scenario(), timing=Timing(0.001, 0.01, 0.5))
    path = tmp_path / "quick.yaml"
    save_scenario(path, scenario)
    return path


def test_simulate_default_config(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "run summary:" in captured.out
    trace = read_trace(out / "trace.csv")
    assert len(trace) == 500  # 5 s at 10 ms
    summary = json.loads((out / "summary.json").read_text())
    assert summary["aborted"] is False


def test_simulate_with_config_and_gnuplot(tmp_path, quick_config):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(quick_config), "--out", str(out), "--gnuplot"]) == 0
    assert (out / "trace.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "scenario.yaml").exists()
    assert "trace.csv" in (out / "plot.gp").read_text()


def test_gnuplot_script_plots_columns_by_name(tmp_path, quick_config):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(quick_config), "--out", str(out), "--gnuplot"]) == 0
    plots = re.findall(r"using (\d+):(\d+) with lines title '(\w+)'", (out / "plot.gp").read_text())
    assert sorted(title for _, _, title in plots) == ["V2", "u", "x1", "x1d"]
    for x, y, title in plots:
        assert int(x) == TRACE_COLUMNS.index("t") + 1
        assert int(y) == TRACE_COLUMNS.index(title) + 1


def test_simulate_adaptive_flag_toggles_theta_columns(tmp_path, quick_config):
    out_off = tmp_path / "off"
    out_on = tmp_path / "on"
    assert main(["simulate", "--config", str(quick_config), "--out", str(out_off),
                 "--adaptive", "off"]) == 0
    assert main(["simulate", "--config", str(quick_config), "--out", str(out_on),
                 "--adaptive", "on", "--seed", "5"]) == 0
    off_trace = read_trace(out_off / "trace.csv")
    on_trace = read_trace(out_on / "trace.csv")
    off, on = off_trace[-1], on_trace[-1]
    assert all(t != t for t in (off.theta1, off.theta2, off.theta3))  # nan columns
    assert all(t == t for t in (on.theta1, on.theta2, on.theta3))


def test_simulate_rejects_bad_config(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("gains: {c1: -1.0}\n", encoding="utf-8")
    code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--seed", "-1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


def test_simulate_unknown_key_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("weights: {t: 10.0}\n", encoding="utf-8")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize(
    "data, message",
    [
        ("timing: {duration: 1.0}  # café\n".encode("latin-1"), "bad.yaml is not UTF-8"),
        (b"initial: {x1: 0.1, x1: 0.3}\n", "duplicate key 'x1'"),
    ],
    ids=["non-utf8", "duplicate-key"],
)
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_unreadable_scenario_is_config_error(tmp_path, capsys, command, data, message):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(data)
    if command == "simulate":
        argv = ["simulate", "--config", str(bad), "--out", str(tmp_path / "out")]
    else:
        argv = ["verify", "--suite", "lyapunov", "--scenario", str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not (tmp_path / "out").exists()


def test_simulate_abort_exit_code(tmp_path):
    scenario = Scenario(
        initial=PlantState(1.4, 0.0),
        bounds=(-0.05, 0.05),
        timing=Timing(0.001, 0.01, 2.0),
    )
    path = tmp_path / "doomed.yaml"
    save_scenario(path, scenario)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert (out / "trace.csv").exists()  # partial trace still written


def test_simulate_out_of_memory_before_the_loop_is_an_abort(tmp_path, capsys, monkeypatch,
                                                            quick_config):
    # a valid duration far too long to sample ahead exhausted memory in a traceback
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("prnn_abc.plant.stage_disturbance", exhausted)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(quick_config), "--out", str(out)]) == 1
    reason = "disturbance of 500 plant sub-steps does not fit in memory at t=0.000000"
    assert json.loads((out / "summary.json").read_text())["abort_reason"] == reason
    assert f"run aborted: {reason}" in capsys.readouterr().err
    assert read_trace(out / "trace.csv") == []


def test_simulate_duration_too_long_to_hold_aborts_at_once(tmp_path):
    # a real 1e14-period run: its rows are one list of 1e14 entries, refused
    # in one allocation at t=0 instead of growing until the host runs out; a
    # fresh interpreter under an address-space cap, which also reports the
    # peak Python heap, so that a run that builds its periods one at a time
    # fails here even where the cap stops it cleanly
    pytest.importorskip("resource")
    (tmp_path / "long.yaml").write_text("timing: {duration: 1.0e+12}\n", "utf-8")
    code = (
        "import resource, sys, tracemalloc; "
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, hard)); "
        "tracemalloc.start(); from prnn_abc.cli import main; "
        "code = main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2]]); "
        "print(tracemalloc.get_traced_memory()[1]); sys.exit(code)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "long.yaml"), str(out)], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1, done.stderr
    n = 10**14 * 10
    reason = f"disturbance of {n} plant sub-steps does not fit in memory at t=0.000000"
    assert json.loads((out / "summary.json").read_text())["abort_reason"] == reason
    assert f"run aborted: {reason}" in done.stderr
    assert int(done.stdout.splitlines()[-1]) < 64 * 2**20


def test_simulate_out_of_memory_inside_the_loop_is_an_abort(tmp_path, capsys, monkeypatch,
                                                            quick_config):
    # a period of millions of sub-steps can exhaust memory in any period, not
    # only while the disturbance is sampled
    real_step, calls = plant_module.step, []

    def exhausted_on_third_period(*args):
        calls.append(args)
        if len(calls) == 3:
            raise MemoryError
        return real_step(*args)

    monkeypatch.setattr(plant_module, "step", exhausted_on_third_period)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(quick_config), "--out", str(out)]) == 1
    reason = "period of 10 plant sub-steps does not fit in memory at t=0.020000"
    assert json.loads((out / "summary.json").read_text())["abort_reason"] == reason
    assert f"run aborted: {reason}" in capsys.readouterr().err
    # the rows logged before the failed step are kept, as for any other abort
    assert [r.t for r in read_trace(out / "trace.csv")] == [0.0, 0.01, 0.02]
    assert main(["validate", str(out / "trace.csv")]) == 0


def test_validate_accepts_fresh_trace(tmp_path, quick_config):
    out = tmp_path / "out"
    main(["simulate", "--config", str(quick_config), "--out", str(out)])
    assert main(["validate", str(out / "trace.csv")]) == 0


def test_validate_rejects_tampered_trace(tmp_path, quick_config, capsys):
    out = tmp_path / "out"
    main(["simulate", "--config", str(quick_config), "--out", str(out)])
    path = out / "trace.csv"
    fresh = path.read_text(encoding="utf-8").splitlines()
    lines = list(fresh)
    parts = lines[3].split(",")
    parts[12] = "0.125"  # stored V2 no longer matches S1, S2
    lines[3] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    # a non-finite angle is a problem of its own row
    lines = list(fresh)
    parts = lines[5].split(",")
    parts[TRACE_COLUMNS.index("x1")] = "nan"
    lines[5] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.splitlines()[0] == "row 4: non-finite x1"


def test_validate_rejects_a_non_finite_or_overflowing_s1(tmp_path, quick_config, capsys):
    # a NaN S1 once passed as consistent, and an S1 of 1e200 raised OverflowError
    out = tmp_path / "out"
    main(["simulate", "--config", str(quick_config), "--out", str(out)])
    path = out / "trace.csv"
    fresh = path.read_text(encoding="utf-8").splitlines()
    for value in ("nan", "1e200"):
        lines = list(fresh)
        parts = lines[5].split(",")
        parts[TRACE_COLUMNS.index("S1")] = value
        lines[5] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith("row 4: V2 inconsistent with S1,S2")
        assert "Traceback" not in err


def test_validate_missing_file(tmp_path):
    assert main(["validate", str(tmp_path / "nope.csv")]) == 1


def test_validate_non_utf8_file_is_invalid_trace(tmp_path, capsys):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith("invalid trace: ")


def test_simulate_out_is_a_file_is_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main(["simulate", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out ")
    assert str(taken) in err


def test_sweep_out_is_a_file_is_usage_error_before_any_cell(tmp_path, quick_config,
                                                           capsys, monkeypatch):
    cells = []
    monkeypatch.setattr("prnn_abc.sim.run", cells.append)
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main(["sweep", "--config", str(quick_config), "--grid", "gains.c1=1,2",
                 "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out ")
    assert str(taken) in err
    assert cells == []


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "gradient"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] gradient" in out
    assert "1/1 suites passed" in out


def test_verify_projection_prints_its_pinned_figure(capsys):
    # clamps, differences and a max only, no libm.  Seed 5's box is 0.029
    # wide, yet its edge points are pairs inside it, which a clamp leaves
    # apart by exactly |a - b|, so the figure is 0 as at every seed
    assert main(["verify", "--suite", "projection", "--seed", "5"]) == 0
    assert "worst_expansion=0.000e+00" in capsys.readouterr().out


def test_verify_help_lists_every_suite(capsys, monkeypatch):
    # the suite names are read from verify.SUITES only when help is printed
    monkeypatch.setenv("COLUMNS", "400")  # one line: no name broken at its hyphen
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert f"run a single suite (default: all): {', '.join(verify.SUITES)}" in out


def test_verify_unknown_suite(capsys):
    # suite names are parser choices, so an empty name is a usage error too
    for name in ("nonsense", ""):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", name])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and repr(name) in err


@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
@pytest.mark.parametrize(
    "command", ["simulate", "verify", *(f"verify --suite {name}" for name in verify.SUITES)]
)
def test_seed_must_be_a_non_negative_integer(tmp_path, capsys, command, seed):
    # a negative seed once crashed five suites with a traceback and passed one silently
    argv = [*command.split(), "--seed", seed]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument --seed: must be a non-negative integer, got '{seed}'" in err
    assert not (tmp_path / "o").exists()


def test_verify_error_inside_a_suite_is_not_a_usage_error(monkeypatch):
    # only a bad flag or input file is exit 2; a suite's own fault must surface
    def broken(seed):
        raise ValueError("math domain error")

    monkeypatch.setitem(verify.SUITES, "gradient", broken)
    with pytest.raises(ValueError, match="math domain error"):
        main(["verify", "--suite", "gradient"])


def test_verify_all_suites_pass(capsys):
    # fresh build: every suite green, exit 0
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "10/10 suites passed" in out


def test_verify_monitor_on_named_scenario(tmp_path, quick_config, capsys):
    code = main(["verify", "--suite", "lyapunov", "--scenario", str(quick_config)])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] lyapunov-monitor" in out
    assert "2/2 suites passed" in out


def test_verify_scenario_adds_monitor_to_all_criteria(quick_config, capsys):
    # the scenario's monitor is an eleventh result; criterion 3 still runs
    assert main(["verify", "--scenario", str(quick_config)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] lyapunov (" in out
    assert "[PASS] lyapunov-monitor" in out
    assert out.rstrip().endswith("11/11 suites passed")


def test_verify_scenario_that_aborts_fails_its_monitor(tmp_path, capsys):
    path = tmp_path / "tipped.yaml"
    path.write_text("initial: {x1: 1.6}\n", encoding="utf-8")
    assert main(["verify", "--suite", "lyapunov", "--scenario", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] lyapunov-monitor" in out
    assert "run aborted: |x1| >= pi/2 at t=0.000000 (x1=1.6000 rad)" in out


def _sweep_rows(tmp_path, config, *grid):
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(config), "--out", str(out)]
    for spec in grid:
        argv += ["--grid", spec]
    assert main(argv) == 0
    with open(out / "sweep.csv", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_sweep_single_cell_matches_simulate(tmp_path, quick_config):
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", str(quick_config), "--out", str(sim_out)]) == 0
    rows = _sweep_rows(tmp_path, quick_config, "prnn.vartheta=50")
    assert len(rows) == 1
    assert rows[0]["status"] == "ok"
    summary = json.loads((sim_out / "summary.json").read_text())
    assert float(rows[0]["max_abs_s1"]) == pytest.approx(summary["max_abs_s1"], rel=1e-15)


def test_sweep_grid_and_failures_recorded(tmp_path, quick_config):
    rows = _sweep_rows(tmp_path, quick_config, "gains.c1=-1,2", "weights.R=0.1,0.01")
    assert len(rows) == 4
    assert rows[0]["status"].startswith("ValueError")
    assert rows[2]["status"] == "ok"
    assert [r["gains.c1"] for r in rows] == ["-1", "-1", "2", "2"]


def test_sweep_reports_an_effort_dominated_cell_in_its_summary(tmp_path):
    # T <= R builds silently; the share R/Q given up, settling and abort tell the story
    out = tmp_path / "sweep"
    assert main(["sweep", "--grid", "weights.T=1", "--grid", "weights.R=0.01,0.5,1",
                 "--out", str(out)]) == 0
    with open(out / "sweep.csv", encoding="utf-8") as fh:
        small, half, even = csv.DictReader(fh)
    shares = [float(r["mean_condition_residual"]) for r in (small, half, even)]
    assert shares == sorted(shares) and len(set(shares)) == 3
    assert small["status"] == half["status"] == "ok"
    assert float(small["settling_time"]) < 5.0
    assert half["settling_time"] == "nan"  # never settled
    assert even["status"].startswith("aborted: |x1| >= pi/2 at t=")


def test_sweep_bad_grid_spec(tmp_path, quick_config, capsys):
    assert main(["sweep", "--config", str(quick_config), "--grid", "prnn.vartheta",
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["sweep", "--config", str(quick_config), "--grid", "prnn.vartheta=",
                 "--out", str(tmp_path / "o")]) == 2
    # a value that is no number, and a list with no value, quote the spec
    for spec in ("gains.c1=abc", "gains.c1=,"):
        capsys.readouterr()
        assert main(["sweep", "--config", str(quick_config), "--grid", spec,
                     "--out", str(tmp_path / "o")]) == 2
        assert f"config error: grid spec {spec!r}" in capsys.readouterr().err


def test_sweep_repeated_grid_name_is_config_error(tmp_path, quick_config, capsys):
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(quick_config), "--grid", "gains.c1=1,2",
                 "--grid", "gains.c1=3", "--out", str(out)]) == 2
    assert "'gains.c1'" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_sweep_requires_grid(tmp_path, quick_config):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(quick_config), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_sweep_has_no_seed_flag(tmp_path, quick_config, capsys):
    # the seed is a grid axis like any other key: --grid seed=3
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(quick_config), "--grid", "gains.c1=1",
              "--out", str(tmp_path / "o"), "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_thread_env(tmp_path, quick_config, monkeypatch, capsys):
    monkeypatch.setenv("PRNN_ABC_THREADS", "2")
    assert len(_sweep_rows(tmp_path, quick_config, "prnn.vartheta=25,50")) == 2
    # a malformed value is ignored with a warning, and the cells run serially
    monkeypatch.setenv("PRNN_ABC_THREADS", "abc")
    capsys.readouterr()
    assert len(_sweep_rows(tmp_path, quick_config, "prnn.vartheta=25,50")) == 2
    assert "ignoring malformed PRNN_ABC_THREADS='abc'" in capsys.readouterr().err
    # an invalid cell is recorded by name; the two valid ones run in the pool
    monkeypatch.setenv("PRNN_ABC_THREADS", "2")
    rows = _sweep_rows(tmp_path, quick_config, "gains.c1=inf,2,3")
    assert rows[0]["status"] == "ValueError: key 'gains.c1' must be finite, got inf"
    assert [r["status"] for r in rows[1:]] == ["ok", "ok"]


# each of these used to end in a traceback, a clean-looking exit-0 trace, or
# an abort at t=0 instead of a config error naming the key
LOUD_FAILURES = [
    ("timing.duration", "timing: {duration: .inf}"),
    ("rls.m0_scale", "adaptive: true\nrls: {m0_scale: .inf}"),
    ("rls.theta0[0]", "rls: {theta0: [.nan, 1, 1]}"),
    ("rls.theta0[0]", "rls: {theta0: [true, 1, 1]}"),
    ("rls.theta0_perturbation", "rls: {theta0_perturbation: .nan}"),
    ("rls.excitation_gate", "rls: {excitation_gate: .nan}"),
    ("weights.T", "weights: {T: .inf}"),
    ("weights.R", "weights: {R: .inf}"),
    ("params.g", "params: {g: .inf}"),
    ("params.m_c", "params: {m_c: abc}"),
    ("gains.c1", "gains: {c1: .inf}"),
    ("reference.setpoint", "reference: {setpoint: .nan}"),
    ("reference.amplitude", "reference: {amplitude: .nan}"),
]


@pytest.mark.parametrize(
    "path, text", LOUD_FAILURES, ids=[t.replace("\n", " ") for _, t in LOUD_FAILURES]
)
def test_simulate_bad_value_is_config_error_naming_key(tmp_path, capsys, path, text):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text + "\n", encoding="utf-8")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: key '{path}' must be")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text",
    [
        # 2*pi*f overflows
        "disturbance: {kind: sinusoid, amplitude: 1.0, frequency: 1.0e+308}",
        # 2*pi*f is finite, but the phase overflows before the 5 s run ends
        "disturbance: {kind: sinusoid, amplitude: 1.0, frequency: 1.0e+307}",
        # the reference obeys the same rule: the first once aborted at t=0 as
        # a non-finite network state, the second raised from math.sin
        "reference: {kind: sinusoid, amplitude: 0.1, frequency: 1.0e+308}",
        "reference: {kind: sinusoid, amplitude: 0.0, frequency: 1.0e+307}",
        # the phase stays finite, but amplitude*(2*pi*f)**2 in the reference's
        # second derivative overflows: this aborted at t=0 as a non-finite
        # network state
        "reference: {kind: sinusoid, amplitude: 0.1, frequency: 1.0e+160}",
    ],
)
def test_simulate_overflowing_disturbance_frequency_is_config_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text + "\n", encoding="utf-8")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    section = text.partition(":")[0]
    assert capsys.readouterr().err.startswith(f"config error: {section}.frequency")
    assert not (tmp_path / "out").exists()


def test_simulate_vanishing_plant_dt_is_config_error(tmp_path, capsys):
    # 10**298 sub-steps per period: the run hung, or a random disturbance
    # ended in a numpy traceback
    bad = tmp_path / "bad.yaml"
    bad.write_text("timing: {plant_dt: 1.0e-300}\n", encoding="utf-8")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: timing.plant_dt 1e-300 is too small")
    assert not (tmp_path / "out").exists()


def test_simulate_open_bounds_run_cleanly(tmp_path, capsys):
    path = tmp_path / "open.yaml"
    path.write_text("bounds: {u_min: -.inf, u_max: .inf}\ntiming: {duration: 0.5}\n",
                    encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert main(["validate", str(out / "trace.csv")]) == 0
    assert "u_min: -.inf" in (out / "scenario.yaml").read_text()


def test_simulate_infinite_metric_is_json_null(tmp_path):
    # with open bounds an enormous gain drives u so large that u**2 overflows
    path = tmp_path / "huge.yaml"
    path.write_text("bounds: {u_min: -.inf, u_max: .inf}\ngains: {c1: 1.0e+100, c2: 1.0}\n"
                    "timing: {duration: 0.05}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1

    def strict(constant):
        raise ValueError(f"summary.json holds {constant}, which is not JSON")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=strict)
    assert summary["control_effort"] is None


def test_simulate_covariance_loss_is_an_abort(tmp_path, capsys):
    # a huge initial covariance loses positive definiteness in the first updates:
    # here 1 + Pi'M Pi = -2.5e12 at t=0.04, and 2,400 tried m0_scale values in
    # [1e26, 1e30) over seeds 0-9 all abort the same way by t=0.10
    path = tmp_path / "m0.yaml"
    path.write_text(
        "initial: {x1: 0.0, x2: 0.0}\n"
        "reference: {kind: sinusoid, amplitude: 0.5, frequency: 0.5}\n"
        "timing: {duration: 1.0}\nadaptive: true\nrls: {m0_scale: 1.0e+27}\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["aborted"] is True
    assert "covariance M has lost positive definiteness at t=" in summary["abort_reason"]
    assert "run aborted:" in capsys.readouterr().err


def test_successive_main_calls_keep_no_parsed_state(tmp_path, quick_config, capsys):
    assert build_parser() is build_parser()  # built once per process
    # --grid appends to a list: a later sweep must not see an earlier one's axes
    first = _sweep_rows(tmp_path / "a", quick_config, "prnn.vartheta=25,50", "gains.c1=2")
    second = _sweep_rows(tmp_path / "b", quick_config, "gains.c2=3")
    assert [list(row)[:2] for row in first] == [["prnn.vartheta", "gains.c1"]] * 2
    assert [list(row)[0] for row in second] == ["gains.c2"]
    assert not {"prnn.vartheta", "gains.c1"} & set(second[0])
    # the options of one simulate call do not carry over to the next
    on, plain = tmp_path / "on", tmp_path / "plain"
    assert main(["simulate", "--config", str(quick_config), "--out", str(on),
                 "--adaptive", "on", "--seed", "5", "--gnuplot"]) == 0
    assert main(["verify", "--suite", "projection", "--seed", "3"]) == 0
    assert main(["simulate", "--config", str(quick_config), "--out", str(plain)]) == 0
    assert main(["validate", str(plain / "trace.csv")]) == 0
    assert load_scenario(on / "scenario.yaml").seed == 5
    assert load_scenario(plain / "scenario.yaml") == load_scenario(quick_config)
    assert (on / "plot.gp").exists() and not (plain / "plot.gp").exists()
    last = read_trace(plain / "trace.csv")[-1]
    assert last.theta1 != last.theta1  # nan: not adaptive
    assert "projection" in capsys.readouterr().out


def test_sweep_non_integral_seed_is_cell_error(tmp_path, quick_config):
    rows = _sweep_rows(tmp_path, quick_config, "seed=1.5,3")
    assert rows[0]["status"] == "ValueError: key 'seed' must be an integer, got 1.5"
    assert rows[1]["status"] == "ok"


def test_sweep_infinite_gain_is_cell_error(tmp_path, quick_config):
    rows = _sweep_rows(tmp_path, quick_config, "gains.c1=inf,2")
    assert rows[0]["status"] == "ValueError: key 'gains.c1' must be finite, got inf"
    assert rows[1]["status"] == "ok"


def test_sweep_aborted_cell_records_its_reason(tmp_path, quick_config):
    rows = _sweep_rows(tmp_path, quick_config, "initial.x1=1.6,0.1")
    assert list(rows[0])[0] == "initial.x1"  # any scalar key path is an axis
    assert rows[0]["status"] == "aborted: |x1| >= pi/2 at t=0.000000 (x1=1.6000 rad)"
    assert rows[0]["aborted"] == "True"
    assert rows[1]["status"] == "ok"
