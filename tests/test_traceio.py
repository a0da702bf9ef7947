"""Trace CSV persistence and internal-consistency checking."""

import csv
import io
import math

import pytest

from prnn_abc.backstepping import ReferenceSignal
from prnn_abc.config import Scenario, Timing
from prnn_abc.plant import PlantState
from prnn_abc.sim import run
from prnn_abc.traceio import (
    TRACE_COLUMNS,
    TraceFormatError,
    check_trace,
    read_trace,
    write_trace,
)

# the trace file's header, spelled out independently of TraceRecord's fields
PINNED_HEADER = (
    "t,x1,x2,x1d,S1,S2,u,phi,A,B,P,Q,V2,V2_dot_ideal,prnn_residual,"
    "theta1,theta2,theta3,condition_residual"
)


@pytest.fixture(scope="module")
def short_trace():
    scenario = Scenario(
        initial=PlantState(0.1, 0.0),
        reference=ReferenceSignal(kind="constant", setpoint=0.0),
        timing=Timing(plant_dt=0.001, control_period=0.01, duration=0.5),
    )
    trace, _ = run(scenario)
    return trace


def _as_columns(record):
    return [
        format(v, ".17g")
        for v in (
            record.t, record.x1, record.x2, record.x1d, record.S1, record.S2,
            record.u, record.phi, record.A, record.B, record.P, record.Q,
            record.V2, record.V2_dot_ideal, record.prnn_residual,
            record.theta1, record.theta2, record.theta3, record.condition_residual,
        )
    ]


def test_round_trip_bit_exact(tmp_path, short_trace):
    path = tmp_path / "trace.csv"
    write_trace(path, short_trace)
    back = read_trace(path)
    assert len(back) == len(short_trace)
    for a, b in zip(short_trace, back):
        # 17 significant digits identify every double uniquely (nan included)
        assert _as_columns(a) == _as_columns(b)


def test_write_matches_csv_writer_on_special_values(tmp_path, short_trace):
    # golden: the writer's bytes equal csv.writer over format(v, ".17g"),
    # including the CRLF line ends and the spellings of nan, inf and -0
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, -1e300, 0.1]
    records = []
    for k in range(len(specials)):
        v = [specials[(k + j) % len(specials)] for j in range(len(TRACE_COLUMNS))]
        records.append(
            short_trace[0]._replace(
                t=v[0], x1=v[1], x2=v[2], x1d=v[3], S1=v[4], S2=v[5], u=v[6], phi=v[7],
                A=v[8], B=v[9], P=v[10], Q=v[11], V2=v[12], V2_dot_ideal=v[13],
                prnn_residual=v[14], theta1=v[15], theta2=v[16], theta3=v[17],
                condition_residual=v[18],
            )
        )
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(TRACE_COLUMNS)
    writer.writerows(_as_columns(r) for r in records + short_trace)
    path = tmp_path / "trace.csv"
    write_trace(path, records + short_trace)
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


def test_header_and_column_count(tmp_path, short_trace):
    path = tmp_path / "trace.csv"
    write_trace(path, short_trace)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == PINNED_HEADER
    assert all(len(line.split(",")) == len(TRACE_COLUMNS) for line in lines)


def test_trace_columns_are_pinned():
    assert TRACE_COLUMNS == PINNED_HEADER.split(",")


def test_nan_theta_columns_round_trip(tmp_path, short_trace):
    path = tmp_path / "trace.csv"
    write_trace(path, short_trace)
    back = read_trace(path)
    assert math.isnan(back[0].theta1)


def test_check_trace_clean(short_trace):
    assert check_trace(short_trace) == []


def test_check_trace_empty():
    assert check_trace([]) == ["trace is empty"]


def test_check_trace_catches_tampered_v2(short_trace):
    tampered = list(short_trace)
    tampered[3] = tampered[3]._replace(V2=tampered[3].V2 + 1e-3)
    problems = check_trace(tampered)
    assert any("V2" in p for p in problems)


def test_check_trace_catches_inconsistent_condition_residual(short_trace):
    tampered = list(short_trace)
    tampered[5] = tampered[5]._replace(condition_residual=0.5)
    assert any("condition_residual" in p for p in check_trace(tampered))


@pytest.mark.parametrize(
    "column, value, problem",
    [
        ("S1", math.nan, "row {k}: non-finite S1"),
        ("S2", math.nan, "row {k}: non-finite S2"),
        ("Q", math.nan, "row {k}: non-finite Q"),
        ("condition_residual", math.nan, "row {k}: non-finite condition_residual"),
        ("S1", math.inf, "row {k}: non-finite S1"),
        # finite, but its square overflows: once an OverflowError
        ("S1", 1e200, "row {k}: V2 inconsistent with S1,S2"),
    ],
)
@pytest.mark.parametrize("k", [0, 4])
def test_check_trace_catches_a_non_finite_column(short_trace, column, value, problem, k):
    # a NaN compares False in every tolerance check, and an infinite V2
    # made its own relative tolerance infinite: each passed as consistent
    tampered = list(short_trace)
    tampered[k] = tampered[k]._replace(**{column: value})
    problems = check_trace(tampered)
    assert problems
    assert all(p.startswith(f"row {k}: ") for p in problems)
    assert any(p.startswith(problem.format(k=k)) for p in problems)


def test_check_trace_constant_weight_survives_a_nan_first_row(short_trace):
    # a NaN product at row 0 must not blind the constancy check on the later rows
    tampered = list(short_trace)
    tampered[0] = tampered[0]._replace(Q=math.nan)
    tampered[10] = tampered[10]._replace(condition_residual=2.0 * tampered[10].condition_residual)
    problems = check_trace(tampered)
    assert "row 0: non-finite Q" in problems
    assert any(p.startswith("row 10: condition_residual*Q = ") for p in problems)
    assert all(p.startswith(("row 0: ", "row 10: ")) for p in problems)


def test_check_trace_catches_time_gap(short_trace):
    tampered = list(short_trace)
    tampered[7] = tampered[7]._replace(t=tampered[7].t + 0.004)
    assert any("time step" in p for p in check_trace(tampered))


def test_read_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match="header"):
        read_trace(path)


def test_read_rejects_short_row(tmp_path, short_trace):
    path = tmp_path / "trace.csv"
    write_trace(path, short_trace)
    content = path.read_text(encoding="utf-8").splitlines()
    content[2] = "1.0,2.0"
    path.write_text("\n".join(content) + "\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match="columns"):
        read_trace(path)


def test_read_rejects_non_numeric(tmp_path, short_trace):
    path = tmp_path / "trace.csv"
    write_trace(path, short_trace)
    content = path.read_text(encoding="utf-8").splitlines()
    parts = content[1].split(",")
    parts[4] = "fast"
    content[1] = ",".join(parts)
    path.write_text("\n".join(content) + "\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match="line 2"):
        read_trace(path)


def test_read_rejects_non_utf8(tmp_path):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
    with pytest.raises(TraceFormatError, match="UTF-8"):
        read_trace(path)


def test_read_rejects_field_over_csv_limit(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("t," + "9" * 200_000 + "\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match="field limit"):
        read_trace(path)
