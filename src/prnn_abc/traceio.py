"""Trace persistence: one CSV row per control step, full double precision.

Values are written with 17 significant digits so that reading a trace back
reproduces the in-memory doubles bit for bit; the checker recomputes the
derived columns to confirm a file is internally consistent.
"""

from __future__ import annotations

import csv
import math
from itertools import chain, pairwise
from operator import itemgetter

from .sim import TraceRecord

TRACE_COLUMNS = list(TraceRecord._fields)


class TraceFormatError(ValueError):
    """Trace file violates the column or number format contract."""


# one row: 17 significant digits per field, CRLF line end, as csv.writer
# writes format(v, ".17g"); no such field ever needs quoting
_ROW_FORMAT = ",".join(["%.17g"] * len(TRACE_COLUMNS)) + "\r\n"


def write_trace(path, records: list[TraceRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        fh.writelines(_ROW_FORMAT % r for r in records)


def read_trace(path) -> list[TraceRecord]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != TRACE_COLUMNS:
                raise TraceFormatError(f"unexpected header {header!r}")
            records = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(TRACE_COLUMNS):
                    raise TraceFormatError(
                        f"line {lineno}: expected {len(TRACE_COLUMNS)} columns, got {len(row)}"
                    )
                try:
                    records.append(TraceRecord(*map(float, row)))
                except ValueError as err:
                    raise TraceFormatError(f"line {lineno}: {err}") from err
        except (UnicodeDecodeError, csv.Error) as err:
            # raised while reading: the bytes are not UTF-8 or not CSV
            raise TraceFormatError(f"not a UTF-8 CSV file: {err}") from err
    return records


# a consistent trace holds every column finite (a NaN compares False in every
# tolerance check below, and an infinite one widens its own tolerance to inf),
# except that a run without an estimate logs theta1-3 NaN on every row
_THETA = ("theta1", "theta2", "theta3")
_NOT_THETA = [name for name in TRACE_COLUMNS if name not in _THETA]
_theta_of = itemgetter(*map(TRACE_COLUMNS.index, _THETA))
_not_theta_of = itemgetter(*map(TRACE_COLUMNS.index, _NOT_THETA))


def check_trace(records: list[TraceRecord]) -> list[str]:
    """Internal-consistency problems of a trace; empty list means clean.

    Recomputable columns must match to 1e-12: V2 from S1, S2 and the
    condition residual times Q, which is the constant effort weight R.
    Every column must be finite, and so must the recomputed V2; only a
    trace without an estimate (not adaptive) holds theta1-3, and then NaN
    on every row.  Timestamps must advance on a uniform grid: each step
    between two finite times must be > 0 and match the first such step.
    """
    problems = []
    if not records:
        problems.append("trace is empty")
        return problems

    # the reference R is the first finite product; a non-finite one is reported below
    r_weight = next(
        (rq for r in records if math.isfinite(rq := r.condition_residual * r.Q)), math.nan
    )
    # the reference step is the first > 0 between two finite times, so that a
    # non-finite or repeated t, reported below, leaves the grid check on the
    # other rows
    dt = next(
        (
            b.t - a.t
            for a, b in pairwise(records)
            if math.isfinite(a.t) and math.isfinite(b.t) and b.t - a.t > 0
        ),
        math.nan,
    )
    no_estimate = all(map(math.isnan, chain.from_iterable(map(_theta_of, records))))
    names, finite_of = (_NOT_THETA, _not_theta_of) if no_estimate else (TRACE_COLUMNS, tuple)
    for k, r in enumerate(records):
        # products, not **2: a square that overflows is inf instead of an OverflowError
        v2 = 0.5 * (r.S1 * r.S1) + 0.5 * (r.S2 * r.S2)
        if not math.isfinite(v2) or abs(v2 - r.V2) > 1e-12 * (1.0 + abs(v2)):
            problems.append(f"row {k}: V2 inconsistent with S1,S2 ({r.V2!r} vs {v2!r})")
        rq = r.condition_residual * r.Q
        if abs(rq - r_weight) > 1e-12 * (1.0 + abs(r_weight)):
            problems.append(f"row {k}: condition_residual*Q = {rq!r} not constant")
        values = finite_of(r)
        # a sum is finite only if every term is; one that overflows only
        # takes the name-by-name pass
        if not math.isfinite(sum(values)):
            problems.extend(
                f"row {k}: non-finite {name}"
                for name, v in zip(names, values)
                if not math.isfinite(v)
            )
        if k > 0 and math.isfinite(r.t) and math.isfinite(records[k - 1].t):
            gap = r.t - records[k - 1].t
            if not gap > 0:
                problems.append(f"row {k}: time does not advance (step {gap!r})")
            elif abs(gap - dt) > 1e-9 * (1.0 + abs(dt)):
                problems.append(f"row {k}: non-uniform time step {gap!r}")
    return problems
