"""Span recording around the public functions of each `prnn_abc` layer.

Each function is wrapped where its caller looks it up: a module attribute
for calls made through the module (`plant.step`), the importing module for
names imported with `from ... import`, and the `verify.SUITES` entries.
Every wrapped call records one span (name, start, end, parent, operation)
into flat in-memory arrays, written out once when the run ends.
"""

from __future__ import annotations

import functools
import os
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from prnn_abc import cli, plant, prnn, qp, rls, sim, traceio, verify

LAYERS = ("cli", "config", "sim", "backstepping", "qp", "prnn", "rls", "plant", "traceio", "verify")

SUITE_NAMES = tuple(verify.SUITES)

CONVERGED_RESIDUAL = 1e-6

# by the last part of a metric name; everything else is a count per operation
_UNITS = {
    "self_us": "us", "us": "us", "self_ms": "ms", "ms": "ms", "s": "s", "overhead_s": "s",
    "bytes": "bytes", "substeps": "count/call", "converged_frac": "ratio", "self_share": "ratio",
}


def unit(metric: str) -> str:
    return _UNITS.get(metric.rsplit(".", 1)[-1], "count")


def _wrap_points() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped function."""
    points = [
        (cli, "main", "cli.main"),
        (cli, "load_scenario", "config.load"),
        (cli, "dumps_scenario", "config.dumps"),
        (traceio, "write_trace", "traceio.write"),
        (traceio, "read_trace", "traceio.read"),
        (traceio, "check_trace", "traceio.check"),
        (verify, "run_suites", "verify.run_suites"),
        # run_suites calls suite_lyapunov by name, the other suites via SUITES
        (verify, "suite_lyapunov", "verify.suite.lyapunov"),
    ]
    for name in ("run", "run_exact_baseline", "lyapunov_monitor",
                 "holds_below_from", "initial_theta"):
        points.append((sim, name, f"sim.{name}"))
    points.append((verify, "lyapunov_monitor", "sim.lyapunov_monitor"))
    # sim imports the backstepping functions by name
    for name in ("reference_at", "error_coords", "ideal_v2_dot", "lyapunov_v2", "exact_feedback"):
        points.append((sim, name, f"backstepping.{name}"))
    for name in ("assemble", "solve_oracle", "cost", "gradient"):
        points.append((qp, name, f"qp.{name}"))
    for name in ("relax", "relax_until", "stable_inner_dt"):
        points.append((prnn, name, f"prnn.{name}"))
    for name in ("regressor", "update", "extract_physical", "adaptive_coefficients",
                 "initial_state", "true_theta"):
        points.append((rls, name, f"rls.{name}"))
    points += [(verify, "regressor", "rls.regressor"), (verify, "true_theta", "rls.true_theta")]
    # plant.step reaches these through plant's globals, so they nest under it
    for name in ("step", "drift_term", "gain_term", "disturbance_value"):
        points.append((plant, name, f"plant.{name}"))
    # rls imports drift_term, gain_term and assemble by name
    points += [
        (rls, "drift_term", "plant.drift_term"),
        (rls, "gain_term", "plant.gain_term"),
        (rls, "assemble", "qp.assemble"),
    ]
    return points


class Recorder:
    """Spans of the traced calls, kept in flat arrays until the run ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.op = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current_op = 0
        self.counts: Counter[str] = Counter()  # exceptions by "name!type", hook tallies

    def wrap(self, name: str, fn, after=None):
        """Wrap fn so that each call records a span named `name`.

        `after(args, result)` runs once the span is closed.  Exceptions are
        counted by type and re-raised.
        """
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.op.append(self.current_op)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self.counts[f"{name}!{type(err).__name__}"] += 1
                raise
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if after:
                after(args, result)
            return result

        return traced

    def _after(self, name: str):
        """Counts taken from a traced call's arguments or result."""
        counts = self.counts
        if name in ("prnn.relax", "prnn.relax_until"):
            def after(args, result):
                counts[f"{name}.substeps"] += result.substeps
                counts[f"{name}.converged"] += result.residual <= CONVERGED_RESIDUAL
            return after
        if name == "traceio.write":
            def after(args, result):
                counts["traceio.write.bytes"] += os.path.getsize(args[0])
            return after
        return None

    @contextmanager
    def installed(self):
        """Patch every wrap point for the duration of the block."""
        saved = []
        suites = dict(verify.SUITES)
        try:
            for owner, attr, name in _wrap_points():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, self._after(name)))
            for suite, fn in suites.items():
                verify.SUITES[suite] = self.wrap(f"verify.suite.{suite}", fn)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            verify.SUITES.update(suites)

    def save(self, path) -> None:
        """Write the spans out: one row per wrapped call."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.uint16),
            op=np.array(self.op, dtype=np.uint32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer counts (per operation) and self times (per call).

        Self time is a span's duration minus the time its child spans cover;
        it includes the recording cost of those children.
        """
        start = np.array(self.start)
        duration = np.array(self.end) - start
        parent = np.array(self.parent, dtype=np.int32)
        name_id = np.array(self.name_id, dtype=np.uint16).astype(np.intp)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(start))
        self_time = duration - covered
        n_names = max(len(self.names), 1)
        calls_by_id = np.bincount(name_id, minlength=n_names)
        self_by_id = np.bincount(name_id, weights=self_time, minlength=n_names)
        total_by_id = np.bincount(name_id, weights=duration, minlength=n_names)
        calls = {n: int(calls_by_id[i]) for i, n in enumerate(self.names)}
        selfs = {n: float(self_by_id[i]) for i, n in enumerate(self.names)}
        totals = {n: float(total_by_id[i]) for i, n in enumerate(self.names)}

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def count(*names: str) -> int:
            return sum(calls.get(n, 0) for n in names)

        def per_call(scale: float, *names: str) -> float:
            return scale * ratio(sum(selfs.get(n, 0.0) for n in names), count(*names))

        def errors(name: str, exc: str) -> int:
            return self.counts[f"{name}!{exc}"]

        # rls.gated: regressor samples the closed loop formed but did not apply
        sim_run = self._ids.get("sim.run", -1)
        regressor = self._ids.get("rls.regressor", -1)
        from_loop = nested & (name_id == regressor)
        loop_regressor = int(np.count_nonzero(name_id[parent[from_loop]] == sim_run))

        relax_calls = count("prnn.relax")
        until_calls = count("prnn.relax_until")
        backstepping = [n for n in self.names if n.startswith("backstepping.")]
        m = {
            "plant.step.calls": count("plant.step") / ops,
            "plant.step.self_us": per_call(1e6, "plant.step"),
            "plant.dynamics.calls": count("plant.drift_term", "plant.gain_term") / ops,
            "plant.dynamics.us": per_call(1e6, "plant.drift_term", "plant.gain_term"),
            "plant.disturbance.calls": count("plant.disturbance_value") / ops,
            "plant.disturbance.us": per_call(1e6, "plant.disturbance_value"),
            "plant.blowups": errors("plant.step", "IntegrationBlowupError") / ops,
            "prnn.diverged": (errors("prnn.relax", "IntegrationDivergedError")
                              + errors("prnn.relax_until", "IntegrationDivergedError")) / ops,
            "backstepping.calls": count(*backstepping) / ops,
            "backstepping.us": per_call(1e6, *backstepping),
            "qp.assemble.calls": count("qp.assemble") / ops,
            "qp.assemble.us": per_call(1e6, "qp.assemble"),
            "prnn.relax.calls": relax_calls / ops,
            "prnn.relax.us": per_call(1e6, "prnn.relax"),
            "prnn.relax.substeps": ratio(self.counts["prnn.relax.substeps"], relax_calls),
            "prnn.relax.converged_frac": ratio(self.counts["prnn.relax.converged"], relax_calls),
            "prnn.relax_until.calls": until_calls / ops,
            "prnn.relax_until.s": per_call(1.0, "prnn.relax_until"),
            "prnn.relax_until.substeps": ratio(self.counts["prnn.relax_until.substeps"],
                                               until_calls),
            "rls.update.calls": count("rls.update") / ops,
            "rls.update.us": per_call(1e6, "rls.update"),
            "rls.gated": (loop_regressor - count("rls.update")) / ops,
            "rls.extract.fallbacks": errors("rls.extract_physical", "NotYetIdentifiableError") / ops,
            "rls.adaptive_coefficients.us": per_call(1e6, "rls.adaptive_coefficients"),
            "sim.run.calls": count("sim.run") / ops,
            "sim.run.self_ms": per_call(1e3, "sim.run"),
            "sim.run_exact_baseline.s": per_call(1.0, "sim.run_exact_baseline"),
            "config.load.calls": count("config.load") / ops,
            "config.load.ms": per_call(1e3, "config.load"),
            "config.dumps.ms": per_call(1e3, "config.dumps"),
            "traceio.write.ms": per_call(1e3, "traceio.write"),
            "traceio.write.bytes": ratio(self.counts["traceio.write.bytes"],
                                         count("traceio.write")),
            "traceio.read.ms": per_call(1e3, "traceio.read"),
            "traceio.check.ms": per_call(1e3, "traceio.check"),
            "cli.self_ms": per_call(1e3, "cli.main"),
        }
        for suite in SUITE_NAMES:  # inclusive: what each suite adds to a verify run
            name = f"verify.suite.{suite}"
            m[f"{name}.s"] = ratio(totals.get(name, 0.0), calls.get(name, 0))
        total_self = float(self_time.sum())
        for layer in LAYERS:
            layer_self = sum(t for n, t in selfs.items() if n.split(".", 1)[0] == layer)
            m[f"{layer}.self_share"] = ratio(layer_self, total_self)
        m["trace.spans"] = len(start) / ops
        return m
