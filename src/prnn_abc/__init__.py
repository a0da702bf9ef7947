"""Constraint-aware backstepping control of an inverted pendulum.

The controller turns each backstepping step into a box-constrained quadratic
program, solves it online with a projection recurrent network whose
equilibrium is the QP minimizer, and adapts the plant model with recursive
least squares.  This package provides the plant, the controller pieces, a
closed-loop simulator with Lyapunov monitors, and a CLI for batch
experiments.
"""

from .backstepping import (
    ErrorCoords,
    Gains,
    ReferenceSignal,
    error_coords,
    exact_feedback,
    ideal_v2_dot,
    lyapunov_v2,
    reference_at,
)
from .config import Scenario, Timing
from .plant import (
    DisturbanceSpec,
    PendulumParams,
    PlantState,
    drift_term,
    gain_term,
)
from .prnn import PrnnConfig, project, relax, relax_until
from .qp import QpCoefficients, Weights, assemble, solve_oracle
from .rls import RlsState, extract_physical, regressor, true_theta
from .sim import (
    RunSummary,
    TraceRecord,
    default_scenario,
    lyapunov_monitor,
    run,
    run_exact_baseline,
    sinusoid_scenario,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "DisturbanceSpec",
    "ErrorCoords",
    "Gains",
    "PendulumParams",
    "PlantState",
    "PrnnConfig",
    "QpCoefficients",
    "ReferenceSignal",
    "RlsState",
    "RunSummary",
    "Scenario",
    "Timing",
    "TraceRecord",
    "Weights",
    "assemble",
    "default_scenario",
    "drift_term",
    "error_coords",
    "exact_feedback",
    "extract_physical",
    "gain_term",
    "ideal_v2_dot",
    "lyapunov_monitor",
    "lyapunov_v2",
    "project",
    "reference_at",
    "regressor",
    "relax",
    "relax_until",
    "run",
    "run_exact_baseline",
    "sinusoid_scenario",
    "solve_oracle",
    "sweep",
    "true_theta",
    "__version__",
]
