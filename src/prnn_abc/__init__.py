"""Constraint-aware backstepping control of an inverted pendulum.

The controller turns each backstepping step into a box-constrained quadratic
program, solves it online with a projection recurrent network whose
equilibrium is the QP minimizer, and adapts the plant model with recursive
least squares.  This package provides the plant, the controller pieces, a
closed-loop simulator with Lyapunov monitors, and a CLI for batch
experiments.  The top level re-exports only the names of the README example.
"""

from .backstepping import ReferenceSignal
from .config import Scenario
from .plant import PlantState
from .sim import TraceRecord, lyapunov_monitor, run

__version__ = "0.1.0"

__all__ = [
    "PlantState",
    "ReferenceSignal",
    "Scenario",
    "TraceRecord",
    "lyapunov_monitor",
    "run",
    "__version__",
]
