"""Backstepping error coordinates, virtual control law, and Lyapunov functions.

The tracking error S1 = x1 - x1d is stabilized through the virtual control
gamma1 = -c1*S1; the velocity-level error S2 = x2 - dx1d - gamma1 measures
how far the real velocity is from that virtual law.  V2 = (S1^2 + S2^2)/2
certifies the design: under the exact feedback its derivative is
-c1*S1^2 - c2*S2^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .plant import PlantState


@dataclass(frozen=True)
class Gains:
    """Virtual-control gains; both must be strictly positive."""

    c1: float = 2.0
    c2: float = 2.0

    def __post_init__(self):
        for name in ("c1", "c2"):
            if not getattr(self, name) > 0:
                raise ValueError(f"gains.{name} must be > 0, got {getattr(self, name)!r}")


_REFERENCE_KINDS = ("constant", "sinusoid", "smoothstep")


@dataclass(frozen=True)
class ReferenceSignal:
    """Analytic reference trajectory with exact first and second derivatives.

    constant:   x1d = setpoint
    sinusoid:   x1d = amplitude * sin(2*pi*frequency*t)
    smoothstep: quintic C^2 blend from `start` to `setpoint` over `ramp_time`
                seconds, then held.
    """

    kind: str = "constant"
    setpoint: float = 0.0
    amplitude: float = 0.0
    frequency: float = 0.0
    ramp_time: float = 0.0
    start: float = 0.0

    def __post_init__(self):
        if self.kind not in _REFERENCE_KINDS:
            raise ValueError(
                f"reference.kind must be one of {', '.join(_REFERENCE_KINDS)}, got {self.kind!r}"
            )
        if self.kind == "sinusoid" and not self.frequency > 0:
            raise ValueError(f"reference.frequency must be > 0, got {self.frequency!r}")
        # ramp_time**2 divides the second derivative, so it must not underflow either
        if self.kind == "smoothstep" and not (self.ramp_time > 0 and self.ramp_time**2 > 0):
            raise ValueError(
                f"reference.ramp_time must be > 0 and square to > 0, got {self.ramp_time!r}"
            )


def reference_at(ref: ReferenceSignal, t: float) -> tuple[float, float, float]:
    """Reference triple (x1d, dx1d, ddx1d) at time t >= 0."""
    if ref.kind == "constant":
        return ref.setpoint, 0.0, 0.0
    if ref.kind == "sinusoid":
        w = 2.0 * math.pi * ref.frequency
        return (
            ref.amplitude * math.sin(w * t),
            ref.amplitude * w * math.cos(w * t),
            -ref.amplitude * w * w * math.sin(w * t),
        )
    # smoothstep
    if t >= ref.ramp_time:
        return ref.setpoint, 0.0, 0.0
    s = t / ref.ramp_time
    span = ref.setpoint - ref.start
    h = s**3 * (10.0 - 15.0 * s + 6.0 * s**2)
    dh = 30.0 * s**2 * (1.0 - s) ** 2
    ddh = 60.0 * s * (1.0 - s) * (1.0 - 2.0 * s)
    return (
        ref.start + span * h,
        span * dh / ref.ramp_time,
        span * ddh / ref.ramp_time**2,
    )


class ErrorCoords(NamedTuple):
    """Backstepping error coordinates of one state against one reference triple."""

    s1: float      # tracking error x1 - x1d (rad)
    s2: float      # velocity-level error x2 - dx1d - gamma1 (rad/s)
    gamma1: float  # first virtual control -c1*s1 (rad/s)


def error_coords(
    state: PlantState, refs: tuple[float, float, float], gains: Gains
) -> ErrorCoords:
    """Backstepping error coordinates of a plant state against a reference triple."""
    x1d, dx1d, _ = refs
    s1 = state.x1 - x1d
    gamma1 = -gains.c1 * s1
    s2 = state.x2 - dx1d - gamma1
    return ErrorCoords(s1, s2, gamma1)


def lyapunov_v2(e: ErrorCoords) -> float:
    """Composite Lyapunov function V2 = (S1^2 + S2^2) / 2."""
    return 0.5 * e.s1**2 + 0.5 * e.s2**2


def ideal_v2_dot(e: ErrorCoords, gains: Gains) -> float:
    """Closed-loop dV2/dt under the exact unconstrained feedback; always <= 0."""
    return -gains.c1 * e.s1**2 - gains.c2 * e.s2**2


def stabilizing_target(a: float, ddx1d: float, e: ErrorCoords, gains: Gains) -> float:
    """A - ddx1d + (c1+c2)*S2 + (1-c1^2)*S1; the stabilizing condition is B*u = -target."""
    return a - ddx1d + (gains.c1 + gains.c2) * e.s2 + (1.0 - gains.c1**2) * e.s1


def exact_feedback(
    a: float, b: float, ddx1d: float, e: ErrorCoords, gains: Gains
) -> float:
    """Force solving the stabilizing condition B*u = -stabilizing_target(...).

    This is the exact stabilizing law that yields dV2/dt = -c1*S1^2 - c2*S2^2;
    it requires B != 0 and ignores actuator bounds.
    """
    return -stabilizing_target(a, ddx1d, e, gains) / b
