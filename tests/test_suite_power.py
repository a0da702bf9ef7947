"""Which verify suite catches which injected fault of the loop.

Each case patches one fault into the attribute that `sim` reads and runs
only the suites that must then fail.  Cautions: `rls` imports `drift_term`,
`gain_term` and `assemble` by name, so patching them in `plant` or `qp`
leaves the adaptive coefficients true; and `prnn.project` is shared with
the `prnn-oracle` and `projection` suites, so no fault patches it.  Faults
that no suite catches (the disturbance sign flipped, the QP dropping the
reference acceleration ddx1d) are listed in the README as known gaps.
"""

from dataclasses import replace

import pytest

from prnn_abc import plant, prnn, qp, rls, verify
from prnn_abc.qp import QpCoefficients


def _force_scaled(factor):
    def patch(monkeypatch):
        step = plant.step
        monkeypatch.setattr(
            plant, "step", lambda params, state, u, *rest: step(params, state, factor * u, *rest)
        )
    return patch


def _force_one_period_late(monkeypatch):
    step = plant.step
    held = 0.0  # the previous period's force; none before a run's first period

    def late(params, state, u, t, *rest):
        nonlocal held
        applied, held = (0.0 if t == 0.0 else held), u
        return step(params, state, applied, t, *rest)

    monkeypatch.setattr(plant, "step", late)


def _controller_model_long_pole(monkeypatch):
    # the controller's A and B from l*1.05; plant.step keeps the true plant
    for name in ("drift_term", "gain_term"):
        term = getattr(plant, name)
        monkeypatch.setattr(
            plant, name,
            lambda params, state, term=term: term(replace(params, l=1.05 * params.l), state),
        )


def _qp_weight_scaled(monkeypatch):
    assemble = qp.assemble

    def scaled(*args):
        c = assemble(*args)
        return QpCoefficients(c.P, 1.5 * c.Q, c.u_min, c.u_max)

    monkeypatch.setattr(qp, "assemble", scaled)


def _network_slow(monkeypatch):
    relax = prnn.relax
    monkeypatch.setattr(
        prnn, "relax",
        lambda phi, q, cfg, duration: relax(
            phi, q, replace(cfg, vartheta=cfg.vartheta / 10.0), duration
        ),
    )


def _regressor_force_scaled(monkeypatch):
    regressor = rls.regressor

    def scaled(*args):
        pi1, pi2, pi3 = regressor(*args)
        return pi1, pi2, 0.9 * pi3

    monkeypatch.setattr(rls, "regressor", scaled)


# fault: (injection, the suites that catch it), in the order of the README's table
FAULTS = {
    "force-x0.9": (_force_scaled(0.9), ["lyapunov", "rls-batch"]),
    "force-x1.1": (_force_scaled(1.1), ["lyapunov", "rls-batch"]),
    "force-late": (_force_one_period_late, ["lyapunov", "rls-batch"]),
    "model-l-x1.05": (_controller_model_long_pole, ["lyapunov"]),
    "qp-Q-x1.5": (_qp_weight_scaled, ["stabilization", "r-consistency", "saturation"]),
    "rate-div10": (_network_slow, ["prnn-decay"]),
    "regressor-u-x0.9": (_regressor_force_scaled, ["rls-batch"]),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_injected_fault_fails_its_suites(monkeypatch, fault):
    inject, suites = FAULTS[fault]
    inject(monkeypatch)
    for name in suites:
        result = verify.SUITES[name]()
        assert not result.passed, f"{name} passes with {fault}: " + "; ".join(result.lines)
