import numpy as np
import pytest
from scipy.integrate import solve_ivp

from jpmsim import pulses


def _dop853_pulse(params, drive, times):
    """(v, p0, p1, pm) at ``times`` under a pulse drive, from DOP853 at rtol
    1e-12 with the equations of motion written out component by component."""
    env = pulses.envelope_for(drive)
    wr = np.sqrt(2.0 * drive.alpha_sq * params.gamma_tl / np.pi)
    gt = params.gamma_tl + params.gamma_1 + params.gamma_rel

    def rhs(t, y):
        v, p0, p1, _ = y
        w = wr * env(t)
        return [-0.5 * gt * v + w * (p0 - p1),
                (params.gamma_tl + params.gamma_rel) * p1 - 0.5 * w * v,
                -gt * p1 + 0.5 * w * v,
                params.gamma_1 * p1]

    # the step bound keeps DOP853 from stepping over a pulse that starts late
    sol = solve_ivp(rhs, (0.0, times[-1]), [0.0, 1.0, 0.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-14, t_eval=times,
                    max_step=0.1 * (env.t_end - env.t_start))
    assert sol.success
    return sol.y


@pytest.fixture
def dop853_pulse():
    """The DOP853 pulse reference, shared by the mean-field and sweep tests."""
    return _dop853_pulse
