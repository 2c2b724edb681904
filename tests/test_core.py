import numpy as np
import pytest

from jpmsim.core import (
    DetectorParams,
    DriveSpec,
    omega_from_ghz,
    photon_flux,
    photon_number,
)
from jpmsim.meanfield import (
    IntegratorConfig,
    InvariantViolation,
    Trajectory,
    _check_invariants,
    integrate,
)

OMEGA = omega_from_ghz(5.0)


def make_params(**kw):
    base = dict(gamma_tl=1.0, gamma_0=0.0, gamma_1=1.0, gamma_rel=0.0,
                gamma_res=0.0, omega_0=OMEGA)
    base.update(kw)
    return DetectorParams(**base)


class TestGammaTilde:
    def test_direct_sum(self):
        assert make_params(gamma_tl=1, gamma_0=0, gamma_1=1, gamma_rel=0).gamma_tilde == 2.0

    def test_zero(self):
        assert make_params(gamma_tl=0, gamma_0=0, gamma_1=0, gamma_rel=0).gamma_tilde == 0.0

    def test_mixed_rates(self):
        p = make_params(gamma_tl=0.5, gamma_0=0.01, gamma_1=1.0, gamma_rel=3.3e-5)
        # independent arithmetic: 0.5 + 0.01 + 1.0 + 0.000033
        assert p.gamma_tilde == pytest.approx(1.510033, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            r = rng.uniform(0, 3, size=4)
            vals = []
            for perm in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]):
                p = make_params(
                    gamma_tl=r[perm[0]], gamma_0=r[perm[1]],
                    gamma_1=r[perm[2]], gamma_rel=r[perm[3]],
                )
                vals.append(p.gamma_tilde)
            assert max(vals) - min(vals) < 1e-12 * max(vals)


class TestValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            make_params(gamma_tl=-0.1)

    def test_nonpositive_omega_rejected(self):
        with pytest.raises(ValueError):
            make_params(omega_0=0.0)

    def test_drive_shape_params(self):
        with pytest.raises(ValueError):
            DriveSpec.exponential(1.0, OMEGA, kappa=0.0)
        with pytest.raises(ValueError):
            DriveSpec.gaussian(1.0, OMEGA, sigma=-1.0)
        with pytest.raises(ValueError):
            DriveSpec.continuous(-1.0, OMEGA)


#: Builds the object owning each numeric field of DetectorParams and DriveSpec,
#: and IntegratorConfig's t_end, with that field set to the given value.
FIELD_BUILDERS = {
    **{
        name: (lambda x, name=name: make_params(**{name: x}))
        for name in ("gamma_tl", "gamma_0", "gamma_1", "gamma_rel", "gamma_res", "omega_0")
    },
    "alpha_sq": lambda x: DriveSpec.continuous(x, OMEGA),
    "omega_s": lambda x: DriveSpec.continuous(1.0, x),
    "kappa": lambda x: DriveSpec.exponential(1.0, OMEGA, x),
    "sigma": lambda x: DriveSpec.gaussian(1.0, OMEGA, x),
    "t0": lambda x: DriveSpec.gaussian(1.0, OMEGA, 1.0, t0=x),
    "t_end": lambda x: IntegratorConfig(t_end=x),
}


# an array is no field value, even one whose elements all are valid
@pytest.mark.parametrize("value", [np.nan, np.inf, "1", True, np.array([-1.0, 1.0]),
                                   np.array([-5.0]), np.array([1.0]), np.array(1.0)],
                         ids=["nan", "inf", "str", "bool", "array", "one-negative",
                              "one-positive", "0-d"])
@pytest.mark.parametrize("name", sorted(FIELD_BUILDERS))
def test_non_finite_or_non_numeric_field_rejected(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
        FIELD_BUILDERS[name](value)


class TestPhotonNumber:
    def test_zero_amplitude(self):
        d = DriveSpec.continuous(0.0, OMEGA)
        assert photon_number(d, 123.0) == 0.0

    def test_flux_formula(self):
        # alpha_sq = 1, omega_0 = 2 pi rad/ns, t_m = 1 ns -> exactly one photon
        d = DriveSpec.continuous(1.0, 2 * np.pi)
        assert photon_number(d, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_pulse_carries_own_count(self):
        d = DriveSpec.gaussian(2.5, OMEGA, sigma=1.0)
        assert photon_number(d, 17.0) == 2.5

    def test_linearity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a2 = rng.uniform(0, 10)
            t = rng.uniform(0, 100)
            d = DriveSpec.continuous(a2, OMEGA)
            assert photon_number(d, 2 * t) == pytest.approx(2 * photon_number(d, t), rel=1e-12)
            d2 = DriveSpec.continuous(2 * a2, OMEGA)
            assert photon_number(d2, t) == pytest.approx(2 * photon_number(d, t), rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            photon_number(DriveSpec.continuous(1.0, OMEGA), -1.0)


def one_sample(p0: float):
    """The times and samples (v, p0, p1, pm) of one sample with the given p0
    and p1 = pm = 0."""
    return np.zeros(1), np.array([[0.0], [p0], [0.0], [0.0]])


class TestState:
    def test_ground(self):
        traj = integrate(make_params(), DriveSpec.continuous(0.1, OMEGA))
        start = (traj.v[0], traj.p0[0], traj.p1[0], traj.pm[0])
        assert start == (0.0, 1.0, 0.0, 0.0)
        _check_invariants(*one_sample(1.0))

    def test_bounds_violation(self):
        with pytest.raises(InvariantViolation, match="p0"):
            _check_invariants(*one_sample(1.5))


def test_flux_value():
    assert photon_flux(1.0, 2 * np.pi) == pytest.approx(1.0, rel=1e-14)
