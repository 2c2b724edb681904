"""Coherent mean field vs incoherent rate equations.

The incoherent (rate-equation) closure has an exact closed-form solution for
a single measurement event. It tracks the full mean-field dynamics when the
drive is weak compared to the decay rates; when the Rabi frequency exceeds
them, coherent oscillations appear and the mean-field curve winds around the
monotone rate-equation curve.
"""

import numpy as np

from jpmsim import DetectorParams, DriveSpec, integrate
from jpmsim.core import omega_from_ghz
from jpmsim.meanfield import rabi_frequency
from jpmsim.rate import closed_form_p1_pm

params = DetectorParams(
    gamma_tl=1.0, gamma_0=0.0, gamma_1=1.0, gamma_rel=0.0, gamma_res=0.0,
    omega_0=omega_from_ghz(5.0),
)


def compare(alpha_sq, label):
    drive = DriveSpec.continuous(alpha_sq, params.omega_0)
    traj = integrate(params, drive, t_end=30.0, n_samples=1200)
    _, pm_rate = closed_form_p1_pm(params, alpha_sq, traj.times)
    gap = traj.pm - pm_rate
    crossings = int(np.sum(np.diff(np.sign(gap[1:])) != 0))
    wr = rabi_frequency(params, drive)
    print(f"{label}: omega_R = {wr:.2f}/ns, gamma_tilde = {params.gamma_tilde:.2f}/ns")
    print(f"  mean |pm_meanfield - pm_rate| = {np.mean(np.abs(gap)):.4f}")
    print(f"  curve crossings               = {crossings}")
    print("  t [ns]   pm (mean field)   pm (rate)")
    for i in range(0, 1200, 200):
        print(f"  {traj.times[i]:6.1f}   {traj.pm[i]:15.5f}   {pm_rate[i]:9.5f}")
    print()


# Strong incoherent pumping: the rate picture is accurate.
compare(5.0, "classical regime (alpha_sq = 5)")

# Rabi frequency well above the decay rates: coherent oscillations.
wr_target = 5.0
a2 = np.pi * wr_target**2 / (2.0 * params.gamma_tl * params.omega_0)
compare(a2, f"quantum regime (alpha_sq = {a2:.3f})")
