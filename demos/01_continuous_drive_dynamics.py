"""Continuous drive: occupation dynamics and the Laplace-domain oracle.

A two-level counter terminating a semi-infinite transmission line is driven
on resonance by a coherent tone. We integrate the mean-field equations from
the ground state, watch the population flow p0 -> p1 -> pm, and check the
numerical trajectory against the exact pole/residue reconstruction of the
same dynamics.
"""

import numpy as np

from jpmsim import DetectorParams, DriveSpec, integrate
from jpmsim.analytic import continuous_pm_poles
from jpmsim.core import omega_from_ghz
from jpmsim.meanfield import rabi_frequency

# Rates in 1/ns; the carrier at 5 GHz enters as an angular frequency.
params = DetectorParams(
    gamma_tl=1.0,    # coupling to the line
    gamma_0=0.0,     # no dark counts in the coherent model
    gamma_1=1.0,     # tunneling into the measured state
    gamma_rel=0.0,
    gamma_res=0.0,   # single-shot counter, no reset
    omega_0=omega_from_ghz(5.0),
)
alpha_sq = 0.05
drive = DriveSpec.continuous(alpha_sq, params.omega_0)

print(f"Rabi frequency: {rabi_frequency(params, drive):.4f} /ns")

traj = integrate(params, drive, t_end=10.0, n_samples=11)
refl = traj.reflection()
print("\n  t [ns]      p0        p1        pm        R")
for t, p0, p1, pm, r in zip(traj.times, traj.p0, traj.p1, traj.pm, refl):
    print(f"  {t:6.1f}  {p0:8.5f}  {p1:8.5f}  {pm:8.5f}  {r:+8.5f}")

# Independent check: invert the Laplace image of pm via its four poles.
poles = continuous_pm_poles(params, alpha_sq)
recon = poles.reconstruct(traj.times)
print(f"\nPoles (1/ns): {np.array2string(poles.poles, precision=4)}")
print(f"Max |ODE - pole reconstruction| = {np.max(np.abs(traj.pm - recon)):.2e}")

# Every photon is eventually counted: pm -> 1.
late = integrate(params, drive, t_end=120.0, n_samples=2)
print(f"pm(120 ns) = {late.pm[-1]:.6f}  (stationary limit is 1)")
