"""Design sweeps and coupling-rate optimization.

How should the line coupling be chosen for a finite measurement window?
At low photon flux the dynamical optimum reproduces the stationary matching
condition gamma_tl = gamma_1; as the flux grows, weaker coupling wins and a
broad plateau appears. The declarative sweep runner and the golden-section
optimizer make these maps cheap to produce.
"""

import numpy as np

from jpmsim import DetectorParams, DriveSpec
from jpmsim.core import omega_from_ghz
from jpmsim.sweep import (
    SweepAxis,
    SweepSpec,
    optimize_gamma_tl,
    run_sweep,
    saturation_curve,
)

OMEGA = omega_from_ghz(5.0)
params = DetectorParams(
    gamma_tl=1.0, gamma_0=0.0, gamma_1=1.0, gamma_rel=0.0, gamma_res=0.0,
    omega_0=OMEGA,
)
t_m = 50.0  # measurement window [ns]


def alpha_for_photons(n):
    # photon number over the window: n = alpha_sq * omega_0 / (2 pi) * t_m
    return n * 2.0 * np.pi / (OMEGA * t_m)


print("Optimal coupling vs photon flux (t_m = 50 ns):")
print("  photons   gamma_tl_max/gamma_1    pm at optimum")
for n in (0.5, 1.58, 5.0, 15.8, 50.0):
    drive = DriveSpec.continuous(alpha_for_photons(n), OMEGA)
    res = optimize_gamma_tl(drive, params, t_m)
    print(f"  {n:7.2f}   {res.gamma_tl / params.gamma_1:20.4f}    {res.pm:.4f}")
print("At ~0.5 photons the optimum sits at the matching point gamma_tl = gamma_1;")
print("more flux pushes it to weaker coupling.\n")

print("2D sweep: pm(t_m) over (gamma_tl, alpha_sq), 5x4 grid")
spec = SweepSpec(
    axis1=SweepAxis("gamma_tl", 0.2, 5.0, 5),
    axis2=SweepAxis("alpha_sq", alpha_for_photons(0.5), alpha_for_photons(50.0), 4),
    params=params,
    drive=DriveSpec.continuous(0.0, OMEGA),
    objective="pm_at_tm",
    t_m=t_m,
)
result = run_sweep(spec)
header = "  gtl \\ a2 " + "".join(f"{a:>10.4f}" for a in result.axis2_values)
print(header)
for g, row in zip(result.axis1_values, result.values):
    print(f"  {g:8.3f} " + "".join(f"{v:>10.4f}" for v in row))

print("\nSaturation: pm(t_m = 10 ns) vs drive strength at fixed coupling")
grid = np.geomspace(1e-3, 10.0, 8)
pm = saturation_curve(params, DriveSpec.continuous(0.0, OMEGA), 10.0, grid)
for a2, v in zip(grid, pm):
    print(f"  alpha_sq = {a2:8.4f}   pm = {v:.5f}")
print("Linear growth at weak drive, then a knee once absorption saturates.")
