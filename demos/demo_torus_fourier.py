"""Stationary kernel on the circle: exact Fourier side and parity split.

On the n-point lattice grid the compensated profile is exactly circulant;
its operator eigenvalues have the closed form 1/(4 n^2 sin^2(pi v/n)),
approaching the continuum 1/(4 pi^2 v^2). The sampled paths split into an
exactly-odd part and an even complement whose squared integrals are
independent, identically scaled copies — checked by KS at the end.
"""

import numpy as np

from invdecomp.torus import (
    Lattice,
    fourier_kl,
    torus_grid,
    torus_watson,
    torus_watson_check,
)

grid = torus_grid(Lattice(np.eye(1)), 256)
kernel = torus_watson(grid)
spec = fourier_kl(kernel.matrix[0], grid, cutoff=8)

print("v    a_v (grid)      1/(4 pi^2 v^2)   rel gap")
for (v,), a in zip(spec.vectors, spec.eigenvalues):
    if v == 0:
        print(f"{v:<4} {a:.6e}   (grid constant 1/(12 n^2))")
        continue
    cont = 1 / (4 * np.pi**2 * v**2)
    print(f"{v:<4} {a:.6e}   {cont:.6e}     {abs(a / cont - 1):.2e}")
print(f"max |sine coefficient|: {spec.sine_dev:.2e}  (evenness)")

report = torus_watson_check(kernel, count=20_000, seed=1312)
print(f"\nstationarity spread : {report['stationarity_spread']:.1e}")
print(f"fixed points        : {report['fixed_point_indices']}"
      f"  (odd part there: {report['fixed_point_max_odd_value']:.1e})")
print(f"KS(odd^2, even^2)   : {report['ks_parts']:.4f}  (tol {report['ks_tol']:.4f})")
print("factor conventions  :")
for name, residual in report["energy_residuals"].items():
    ok = name in report["conventions_satisfied"]
    print(f"  {name:<24} residual {residual:.2e}  {'satisfied' if ok else 'not satisfied'}")
