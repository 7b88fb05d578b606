"""Eigenvalue spectrum of the interval kernels and its symmetry labels.

The tied-down kernel has simple eigenvalues 1/(pi^2 k^2) whose
eigenfunctions alternate parity; the compensated kernel has the doubly
degenerate sequence 1/(4 pi^2 k^2), and the canonical decomposition
resolves each degenerate pair into one even and one odd direction.
"""

import numpy as np

from invdecomp.kernels import builtin_kernel, make_interval_grid
from invdecomp.spectral import canonical_decomposition, eigendecompose, spectrum_to_csv

grid = make_interval_grid(512)

for name, oracle in (
    ("bridge", lambda k: 1 / (np.pi**2 * k**2)),
    ("watson", lambda k: 1 / (4 * np.pi**2 * k**2)),
):
    spectrum = eigendecompose(builtin_kernel(name, grid))
    splits = canonical_decomposition(spectrum, tol=1e-5)
    print(f"\n{name}: first clusters (eigenvalue, oracle, labels)")
    for i, s in enumerate(splits[:6]):
        labels = "+".join(f"{l}x{d}" for l, d in sorted(s.dims.items()) if d)
        k = i + 1
        print(f"  {s.eigenvalue:.6e}  {oracle(k):.6e}  {labels}")

csv = spectrum_to_csv(spectrum, splits)
print("\nCSV head:")
print("\n".join(csv.splitlines()[:4]))
