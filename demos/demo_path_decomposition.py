"""Split sampled paths into symmetric and antisymmetric components.

Draws a small ensemble from the compensated kernel, projects every path
onto the two characters of the time-reversal group, and verifies the
defining properties numerically: the parts are exactly even/odd, they sum
back to the original paths, and their energies are independent halves of
the total on average.
"""

import numpy as np

from invdecomp.groups import character_table, project_path
from invdecomp.kernels import builtin_kernel, make_interval_grid
from invdecomp.sampling import sample

grid = make_interval_grid(64)
kernel = builtin_kernel("watson", grid)
ensemble = sample(kernel, 2000, seed=7)

table = character_table(grid.action.group)
parts = {
    ir.label: project_path(ensemble.samples, grid.action, ir) for ir in table.irreps
}

rev = grid.action.perm[1]
print("reconstruction max error:", np.abs(sum(parts.values()) - ensemble.samples).max())
print("even part symmetry error:", np.abs(parts["triv"][rev] - parts["triv"]).max())
print("odd part antisymmetry err:", np.abs(parts["sign"][rev] + parts["sign"]).max())

w = grid.weights
energy = lambda x: np.einsum("is,i,is->s", x, w, x)
tot = energy(ensemble.samples)
print("\nmean energies (total / even / odd):")
print(
    f"  {tot.mean():.6f} / {energy(parts['triv']).mean():.6f}"
    f" / {energy(parts['sign']).mean():.6f}"
)
cross = np.einsum("is,i,is->s", parts["triv"], w, parts["sign"])
print("max |cross inner product| over paths:", np.abs(cross).max())
print("\nThe kernel has matching block structure: each block is again a")
print("covariance, and the two blocks are orthogonal as operators.")

from invdecomp.kernels import decompose_kernel

blocks = decompose_kernel(kernel)
for label, block in blocks.items():
    lam = block.eigenvalues
    print(f"  block {label!r}: min eigenvalue {lam.min():.2e}, operator trace {lam.sum():.6f}")
