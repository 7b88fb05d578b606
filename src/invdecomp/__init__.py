"""Symmetry decompositions of sampled stochastic processes.

Split paths and covariance kernels into components indexed by the
irreducible characters of a finite group acting on the index set, and check
the distributional consequences (orthogonality, cumulant formulas, classical
duplication identities) numerically.
"""

from invdecomp.groups import (
    CharacterTable,
    FiniteGroup,
    GroupAction,
    Irrep,
    character_table,
    cyclic_group,
    direct_product,
    project_path,
)
from invdecomp.kernels import (
    IndexSpace,
    Kernel,
    builtin_kernel,
    decompose_kernel,
    make_interval_grid,
    make_product_grid,
    project_kernel,
)
from invdecomp.cumulants import (
    analytic_cumulants,
    k_coeff,
    mgf_watson,
    watson_relation_check,
    z2_condition_check,
)
from invdecomp.sampling import (
    duplication_check,
    pair_functional,
    quadruplication_check,
    sample,
)
from invdecomp.spectral import canonical_decomposition, eigendecompose
from invdecomp.torus import (
    Lattice,
    assemble_kernel,
    dual_lattice,
    fourier_factor,
    fourier_kl,
    parity_decompose,
    torus_grid,
    torus_watson,
    torus_watson_check,
)

__version__ = "0.8.6"
