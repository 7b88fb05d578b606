"""Cumulants of quadratic functionals of correlated Gaussian process pairs.

For a pair (Z1, Z2) of jointly Gaussian processes with common covariance K
and cross-covariance rho*K, the functional J = sum_i Z1[i] Z2[i] w_i has

    kappa_1 = rho * tr(D K),
    kappa_n = c_n * K(n, rho) * 2^{-n} * tr((D K)^n),   n >= 2,

with D = diag(weights), c_n = 2^(n-1) (n-1)! the classical quadratic-form
cumulant coefficient, and K(n, rho) the even/odd binomial sums implemented
in :func:`k_coeff`.  The module also provides a closed-form/spectral MGF
cross-check for the circle kernel and two symmetry checks on the kernel's
isotypic spectra (``Kernel.irrep_spectra``): equal power sums across irreps
and, by character orthogonality, the Z/2 reflection criterion.  Both read
the kernel's cached invariance deviation and spectra, so a run that makes
both checks computes each once.

Every result is plain data: :func:`analytic_cumulants` returns a read-only
array, and the two checks return the JSON-ready dicts the runner writes.
"""

from __future__ import annotations

from math import comb, factorial

import numpy as np

from invdecomp.groups import GroupError, character_table
from invdecomp.kernels import BUILTINS, INVARIANCE_TOL, Kernel, KernelError, weighted_traces

__all__ = [
    "k_coeff",
    "cumulant_coefficient",
    "analytic_cumulants",
    "watson_relation_check",
    "z2_condition_check",
    "mgf_watson",
]


def k_coeff(n: int, rho: float) -> float:
    """Correlation-dependent cumulant coefficient K(n, rho).

    Evaluated exactly by its three cases:

    * K(1, rho) = 2 rho;
    * n even:  2 sum_{j<n/2} C(n-1, 2j) rho^(2j)
             + 2 sum_{j<n/2} C(n-1, 2j+1) rho^(2j+2);
    * n odd:   2 sum_{j<=(n-1)/2} C(n-1, 2j) rho^(2j+1)
             + 2 sum_{j<=(n-3)/2} C(n-1, 2j+1) rho^(2j+1).

    Equivalently (1+rho)^n + (-1)^n (1-rho)^n; K(n, 1) = 2^n, even orders
    are strictly positive, and odd orders vanish iff rho = 0.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    if n == 1:
        return 2.0 * rho
    if n % 2 == 0:
        even = sum(comb(n - 1, 2 * j) * rho ** (2 * j) for j in range(n // 2))
        odd = sum(comb(n - 1, 2 * j + 1) * rho ** (2 * j + 2) for j in range(n // 2))
    else:
        even = sum(comb(n - 1, 2 * j) * rho ** (2 * j + 1) for j in range((n - 1) // 2 + 1))
        odd = sum(comb(n - 1, 2 * j + 1) * rho ** (2 * j + 1) for j in range((n - 3) // 2 + 1))
    return 2.0 * (even + odd)


def cumulant_coefficient(n: int) -> float:
    """c_n = 2^(n-1) (n-1)!: the n-th cumulant of chi^2(1) and of any
    Gaussian quadratic form per unit trace power."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return float(2 ** (n - 1) * factorial(n - 1))


def _cumulants_from_traces(traces, rho: float) -> np.ndarray:
    """kappa_1..kappa_N of the module formula from the traces tr((D K)^n), n = 1..N."""
    values = np.empty(len(traces))
    values[0] = rho * traces[0]
    for n in range(2, len(traces) + 1):
        values[n - 1] = cumulant_coefficient(n) * k_coeff(n, rho) * 2.0 ** (-n) * traces[n - 1]
    return values


def analytic_cumulants(kernel: Kernel, rho: float, n_max: int) -> np.ndarray:
    """Exact cumulants of J = sum_i Z1[i] Z2[i] w_i on the discrete space: the
    read-only array kappa_1..kappa_{n_max}."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    values = _cumulants_from_traces(weighted_traces(kernel, n_max), rho)
    values.setflags(write=False)
    return values


def _block_traces(kernel: Kernel, n_max: int) -> dict:
    """tr(B_pi^n), n = 1..n_max, by irrep label, from ``kernel.irrep_spectra``."""
    spectra = kernel.irrep_spectra
    return {k: tuple(float(np.sum(ev**n)) for n in range(1, n_max + 1)) for k, ev in spectra.items()}


def _invariant_action(kernel: Kernel):
    """The bound action, once it preserves the kernel (``kernel.invariance_dev`` at most
    ``INVARIANCE_TOL``), as both checks need; the space checked the weights."""
    dev = kernel.invariance_dev  # raises KernelError when there is no action
    if not dev <= INVARIANCE_TOL:
        raise KernelError(f"kernel is not invariant under the action (dev {dev:.3e})")
    return kernel.space.action


def _rel_gap(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def watson_relation_check(kernel: Kernel, rho: float, n_max: int, tol: float = 1e-3) -> dict:
    """Check the two equal-trace conditions behind the duplication identity.

    For every irrep pi and order n, condition II asks that the projected
    kernel carry exactly a 1/|dual| share of the full contraction trace;
    condition III asks that all projected traces agree pairwise.  Relative
    gaps are scaled by the larger side since traces decay geometrically.

    The per-irrep traces tr_n(R_pi) are power sums of the kernel's isotypic
    block spectra (``kernel.irrep_spectra``), the nonzero spectra of the
    projections R_pi; no m x m projection is built.  ``full_traces`` come
    from the kernel's own spectrum.  A kernel the action moves raises
    :class:`KernelError` (``kernel.invariance_dev`` above ``INVARIANCE_TOL``).

    Returns the JSON-ready report.  Each ``per_irrep`` entry holds, for
    n = 1..n_max, the irrep's ``traces`` tr_n(R_pi), its ``cumulants`` by the
    module formula, ``cII_dev``, the relative gap between K(n,rho) tr_n(R_pi)
    and K(n,rho)/|dual| tr_n(R), and ``cIII_dev``, the worst pairwise gap to
    the other irreps.  Orders with K(n,rho) = 0 are vacuous
    (``vacuous_orders``) and excluded from the ``verdicts``.
    """
    table = character_table(_invariant_action(kernel).group)
    if not table.real_valued():
        raise GroupError("equal-trace conditions need real-valued characters")

    nd = len(table)
    full = weighted_traces(kernel, n_max)
    traces = _block_traces(kernel, n_max)
    orders = range(1, n_max + 1)
    vacuous = [n for n in orders if k_coeff(n, rho) == 0.0]
    per_irrep = [
        {
            "label": p.label,
            "cumulants": _cumulants_from_traces(traces[p.label], rho).tolist(),
            "traces": list(traces[p.label]),
            "cII_dev": [float(_rel_gap(traces[p.label][n - 1], full[n - 1] / nd)) for n in orders],
            "cIII_dev": [
                float(max(_rel_gap(traces[p.label][n - 1], traces[q.label][n - 1]) for q in table))
                for n in orders
            ],
        }
        for p in table
    ]
    live = [n for n in orders if n not in vacuous]
    cii = all(rec["cII_dev"][n - 1] <= tol for rec in per_irrep for n in live)
    ciii = all(rec["cIII_dev"][n - 1] <= tol for rec in per_irrep for n in live)
    return {
        "rho": rho,
        "n_max": n_max,
        "per_irrep": per_irrep,
        "full_traces": [float(x) for x in full],
        "vacuous_orders": vacuous,
        "verdicts": {"cII": cii, "cIII": ciii},
        "tolerances": {"cII": tol, "cIII": tol},
        "ok": cii and ciii,
    }


def z2_condition_check(kernel: Kernel, n_max: int, tol: float = 1e-8) -> dict:
    """Evaluate the vanishing criterion for an order-2 action.

    The functional pair built from an invariant kernel splits into
    independent, identically distributed halves precisely when the
    reflected-diagonal integrals of every contraction power vanish; this
    computes them for n = 1..n_max.

    With S = sqrt(w) K sqrt(w) and P_g the permutation of g, the order-n
    integral is tr(S^n P_g) = sum_pi chi_pi(g) tr(B_pi^n) by character
    orthogonality (Serre, section 2), over the kernel's block spectra
    (``kernel.irrep_spectra``): on Z2, bitwise watson_relation_check's
    traces[trivial] - traces[sign].  A kernel the action moves raises
    :class:`KernelError`, as in :func:`watson_relation_check`, since S must
    commute with P_g.

    Returns ``{"values", "tol", "ok"}``: the integrals for n = 1..n_max, and
    ``ok`` when each is at most ``tol`` in absolute value.
    """
    action = _invariant_action(kernel)
    if action.group.order != 2:
        raise GroupError(f"criterion needs a 2-element group, got order {action.group.order}")
    table = character_table(action.group)
    tr = _block_traces(kernel, n_max)
    g = 1 - action.group.identity
    values = [float(sum(p.values[g].real * tr[p.label][n] for p in table)) for n in range(n_max)]
    return {"values": values, "tol": tol, "ok": all(abs(v) <= tol for v in values)}


def mgf_watson(lam: float, rho: float, n_pairs: int = 2000) -> tuple[float, float]:
    """E[exp(lam^2 * J)] for the circle-kernel functional, two ways.

    ``closed_form`` evaluates

        (lam/2)^2 sqrt(1-rho^2)
        / ( sin((lam/2) sqrt(1+rho)) * sinh((lam/2) sqrt(1-rho)) ),

    with the lam -> 0 and rho -> 1 limits taken analytically.  ``spectral``
    multiplies per-eigenvalue factors over lambda_k = 1/(4 pi^2 k^2), each of
    multiplicity two (the watson oracle of ``kernels.BUILTINS``): writing
    xi*eta = ((xi+eta)^2 - (xi-eta)^2)/4 for a rho-correlated standard pair
    turns each mode into an independent difference of scaled chi^2(1)
    variables, giving the factor

        [ (1 - lam^2 lambda_k (1+rho)) (1 + lam^2 lambda_k (1-rho)) ]^(-1).

    Valid for 0 <= lam < 2 pi / sqrt(1+rho) (the sine singularity).
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    lam_star = 2 * np.pi / np.sqrt(1 + rho)
    if lam < 0 or lam >= lam_star:
        raise ValueError(f"lam must lie in [0, {lam_star:.6f}) for rho={rho}")
    if lam == 0.0:
        return 1.0, 1.0
    half = lam / 2.0
    zp = half * np.sqrt(1.0 + rho)
    if rho == 1.0:
        closed = zp / np.sin(zp)
    else:
        zm = half * np.sqrt(1.0 - rho)
        closed = (half**2 * np.sqrt(1.0 - rho**2)) / (np.sin(zp) * np.sinh(zm))
    k = np.arange(1, n_pairs + 1)
    lk = BUILTINS["watson"].oracle[0](k)
    fac = (1.0 - lam**2 * lk * (1.0 + rho)) * (1.0 + lam**2 * lk * (1.0 - rho))
    spectral = float(1.0 / np.prod(fac))
    return float(closed), spectral
