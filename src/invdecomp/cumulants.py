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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from invdecomp.groups import GroupError, character_table, check_action
from invdecomp.kernels import BUILTINS, INVARIANCE_TOL, Kernel, KernelError, weighted_traces

__all__ = [
    "k_coeff",
    "cumulant_coefficient",
    "CumulantVector",
    "analytic_cumulants",
    "WatsonCheckReport",
    "watson_relation_check",
    "Z2ConditionReport",
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


@dataclass(frozen=True, eq=False)
class CumulantVector:
    """kappa_1..kappa_{n_max} of the weighted product functional."""

    rho: float
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if len(v) >= 2 and v[1] < 0:
            raise ValueError("kappa_2 must be nonnegative for rho in [0,1]")


def _cumulants_from_traces(traces, rho: float) -> np.ndarray:
    """kappa_1..kappa_N of the module formula from the traces tr((D K)^n), n = 1..N."""
    values = np.empty(len(traces))
    values[0] = rho * traces[0]
    for n in range(2, len(traces) + 1):
        values[n - 1] = cumulant_coefficient(n) * k_coeff(n, rho) * 2.0 ** (-n) * traces[n - 1]
    return values


def analytic_cumulants(kernel: Kernel, rho: float, n_max: int) -> CumulantVector:
    """Exact cumulants of J = sum_i Z1[i] Z2[i] w_i on the discrete space."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    traces = weighted_traces(kernel, n_max)
    return CumulantVector(rho=rho, values=_cumulants_from_traces(traces, rho))


def _block_traces(kernel: Kernel, n_max: int) -> dict:
    """tr(B_pi^n), n = 1..n_max, by irrep label, from ``kernel.irrep_spectra``."""
    spectra = kernel.irrep_spectra
    return {k: tuple(float(np.sum(ev**n)) for n in range(1, n_max + 1)) for k, ev in spectra.items()}


def _invariant_action(kernel: Kernel):
    """The bound action, once it preserves the kernel (``kernel.invariance_dev`` at most
    ``INVARIANCE_TOL``) and the weights, as both checks need."""
    dev = kernel.invariance_dev  # raises KernelError when there is no action
    if not dev <= INVARIANCE_TOL:
        raise KernelError(f"kernel is not invariant under the action (dev {dev:.3e})")
    action = kernel.space.action
    if not check_action(action, kernel.space.weights).ok:
        raise KernelError("the action does not preserve the weights")
    return action


def _rel_gap(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


@dataclass(frozen=True)
class WatsonCheckReport:
    """Equal-trace conditions across irreps for an invariant kernel.

    ``cii_dev[label][n-1]`` is the relative gap between the per-irrep trace
    statement K(n,rho)*tr_n(R_pi) and K(n,rho)/|dual| * tr_n(R); ``ciii_dev``
    the worst pairwise gap across irreps.  Orders with K(n,rho) = 0 are
    vacuous and excluded from the verdicts.
    """

    rho: float
    n_max: int
    tol: float
    labels: tuple[str, ...]
    traces: dict  # label -> tuple of tr_n(R_pi), n = 1..n_max
    full_traces: tuple
    cii_dev: dict
    ciii_dev: dict
    vacuous: tuple  # orders n with K(n, rho) == 0
    cii_pass: bool
    ciii_pass: bool

    @property
    def ok(self) -> bool:
        return self.cii_pass and self.ciii_pass

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "n_max": self.n_max,
            "per_irrep": [
                {
                    "label": lab,
                    "cumulants": _cumulants_from_traces(self.traces[lab], self.rho).tolist(),
                    "traces": list(self.traces[lab]),
                    "cII_dev": list(self.cii_dev[lab]),
                    "cIII_dev": list(self.ciii_dev[lab]),
                }
                for lab in self.labels
            ],
            "full_traces": list(self.full_traces),
            "vacuous_orders": list(self.vacuous),
            "verdicts": {"cII": self.cii_pass, "cIII": self.ciii_pass},
            "tolerances": {"cII": self.tol, "cIII": self.tol},
            "ok": self.ok,
        }


def watson_relation_check(kernel: Kernel, rho: float, n_max: int, tol: float = 1e-3) -> WatsonCheckReport:
    """Check the two equal-trace conditions behind the duplication identity.

    For every irrep pi and order n, condition II asks that the projected
    kernel carry exactly a 1/|dual| share of the full contraction trace;
    condition III asks that all projected traces agree pairwise.  Relative
    gaps are scaled by the larger side since traces decay geometrically.

    The per-irrep traces tr_n(R_pi) are power sums of the kernel's isotypic
    block spectra (``kernel.irrep_spectra``), the nonzero spectra of the
    projections R_pi; no m x m projection is built.  ``full_traces`` come
    from the kernel's own spectrum.  A kernel or weights the action moves
    raise :class:`KernelError` (``kernel.invariance_dev`` above
    ``INVARIANCE_TOL``).
    """
    table = character_table(_invariant_action(kernel).group)
    if not table.real_valued():
        raise GroupError("equal-trace conditions need real-valued characters")

    nd = len(table)
    full = weighted_traces(kernel, n_max)
    traces = _block_traces(kernel, n_max)

    vacuous = tuple(n for n in range(1, n_max + 1) if k_coeff(n, rho) == 0.0)
    cii_dev, ciii_dev = {}, {}
    for p in table:
        cii_dev[p.label] = tuple(
            _rel_gap(traces[p.label][n - 1], full[n - 1] / nd) for n in range(1, n_max + 1)
        )
        ciii_dev[p.label] = tuple(
            max(_rel_gap(traces[p.label][n - 1], traces[q.label][n - 1]) for q in table)
            for n in range(1, n_max + 1)
        )
    live = [n for n in range(1, n_max + 1) if n not in vacuous]
    cii_pass = all(cii_dev[lab][n - 1] <= tol for lab in cii_dev for n in live)
    ciii_pass = all(ciii_dev[lab][n - 1] <= tol for lab in ciii_dev for n in live)
    return WatsonCheckReport(
        rho=rho,
        n_max=n_max,
        tol=tol,
        labels=tuple(table.labels),
        traces=traces,
        full_traces=tuple(full),
        cii_dev=cii_dev,
        ciii_dev=ciii_dev,
        vacuous=vacuous,
        cii_pass=cii_pass,
        ciii_pass=ciii_pass,
    )


@dataclass(frozen=True)
class Z2ConditionReport:
    """Reflection-pairing integrals sum_i w_i M_n[i, g.i] for the nontrivial g (see the check)."""

    values: tuple
    tol: float

    @property
    def ok(self) -> bool:
        return all(abs(v) <= self.tol for v in self.values)

    def to_dict(self) -> dict:
        return {"values": list(self.values), "tol": self.tol, "ok": self.ok}


def z2_condition_check(kernel: Kernel, n_max: int, tol: float = 1e-8) -> Z2ConditionReport:
    """Evaluate the vanishing criterion for an order-2 action.

    The functional pair built from an invariant kernel splits into
    independent, identically distributed halves precisely when the
    reflected-diagonal integrals of every contraction power vanish; this
    computes them for n = 1..n_max.

    With S = sqrt(w) K sqrt(w) and P_g the permutation of g, the order-n
    integral is tr(S^n P_g) = sum_pi chi_pi(g) tr(B_pi^n) by character
    orthogonality (Serre, section 2), over the kernel's block spectra
    (``kernel.irrep_spectra``): on Z2, bitwise watson_relation_check's
    traces[trivial] - traces[sign].  A kernel or weights the action moves
    raise :class:`KernelError`, as in :func:`watson_relation_check`, since S
    must commute with P_g.
    """
    action = _invariant_action(kernel)
    if action.group.order != 2:
        raise GroupError(f"criterion needs a 2-element group, got order {action.group.order}")
    table = character_table(action.group)
    tr = _block_traces(kernel, n_max)
    g = 1 - action.group.identity
    values = tuple(float(sum(p.values[g].real * tr[p.label][n] for p in table)) for n in range(n_max))
    return Z2ConditionReport(values=values, tol=tol)


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
