"""Cumulant formulas for bilinear Gaussian functionals, checked against
exact rational combinatorics and high-precision numerical differentiation
of the moment generating function."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invdecomp.cumulants import (
    analytic_cumulants,
    cumulant_coefficient,
    k_coeff,
    mgf_watson,
    watson_relation_check,
    z2_condition_check,
)
from invdecomp.kernels import (
    IndexSpace,
    Kernel,
    KernelError,
    builtin_kernel,
    contract_power,
    make_interval_grid,
)

# ------------------------------------------------------------- coefficients


def k_coeff_rational(n, rho):
    """Independent oracle: 2 * sum over k = n (mod 2) of C(n,k) rho^k."""
    rho = Fraction(rho)
    return 2 * sum(
        math.comb(n, k) * rho**k for k in range(n + 1) if (n - k) % 2 == 0
    )


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("rho", [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 10)])
def test_k_coeff_matches_binomial_sum(n, rho):
    want = k_coeff_rational(n, rho)
    got = k_coeff(n, float(rho))
    assert got == pytest.approx(float(want), rel=1e-13, abs=1e-13)


def test_k_coeff_rejects_out_of_range_rho():
    with pytest.raises(ValueError):
        k_coeff(2, -0.3)
    with pytest.raises(ValueError):
        k_coeff(2, 1.5)


def test_k_coeff_special_values():
    # rho = 1: always 2^n; rho = 0: 2 for even n, 0 for odd n
    for n in range(1, 8):
        assert k_coeff(n, 1.0) == pytest.approx(2.0**n, rel=1e-15)
        assert k_coeff(n, 0.0) == (2.0 if n % 2 == 0 else 0.0)
    assert k_coeff(3, 0.5) == pytest.approx(6 * 0.5 + 2 * 0.5**3)


def test_cumulant_coefficient_values():
    # c_n = 2^(n-1) (n-1)!
    assert [cumulant_coefficient(n) for n in range(1, 7)] == [1, 2, 8, 48, 384, 3840]


# ----------------------------------------------------- exact-cgf comparison


def exact_cumulants_via_cgf(kernel, rho, n_max, dps=40):
    """Cumulants of J = sum_i w_i X_i Y_i for an exactly Gaussian pair.

    Uses none of the library's trace algebra: z = (X, Y) is jointly normal
    with block covariance S = [[K, rho K], [rho K, K]] and J = z' B z / 2
    with B = [[0, W], [W, 0]], so E exp(tJ) = det(I - t S B)^(-1/2).  The
    cumulants come from high-precision differentiation of the log at 0.
    """
    m = kernel.size
    w = kernel.space.weights
    k = kernel.matrix
    s = np.block([[k, rho * k], [rho * k, k]])
    b = np.zeros((2 * m, 2 * m))
    b[:m, m:] = np.diag(w)
    b[m:, :m] = np.diag(w)
    sb = mp.matrix((s @ b).tolist())
    eye = mp.eye(2 * m)

    with mp.workdps(dps):
        cgf = lambda t: -mp.log(mp.det(eye - t * sb)) / 2
        return [float(mp.diff(cgf, 0, n)) for n in range(1, n_max + 1)]


@pytest.mark.parametrize("rho", [1.0, 0.5, 0.3])
def test_analytic_cumulants_match_exact_cgf(rho):
    r = np.random.default_rng(42)
    for _ in range(4):
        w = r.uniform(0.05, 0.4, size=5)
        a = r.normal(size=(5, 5))
        kern = Kernel(IndexSpace(r.uniform(size=(5, 1)), w), a @ a.T)
        got = analytic_cumulants(kern, rho, 6)
        want = exact_cumulants_via_cgf(kern, rho, 6)
        for n in range(6):
            assert got[n] == pytest.approx(want[n], rel=1e-10, abs=1e-12)


def test_first_cumulant_is_rho_times_trace(watson64):
    for rho in (0.0, 0.3, 1.0):
        kv = analytic_cumulants(watson64, rho, 1)
        tr1 = np.sum(watson64.space.weights * np.diag(watson64.matrix))
        assert kv[0] == pytest.approx(rho * tr1, abs=1e-15)
        assert kv.shape == (1,) and not kv.flags.writeable


def test_watson_mean_is_one_twelfth(watson64):
    # diag of the compensated kernel is identically 1/12
    kv = analytic_cumulants(watson64, 1.0, 1)
    assert kv[0] == pytest.approx(1.0 / 12, rel=1e-14)


def test_cumulants_additive_over_projection(watson64):
    """Projections are independent, so their cumulants add order by order."""
    from invdecomp.kernels import decompose_kernel

    parts = decompose_kernel(watson64)
    full = analytic_cumulants(watson64, 0.7, 5)
    split = sum(analytic_cumulants(p, 0.7, 5) for p in parts.values())
    assert np.allclose(split, full, rtol=1e-12)


# ----------------------------------------------------------- trace relation


def test_watson_relation_holds_for_compensated_kernel():
    k = builtin_kernel("watson", make_interval_grid(256))
    rep = watson_relation_check(k, 1.0, 6, tol=1e-3)
    assert rep["verdicts"]["cII"] and rep["verdicts"]["cIII"]
    for block in rep["per_irrep"]:
        assert max(block["cII_dev"]) < 1e-3
        assert max(block["cIII_dev"]) < 1e-3


def test_watson_relation_fails_for_bridge():
    k = builtin_kernel("bridge", make_interval_grid(128))
    rep = watson_relation_check(k, 1.0, 4, tol=1e-3)
    assert not rep["verdicts"]["cIII"]
    assert max(max(block["cIII_dev"]) for block in rep["per_irrep"]) > 0.1


def test_per_irrep_traces_sum_to_full():
    k = builtin_kernel("watson", make_interval_grid(128))
    rep = watson_relation_check(k, 1.0, 6)
    total = np.zeros(6)
    for block in rep["per_irrep"]:
        total += np.asarray(block["traces"])
    assert np.allclose(total, rep["full_traces"], rtol=1e-12)


def test_watson_report_dict_shape():
    k = builtin_kernel("watson", make_interval_grid(64))
    d = watson_relation_check(k, 1.0, 3)
    assert set(d["verdicts"]) == {"cII", "cIII"}
    assert set(d["tolerances"]) == {"cII", "cIII"}
    labels = [block["label"] for block in d["per_irrep"]]
    assert labels == ["triv", "sign"]
    for block in d["per_irrep"]:
        assert {"cumulants", "traces", "cII_dev", "cIII_dev"} <= set(block)
        assert len(block["cumulants"]) == 3
    assert isinstance(d["vacuous_orders"], list)


# -------------------------------------------------------------- z2 integral


def test_z2_first_order_grid_constant():
    """The n=1 anti-diagonal integral is exactly -1/(6 m^2) on an m-point
    midpoint grid (continuum value 0); order n=2 decays like m^-4."""
    second = {}
    for m in (128, 256):
        k = builtin_kernel("watson", make_interval_grid(m))
        rep = z2_condition_check(k, 4)
        assert rep["values"][0] == pytest.approx(-1.0 / (6 * m * m), abs=1e-15)
        assert max(abs(v) for v in rep["values"][1:]) < 1e-9
        assert not rep["ok"]  # the n=1 grid constant exceeds the default 1e-8
        second[m] = abs(rep["values"][1])
    assert second[128] / second[256] > 2.0**3.5  # ~m^-4 decay


def test_z2_passes_from_second_order():
    k = builtin_kernel("watson", make_interval_grid(256))
    rep = z2_condition_check(k, 6)
    assert all(abs(v) < 1e-8 for v in rep["values"][1:])


def _dense_z2(kernel, n_max):
    """sum_i w_i contract_power(K, n)[i, g.i] for n = 1..n_max: the dense oracle."""
    action = kernel.space.action
    perm = action.perm[1 - action.group.identity]
    idx = np.arange(kernel.size)
    w = kernel.space.weights
    return [float(np.sum(contract_power(kernel, n)[idx, perm] * w)) for n in range(1, n_max + 1)]


@pytest.mark.parametrize("m", [64, 256, 1024])
@pytest.mark.parametrize("name", ["watson", "bridge"])
def test_z2_values_match_the_contract_power_integrals(name, m):
    """The character sums over the isotypic spectra give the dense integrals to roundoff."""
    kernel = builtin_kernel(name, make_interval_grid(m))
    got = z2_condition_check(kernel, 6)["values"]
    assert np.max(np.abs(np.subtract(got, _dense_z2(kernel, 6)))) <= 1e-16


@st.composite
def reversal_invariant_kernels(draw):
    """A PSD user kernel and positive weights on m midpoints, both bitwise reversal-invariant."""
    m = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(m, m)) * rng.uniform(0.0, 2.0, size=m)  # spread the spectrum
    k = a @ a.T / m
    k = (k + k[::-1, ::-1]) / 2
    w = rng.uniform(0.1, 1.0, size=m)
    w = (w + w[::-1]) / 2
    grid = make_interval_grid(m)
    return Kernel(IndexSpace(grid.points, w / w.sum(), grid.action), k, name="user")


@settings(derandomize=True, max_examples=40, deadline=None)
@given(kernel=reversal_invariant_kernels())
def test_z2_values_match_the_contract_power_integrals_on_user_kernels(kernel):
    """Within 64 eps m lambda_max^n of the dense chain, on any weights the reversal keeps."""
    n_max = 6
    got = z2_condition_check(kernel, n_max)["values"]
    want = _dense_z2(kernel, n_max)
    lam = float(np.max(np.abs(kernel.eigenvalues)))
    for n in range(1, n_max + 1):
        bound = 64 * np.finfo(float).eps * kernel.size * lam**n
        assert abs(got[n - 1] - want[n - 1]) <= bound


def _not_invariant(grid):
    a = np.random.default_rng(3).normal(size=(grid.size, grid.size))
    return Kernel(grid, a @ a.T / grid.size, name="random")


def _weights_moved(grid):
    w = np.linspace(1.0, 2.0, grid.size)
    space = IndexSpace(grid.points, w / w.sum(), grid.action)
    return Kernel(space, np.ones((grid.size, grid.size)), name="constant")


@pytest.mark.parametrize("build", [_not_invariant, _weights_moved])
@pytest.mark.parametrize(
    "check",
    [lambda k: z2_condition_check(k, 4), lambda k: watson_relation_check(k, 1.0, 4)],
    ids=["z2_condition", "watson_relation"],
)
def test_symmetry_checks_refuse_what_the_action_does_not_preserve(grid64, build, check):
    """Both isotypic identities need the weighted operator to commute with the action."""
    with pytest.raises(KernelError, match="invariant|preserve the weights"):
        check(build(grid64))


# ---------------------------------------------------------------------- mgf


PINNED = [(0.5, 0.5), (1.0, 0.2), (0.3, 0.9)]


@pytest.mark.parametrize("lam,rho", PINNED)
def test_mgf_closed_vs_spectral(lam, rho):
    closed, spectral = mgf_watson(lam, rho, n_pairs=2000)
    assert abs(closed / spectral - 1) < 1e-3


@pytest.mark.parametrize("lam,rho", PINNED)
def test_mgf_spectral_converges_to_closed(lam, rho):
    closed, spec_lo = mgf_watson(lam, rho, n_pairs=500)
    _, spec_hi = mgf_watson(lam, rho, n_pairs=50000)
    assert abs(closed - spec_hi) < abs(closed - spec_lo)
    assert abs(closed / spec_hi - 1) < 1e-4


def test_mgf_uncorrelated_limit():
    # rho=1 collapses to the classical single-sample law x/sin(x), x = lam/sqrt(2)
    lam = 0.5
    x = lam / math.sqrt(2)
    closed, _ = mgf_watson(lam, 1.0)
    assert closed == pytest.approx(x / math.sin(x), rel=1e-12)


def test_mgf_small_lambda_expansion():
    # E exp(lam^2 J) = 1 + lam^2 rho/12 + O(lam^4)
    lam, rho = 0.01, 0.6
    closed, _ = mgf_watson(lam, rho)
    assert closed == pytest.approx(1 + lam**2 * rho / 12, abs=1e-7)
