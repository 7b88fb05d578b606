"""Acceptance gate: one test per acceptance criterion, at the stated
tolerances and scales.  Each test prints as a single pass/fail line under
``pytest -v``.  Monte Carlo criteria are seed-pinned; tolerance constants
live next to the assertions they govern so the gate is auditable top to
bottom."""

import json

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

import invdecomp.sampling as smp
from invdecomp.cumulants import (
    analytic_cumulants,
    cumulant_coefficient,
    mgf_watson,
    z2_condition_check,
)
from invdecomp.groups import (
    character_inner,
    character_table,
    cyclic_group,
    direct_product,
    project_path,
)
from invdecomp.kernels import (
    builtin_kernel,
    decompose_kernel,
    make_interval_grid,
    make_product_grid,
    project_kernel,
    weighted_traces,
)
from invdecomp.spectral import canonical_decomposition, check_eigenspace_invariance, eigendecompose
from invdecomp.torus import Lattice, fourier_kl, torus_grid, torus_watson, torus_watson_check


def test_criterion_01_character_orthogonality():
    z2, z3, z4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    groups = [z2, z3, z4, direct_product(z2, z2), direct_product(z2, z3)]
    for group in groups:
        table = character_table(group)
        for a in table.irreps:
            for b in table.irreps:
                want = 1.0 if a.label == b.label else 0.0
                assert abs(character_inner(a.values, b.values) - want) < 1e-12


def test_criterion_02_decomposition_identities():
    setups = [
        ("bridge", make_interval_grid(256)),
        ("watson", make_interval_grid(256)),
        ("torus_watson", make_interval_grid(256)),
        ("sheet_tied", make_product_grid([make_interval_grid(16)] * 2)),
        ("sheet_compensated", make_product_grid([make_interval_grid(16)] * 2)),
    ]
    for name, space in setups:
        kern = builtin_kernel(name, space)
        table = character_table(space.action.group)
        # paths: sum of projections recovers every sampled path
        ens = smp.sample(kern, 64, seed=20)
        parts = [project_path(ens.samples, space.action, ir) for ir in table.irreps]
        assert np.abs(sum(parts) - ens.samples).max() < 1e-10, name
        # kernels: diagonal blocks sum back, off-diagonal blocks vanish
        blocks = decompose_kernel(kern)
        total = sum(b.matrix for b in blocks.values())
        assert np.abs(total - kern.matrix).max() < 1e-10, name
        for pi in table.irreps:
            for sigma in table.irreps:
                if pi.label != sigma.label:
                    cross = project_kernel(kern, pi, sigma)
                    assert np.abs(cross).max() < 1e-10, (name, pi.label, sigma.label)


def test_criterion_03_watson_spectral_relation():
    grid = make_interval_grid(512)
    tr_b = weighted_traces(builtin_kernel("bridge", grid), 6)
    tr_v = weighted_traces(builtin_kernel("watson", grid), 6)
    for n in range(1, 7):
        lhs, rhs = tr_v[n - 1], 2.0 * 4.0**-n * tr_b[n - 1]
        assert abs(lhs / rhs - 1) < 1e-3, f"n={n}"
        # independent eigenvalue oracle: power sums of 1/(pi^2 k^2) and of
        # the doubled 1/(4 pi^2 k^2) sequence, via the zeta function
        oracle_b = float(mp.zeta(2 * n)) / np.pi ** (2 * n)
        oracle_v = 2 * float(mp.zeta(2 * n)) / (4**n * np.pi ** (2 * n))
        assert abs(tr_b[n - 1] / oracle_b - 1) < 1e-3, f"n={n}"
        assert abs(tr_v[n - 1] / oracle_v - 1) < 1e-3, f"n={n}"


def test_criterion_04_prop9_z2_condition():
    kern = builtin_kernel("watson", make_interval_grid(512))
    rep = z2_condition_check(kern, 6, tol=1e-8)
    violations = {
        n + 1: v for n, v in enumerate(rep["values"]) if abs(v) > 1e-8
    }
    assert not violations, (
        f"z2 integral exceeds 1e-8 at grid 512 for orders {violations}; "
        f"the n=1 value is the exact midpoint-grid constant -1/(6*512^2)"
    )


def test_criterion_05_cn_oracle():
    rng = np.random.default_rng(2005)
    for _ in range(20):
        g = rng.normal(size=(5, 5))
        a = g @ g.T / 5
        m = mp.matrix(a.tolist())
        with mp.workdps(40):
            cgf = lambda t: -mp.log(mp.det(mp.eye(5) - 2 * t * m)) / 2
            for n in range(1, 7):
                exact = float(mp.diff(cgf, 0, n))
                claimed = cumulant_coefficient(n) * np.trace(
                    np.linalg.matrix_power(a, n)
                )
                assert claimed == pytest.approx(exact, rel=1e-10, abs=1e-12)


def test_criterion_06_cumulants_vs_monte_carlo():
    kern = builtin_kernel("watson", make_interval_grid(32))
    rels = (0.01, 0.03, 0.10)
    for i, rho in enumerate((0.0, 0.5, 1.0)):
        j = smp.pair_functional(kern, rho, 200_000, seed=1961 + i)
        ana = analytic_cumulants(kern, rho, 8)
        noise = np.sqrt(smp.kstat_variances(ana, 200_000))
        for n in range(3):
            got = stats.kstat(j, n + 1)
            tol = max(rels[n] * abs(ana[n]), 5 * noise[n])
            assert abs(got - ana[n]) < tol, f"rho={rho} kappa_{n+1}"


def test_criterion_07_duplication_identity():
    rep = smp.duplication_check(
        {"grid": 256, "samples": 100_000, "rho": 1.0, "seed": 1961, "ks_tol": 0.01}
    )
    assert rep["comparison"]["ks_distance"] < 0.01
    assert rep["pass"]["cumulants"], rep["comparison"]["cumulant_gaps"]
    assert rep["mean_lhs"] == pytest.approx(1.0 / 12, rel=0.01)
    assert rep["mean_rhs"] == pytest.approx(1.0 / 12, rel=0.01)
    assert rep["ok"]


def test_criterion_08_polarized_watson():
    rep = smp.duplication_check(
        {"grid": 256, "samples": 100_000, "rho": 0.5, "seed": 3202, "ks_tol": 0.01}
    )
    assert rep["comparison"]["ks_distance"] < 0.01
    assert rep["pass"]["cumulants"]
    assert rep["ok"]


def test_criterion_09_quadruplication():
    rep = smp.quadruplication_check(
        {"grid": 32, "samples": 50_000, "rho": 0.5, "seed": 4104, "ks_tol": 0.015}
    )
    assert rep["comparison"]["ks_distance"] < 0.015
    assert rep["cumulant_orders_checked"] >= 3
    assert rep["pass"]["cumulants"]
    assert rep["ok"]


def test_criterion_10_mgf_check():
    kern = builtin_kernel("watson", make_interval_grid(64))
    for i, (lam, rho) in enumerate([(0.5, 0.5), (1.0, 0.2), (0.3, 0.9)]):
        closed, spectral = mgf_watson(lam, rho, n_pairs=2000)
        assert abs(closed / spectral - 1) < 1e-3
        j = smp.pair_functional(kern, rho, 100_000, seed=905 + i)
        mc = float(np.mean(np.exp(lam * lam * j)))
        assert abs(mc / spectral - 1) < 0.02


def test_criterion_11_kl_spectra():
    grid = make_interval_grid(1024)
    k = np.arange(1, 11)
    for name, oracle, mult in (
        ("bridge", 1.0 / (np.pi**2 * k**2), 1),
        ("watson", 1.0 / (4 * np.pi**2 * k**2), 2),
    ):
        spec = eigendecompose(builtin_kernel(name, grid))
        head = spec.eigenvalues[: 10 * mult].reshape(10, mult)
        assert np.abs(head[:, 0] / oracle - 1).max() < 0.01
        if mult == 2:  # degenerate pairs agree and are clustered together
            assert np.abs(head[:, 1] / head[:, 0] - 1).max() < 1e-9
            assert all(b - a == 2 for a, b in spec.clusters[:10])
        inv = check_eigenspace_invariance(spec, tol=1e-5)
        assert max(inv["per_cluster"][:10]) <= 1e-8
        # full canonical decomposition: dimension sums exact everywhere;
        # residuals at the stated 1e-8 on the clusters under test (deeper
        # clusters are limited by eigensolver conditioning, not structure)
        splits = canonical_decomposition(spec, tol=1e-5)
        assert sum(sum(s.dims.values()) for s in splits) == 1024
        assert max(s.max_residual for s in splits[:10]) <= 1e-8


def test_criterion_12_torus():
    grid = torus_grid(Lattice(np.eye(1)), 128)
    kern = torus_watson(grid)
    # entrywise identity with the compensated-bridge covariance formula
    s = grid.frac.ravel()
    explicit = (
        np.minimum(s[:, None], s[None, :])
        - (s[:, None] + s[None, :]) / 2
        + (s[:, None] - s[None, :]) ** 2 / 2
        + 1.0 / 12
    )
    assert np.abs(kern.matrix - explicit).max() < 1e-12
    spec = fourier_kl(kern.matrix[0], grid, 63)
    assert spec.sine_dev <= 1e-10
    rep = torus_watson_check(kern, 100_000, seed=1312, ks_tol=0.02)
    assert rep["energy_residuals"]["halved_sum"] <= 1e-10
    assert rep["ks_parts"] < 0.02
    # both factor conventions are measured and reported
    assert set(rep["energy_residuals"]) == {
        "halved_sum",
        "halved_quarter_verbatim",
        "unhalved_quarter",
    }
    assert rep["conventions_satisfied"] == ["halved_sum", "unhalved_quarter"]
    assert rep["ok"]


def _mc_signature():
    """Serialized results of one reduced-scale run of every MC component."""
    sig = {}
    k32 = builtin_kernel("watson", make_interval_grid(32))
    j = smp.pair_functional(k32, 0.5, 4132, seed=11)  # straddles a block edge
    sig["functional"] = j.tobytes().hex()
    sig["kstats"] = [repr(stats.kstat(j, n)) for n in (1, 2, 3)]
    sig["mgf_mc"] = repr(float(np.mean(np.exp(0.25 * j))))
    sig["duplication"] = smp.duplication_check(
        {"grid": 64, "samples": 3000, "rho": 1.0, "seed": 1961}
    )
    sig["quadruplication"] = smp.quadruplication_check(
        {"grid": 8, "samples": 2500, "rho": 0.5, "seed": 4104}
    )
    g16 = torus_grid(Lattice(np.eye(1)), 16)
    sig["torus"] = torus_watson_check(torus_watson(g16), 3000, seed=5)
    return json.dumps(sig, sort_keys=True)


def test_criterion_13_determinism_across_workers(monkeypatch):
    seen = {}
    for threads in ("1", "2", "8"):
        monkeypatch.setenv("INVDECOMP_THREADS", threads)
        seen[threads] = _mc_signature()
    assert seen["1"] == seen["2"]
    assert seen["1"] == seen["8"]
