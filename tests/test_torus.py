"""Stationary kernels on flat tori: lattices, Fourier coefficients, parity.

The left-endpoint grid j/n makes the compensated-quadratic profile exactly
circulant, so every Fourier-side quantity has a closed form:

    a_0 = 1/(12 n^2),   a_v = 1/(4 n^2 sin^2(pi v / n))   (0 < v < n/2),

obtained by summing the continuum coefficients 1/(4 pi^2 (v + jn)^2) over all
aliases j (a trigamma reflection).  The continuum value 1/(4 pi^2 v^2) is the
(pi v/n) -> 0 limit.  These are the oracles below; the FFT cross-check is
independent of all of that.
"""

import hashlib
import json
import sys
import tracemalloc

import numpy as np
import pytest

from invdecomp import kernels
from invdecomp.groups import character_table, project_path
from invdecomp.kernels import Kernel, KernelError
from invdecomp.sampling import (
    BLOCK,
    CHUNK,
    compare_distributions,
    draw_chunks,
    ks_statistic,
    null_ks_critical,
    sample,
)
from invdecomp.torus import (
    SPLIT_COLUMNS,
    Lattice,
    TorusKernelSpec,
    _characters,
    _chunk_width,
    assemble_kernel,
    dual_lattice,
    fourier_factor,
    fourier_kl,
    parity_decompose,
    stationarity_spread,
    torus_grid,
    torus_watson,
    torus_watson_check,
)

ULP = 2.0**-52


def a_exact(v, n):
    """Exact circulant eigenvalue of the compensated profile on n points."""
    if v % n == 0:
        return 1.0 / (12 * n * n)
    return 1.0 / (4 * n * n * np.sin(np.pi * v / n) ** 2)


@pytest.fixture(scope="module")
def circle16():
    return torus_grid(Lattice(np.eye(1)), 16)


@pytest.fixture(scope="module")
def kernel16(circle16):
    return torus_watson(circle16)


# ----------------------------------------------------------------- lattices


def test_dual_lattice_inverse_transpose():
    b = np.array([[2.0, 0.0], [0.5, 1.0]])
    dual = dual_lattice(Lattice(b))
    assert np.allclose(b @ dual.basis.T, np.eye(2), atol=1e-14)
    assert np.allclose(dual_lattice(dual).basis, b, atol=1e-14)


def test_dual_of_unit_lattice_is_unit():
    assert np.array_equal(dual_lattice(Lattice(np.eye(3))).basis, np.eye(3))


def test_torus_grid_layout(circle16):
    assert circle16.shape == (16,)
    assert np.array_equal(circle16.frac.ravel(), np.arange(16) / 16)
    assert np.allclose(circle16.weights, 1.0 / 16)
    # negation action: j -> -j mod n, fixing 0 and n/2
    perm = circle16.action.perm[1]
    assert np.array_equal(perm, (-np.arange(16)) % 16)


def test_torus_grid_weights_carry_covolume():
    g = torus_grid(Lattice(np.diag([2.0, 1.0])), [4, 4])
    assert g.weights.sum() == pytest.approx(2.0)


def test_torus_grid_dim_mismatch():
    with pytest.raises(KernelError):
        torus_grid(Lattice(np.eye(1)), [8, 8])


# ------------------------------------------------------------ torus kernel


def test_torus_watson_profile(kernel16, circle16):
    u = circle16.frac.ravel()
    lag = np.mod(u[:, None] - u[None, :], 1.0)
    want = (lag - 0.5) ** 2 / 2 - 1.0 / 24
    assert np.abs(kernel16.matrix - want).max() < 1e-15


def test_torus_watson_is_exactly_circulant(kernel16):
    m = kernel16.matrix
    assert stationarity_spread(kernel16) == 0.0
    rolled = np.array([np.roll(m[0], i) for i in range(16)])
    assert np.array_equal(m, rolled)


def test_stationarity_spread_detects_non_stationary(circle16):
    r = np.random.default_rng(1)
    a = r.normal(size=(16, 16))
    k = Kernel(circle16, a @ a.T / 16)
    assert stationarity_spread(k) > 0.01


def test_stationarity_spread_is_computed_once_per_kernel(monkeypatch):
    """The PSD check stores the spread; the torus check and stationarity_spread read it."""
    calls = []
    real = kernels._lag_spread
    counted = lambda k, shape: calls.append(shape) or real(k, shape)
    monkeypatch.setattr(kernels, "_lag_spread", counted)
    grid = torus_grid(Lattice(np.eye(2)), 6)
    kernel = torus_watson(grid)
    rep = torus_watson_check(fourier_kl(kernel.matrix[0], grid, 2), grid, 1000, seed=3)
    assert rep["stationarity_spread"] == stationarity_spread(kernel) == 0.0
    assert kernel.stationarity_spread == 0.0
    assert calls == [(6, 6)] * 2  # torus_watson's kernel and the assembled one


# --------------------------------------------------------- fourier analysis


def test_fourier_coefficients_match_closed_form(circle16, kernel16):
    spec = fourier_kl(kernel16.matrix[0], circle16, 7)
    for (v,), eig in zip(spec.vectors, spec.eigenvalues):
        assert eig == pytest.approx(a_exact(v, 16), rel=1e-12)
    assert spec.sine_dev < 1e-15
    assert spec.cutoff == 7
    assert spec.grid_shape == (16,)


def test_fourier_tends_to_continuum():
    """The grid coefficient exceeds 1/(4 pi^2 v^2) by the factor
    (x/sin x)^2 with x = pi v/n, i.e. a relative gap of x^2/3 + O(x^4)."""
    n = 4096
    g = torus_grid(Lattice(np.eye(1)), n)
    spec = fourier_kl(torus_watson(g).matrix[0], g, 5)
    for (v,), eig in zip(spec.vectors, spec.eigenvalues):
        if v != 0:
            cont = 1.0 / (4 * np.pi**2 * v**2)
            gap = eig / cont - 1
            assert gap == pytest.approx((np.pi * v / n) ** 2 / 3, rel=0.02)


def test_fourier_matches_fft_oracle():
    """vol * FFT(profile)/m at the representative vectors, any lattice."""
    for basis, n in ((np.eye(1), 32), (np.diag([2.0, 1.0]), (8, 8))):
        g = torus_grid(Lattice(basis), n)
        k = torus_watson(g)
        vol = abs(np.linalg.det(basis))
        spec = fourier_kl(k.matrix[0], g, 3)
        fhat = np.fft.fftn(k.matrix[0].reshape(g.shape)).real / g.size
        for vec, eig in zip(spec.vectors, spec.eigenvalues):
            idx = tuple(v % s for v, s in zip(np.atleast_1d(vec), g.shape))
            assert eig == pytest.approx(vol * fhat[idx], rel=1e-12, abs=1e-18)


def test_2d_coefficients_factor():
    g = torus_grid(Lattice(np.eye(2)), [8, 8])
    spec = fourier_kl(torus_watson(g).matrix[0], g, 3)
    for (v1, v2), eig in zip(spec.vectors, spec.eigenvalues):
        assert eig == pytest.approx(a_exact(v1, 8) * a_exact(v2, 8), rel=1e-12)


def test_fourier_rejects_aliased_cutoff(circle16, kernel16):
    with pytest.raises(KernelError, match="Nyquist"):
        fourier_kl(kernel16.matrix[0], circle16, 8)


def test_fourier_rejects_shape_mismatch(circle16):
    with pytest.raises(KernelError):
        fourier_kl(np.zeros(15), circle16, 3)


def test_assemble_kernel_truncation(circle16, kernel16):
    spec = fourier_kl(kernel16.matrix[0], circle16, 7)
    asm = assemble_kernel(spec, circle16)
    # only the unpaired Nyquist mode v=8 is dropped
    err = np.abs(asm.matrix - kernel16.matrix).max()
    assert err == pytest.approx(a_exact(8, 16), rel=1e-10)
    assert stationarity_spread(asm) < 1e-15


def test_spec_dict_round_trip(circle16, kernel16):
    spec = fourier_kl(kernel16.matrix[0], circle16, 5)
    d = spec.to_dict()
    assert set(d) == {"basis", "dual_basis", "grid", "cutoff", "sine_dev", "coefficients"}
    assert d["grid"] == [16]
    assert len(d["coefficients"]) == len(spec.eigenvalues)
    entry = d["coefficients"][1]
    assert set(entry) == {"v*", "a_v", "fourier_coeff"}


# ------------------------------------------------------------ fourier factor


def _torus_kernel(basis, shape, cutoff=None):
    """torus_watson on the grid, or its truncation at ``cutoff``."""
    grid = torus_grid(Lattice(np.array(basis, dtype=float)), shape)
    kernel = torus_watson(grid)
    if cutoff is None:
        return kernel
    return assemble_kernel(fourier_kl(kernel.matrix[0], grid, cutoff), grid)


FACTORS = {
    "1d256": ([[1.0]], 256, None),
    "1d256-cut40": ([[1.0]], 256, 40),
    "2d6x6-cut2": (np.eye(2), 6, 2),
    "2d16x16-cut5": (np.eye(2), 16, 5),
    "2d32x32-cut10": (np.eye(2), 32, 10),
    "2d16x16-full": (np.eye(2), 16, None),
    "3d8x8x8-cut3": (np.eye(3), 8, 3),
    "skew12x10-cut3": ([[1.0, 0.7], [0.0, 1.0]], [12, 10], 3),
    "skew7x6-full": ([[1.0, -1.2], [0.0, 1.0]], [7, 6], None),
}


@pytest.mark.parametrize("case", FACTORS.values(), ids=list(FACTORS))
def test_fourier_factor_by_axes_is_the_matrix_product(case):
    """The folded axis products agree with the m x r matrix to roundoff, on 1-, 2-
    and 3-d grids, skew lattices and full rank."""
    l = fourier_factor(_torus_kernel(*case))
    xi = np.random.default_rng(5).standard_normal((l.shape[1], 300))
    got = l @ xi
    want = np.asarray(l) @ xi
    assert got.shape == (l.shape[0], 300)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_fourier_factor_reads_the_dft_of_the_psd_check(monkeypatch):
    """The factor takes the kernel's cached ``dft``: one DFT per kernel, the PSD check's."""
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return fftn(a, *args, **kwargs)

    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", counted)
    kernel = torus_watson(torus_grid(Lattice(np.eye(2)), [8, 6]))
    assert calls == [(8, 6)]
    l = fourier_factor(kernel)
    fourier_factor(kernel)
    assert calls == [(8, 6)]
    assert np.array_equal(np.sort(kernel.dft[0]), kernel.eigenvalues) and l.shape[1] > 0


def test_fourier_factor_of_the_zero_kernel_draws_zero_paths():
    grid = torus_grid(Lattice(np.eye(2)), [6, 4])
    l = fourier_factor(Kernel(grid, np.zeros((grid.size, grid.size))))
    assert l.shape == (24, 0)
    assert np.array_equal(l @ np.empty((0, 5)), np.zeros((24, 5)))
    assert l._axes[1] == (0, 0)


BOXES = {
    "1d256": (129,),
    "1d256-cut40": (41,),
    "2d6x6-cut2": (3, 5),
    "2d16x16-cut5": (6, 11),
    "2d32x32-cut10": (11, 21),
}


@pytest.mark.parametrize("name", BOXES)
def test_fourier_factor_folds_each_sine_onto_its_cosine_partner(name):
    """A sine column moves to the im slot of the negation of its index, so the box
    holds the smaller of b and -b: (c + 1) (2c + 1)^(d-1) at cutoff c.  ``l @ xi``
    never builds the m x r matrix."""
    l = fourier_factor(_torus_kernel(*FACTORS[name]))
    xi = np.random.default_rng(6).standard_normal((l.shape[1], 40))
    assert (l @ xi).shape == (l.shape[0], 40)
    assert l._axes[1] == BOXES[name]
    assert "dense" not in vars(l)


def test_characters_are_those_of_the_index_group():
    """Exact turns: an index and its alias b + n_k e_k give bitwise equal characters,
    which are exp(2 pi i <b, a/n>) to roundoff on the grid points of a skew lattice."""
    grid = torus_grid(Lattice(np.array([[1.0, 0.7], [0.0, 1.0]])), [12, 10])
    index = np.stack(np.meshgrid(np.arange(-5, 6), np.arange(-4, 5)), axis=-1).reshape(-1, 2)
    cos, sin = _characters(grid.shape, index)
    assert cos.shape == sin.shape == (grid.size, len(index))
    for k, n in enumerate(grid.shape):
        alias = _characters(grid.shape, index + n * np.eye(2, dtype=int)[k])
        assert np.array_equal(alias[0], cos) and np.array_equal(alias[1], sin)
    want = np.exp(2j * np.pi * (grid.frac @ index.T))
    assert np.max(np.abs(cos + 1j * sin - want)) <= 1e-14


# -------------------------------------------------------------------- parity


def test_parity_split_is_exact_in_the_odd_part(kernel16, circle16):
    ens = sample(kernel16, 400, seed=2)
    odd, even = parity_decompose(ens)
    perm = circle16.action.perm[1]
    # the odd part is bitwise antisymmetric and vanishes at the fixed points
    assert np.array_equal(odd.samples[perm], -odd.samples)
    assert np.all(odd.samples[0] == 0.0)
    assert np.all(odd.samples[8] == 0.0)


def test_parity_split_is_even_and_complete_to_one_ulp(kernel16, circle16):
    """The complement picks up one rounding, bounded by an ulp of the
    largest of the three values involved; bitwise equality is not
    achievable in floats and is not claimed."""
    ens = sample(kernel16, 400, seed=2)
    odd, even = parity_decompose(ens)
    x, x1, x2 = ens.samples, odd.samples, even.samples
    scale = np.maximum(np.abs(x), np.maximum(np.abs(x1), np.abs(x2)))
    scale = np.maximum(scale, 1e-300)
    perm = circle16.action.perm[1]
    assert (np.abs(x2[perm] - x2) / scale).max() <= ULP
    assert (np.abs(x1 + x2 - x) / scale).max() <= ULP


def test_parity_matches_character_projection(kernel16, circle16):
    ens = sample(kernel16, 64, seed=9)
    odd, _ = parity_decompose(ens)
    table = character_table(circle16.action.group)
    sign = next(ir for ir in table.irreps if ir.label == "sign")
    proj = project_path(ens.samples, circle16.action, sign)
    assert np.array_equal(proj, odd.samples)


def test_parity_energy_split(kernel16, circle16):
    ens = sample(kernel16, 400, seed=11)
    odd, even = parity_decompose(ens)
    w = circle16.weights

    def energy(v):
        return np.einsum("is,i,is->s", v, w, v)

    total = energy(ens.samples)
    split = energy(odd.samples) + energy(even.samples)
    assert (np.abs(split - total) / np.abs(total)).max() < 1e-10
    cross = np.einsum("is,i,is->s", odd.samples, w, even.samples)
    assert np.abs(cross).max() < 1e-12


# ------------------------------------------------------------ bundled check


def test_torus_watson_check_report(kernel16, circle16):
    rep = torus_watson_check(kernel16, circle16, 2000, seed=5)
    assert rep["ok"]
    assert rep["fixed_point_indices"] == [0, 8]
    assert rep["fixed_point_max_odd_value"] == 0.0
    assert rep["stationarity_spread"] == 0.0
    assert rep["ks_parts"] < rep["ks_tol"]
    res = rep["energy_residuals"]
    # the halved-parts convention duplicates correctly; the verbatim
    # quarter-scaling does not, and the report says so rather than hiding it
    assert res["halved_sum"] < 1e-10
    assert res["unhalved_quarter"] < 1e-10
    assert res["halved_quarter_verbatim"] > 0.1
    assert rep["conventions_satisfied"] == ["halved_sum", "unhalved_quarter"]
    # the unhalved energies are 4 e1, 4 e2 exactly, so that residual is halved_sum's
    assert res["unhalved_quarter"] == res["halved_sum"]


def test_torus_watson_check_accepts_spec(kernel16, circle16):
    spec = fourier_kl(kernel16.matrix[0], circle16, 7)
    rep = torus_watson_check(spec, circle16, 2000, seed=5)
    assert rep["ok"]
    exp = rep["even_part_expansion"]
    assert len(exp["cos_quadratics"]) == 7
    assert exp["sin_quadratics_max"] < 1e-20


def test_torus_watson_check_is_deterministic(kernel16, circle16):
    a = torus_watson_check(kernel16, circle16, 1500, seed=3)
    b = torus_watson_check(kernel16, circle16, 1500, seed=3)
    assert a == b


def test_torus_watson_check_golden_digest():
    """Pins which normal drives which column of ``fourier_factor``, ties included.

    On the square 6 x 6 torus at cutoff 2 the kept spectrum has ties of 4 and
    8 (the frequencies (a, b), (b, a) and their negations); the columns are in
    ascending order with ties in index order, and any other order gives other
    samples and another report.
    """
    grid = torus_grid(Lattice(np.eye(2)), 6)
    spec = fourier_kl(torus_watson(grid).matrix[0], grid, 2)
    rep = torus_watson_check(spec, grid, 1000, seed=1961)
    assert rep["ok"]
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == "02b10224ebc4a1910c347471422fdf0f36385a14d13211510c70f62e0b4efb6a"


def test_torus_watson_check_golden_digest_16x16():
    """Pins the folded axis products' arithmetic on a larger box: on the 16 x 16
    torus at cutoff 5 the factor applies a 6 x 11 box axis by axis, with the
    column order of the digest above.

    ``cross_cov_max`` is left out of the digest: its product of the parts
    sums in an order that OpenBLAS picks by its thread count (here the last
    digit moves between one and two threads, with bitwise equal paths).
    """
    grid = torus_grid(Lattice(np.eye(2)), 16)
    spec = fourier_kl(torus_watson(grid).matrix[0], grid, 5)
    rep = torus_watson_check(spec, grid, 1000, seed=1961)
    assert rep["ok"]
    assert rep.pop("cross_cov_max") == pytest.approx(4.949688816968446e-4, rel=1e-14)
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == "8681b3d297fbbff8d935bc04ea82e602cb456a3caf162c9c29c20bf08150b133"


# ------------------------------------------------------ streamed check


def _materialized_check(kernel, grid, count, seed):
    """The check's sample statistics from the whole ensemble at once, drawn
    with the check's factor.

    The energies are reduced a block at a time: a threaded BLAS splits a wider
    product across its threads at other columns (OpenBLAS with two threads
    splits 4,132 columns at 2,066 and takes columns 2,064-2,065 by its tail
    kernel), which moves those columns' energies at roundoff.
    """
    ens = sample(kernel, count, seed, factor=fourier_factor(kernel))
    x1, x2 = (p.samples for p in parity_decompose(ens))
    w = grid.weights

    def energy(x):
        return np.concatenate([w @ (x[:, a : a + BLOCK] ** 2) for a in range(0, count, BLOCK)])

    e = energy(ens.samples)
    e1, e2 = energy(x1), energy(x2)
    u1, u2 = energy(2.0 * x1), energy(2.0 * x2)
    fixed = np.flatnonzero(grid.action.perm[1] == np.arange(grid.size))
    return {
        "energy_residuals": {
            "halved_sum": float(np.max(np.abs(e - (e1 + e2)))),
            "halved_quarter_verbatim": float(np.max(np.abs(e - 0.25 * (e1 + e2)))),
            "unhalved_quarter": float(np.max(np.abs(e - 0.25 * (u1 + u2)))),
        },
        "fixed_point_max_odd_value": float(np.max(np.abs(x1[fixed]))),
        "cross_cov_max": float(np.max(np.abs((x1 @ x2.T) / count))),
        "ks_parts": compare_distributions(e1, e2)["ks_distance"],
        "part_kstats": {
            "odd": compare_distributions(e1, e2)["kstats_a"],
            "even": compare_distributions(e1, e2)["kstats_b"],
        },
    }


def test_streamed_check_matches_the_materialized_ensemble(kernel16, circle16):
    count = BLOCK + 36  # the second block is partial
    rep = torus_watson_check(kernel16, circle16, count, seed=17)
    ref = _materialized_check(kernel16, circle16, count, 17)
    assert rep["cross_cov_max"] == pytest.approx(ref.pop("cross_cov_max"), rel=1e-12)
    for key, val in ref.items():
        assert rep[key] == val, key


def test_streamed_cross_covariance_sums_split_slices_in_order_bitwise():
    """Drawing a chunk of columns at a time leaves the cross-covariance's summation as it
    was: one product per SPLIT_COLUMNS slice of each block, added in order."""
    grid = torus_grid(Lattice(np.eye(2)), 16)
    kernel = torus_watson(grid)
    count = BLOCK + 1000  # a partial block, whose last slice is partial too
    # at seed 0 slices of 64, 128, 512 or BLOCK columns each give another maximum
    rep = torus_watson_check(kernel, grid, count, seed=0)
    ens = sample(kernel, count, 0, factor=fourier_factor(kernel))
    x1, x2 = (p.samples for p in parity_decompose(ens))
    neg, points = grid.action.perm[1], np.arange(grid.size)
    half, orbits = np.flatnonzero(points < neg), np.flatnonzero(points <= neg)
    cross = np.zeros((half.size, orbits.size))
    for a in range(0, count, BLOCK):
        block = np.zeros_like(cross)
        for c in range(a, min(a + BLOCK, count), SPLIT_COLUMNS):
            cols = slice(c, min(c + SPLIT_COLUMNS, a + BLOCK, count))
            block += x1[half, cols] @ x2[orbits, cols].T
        cross += block
    assert rep["cross_cov_max"] == float(np.max(np.abs(cross / count)))


def test_check_part_energies_have_the_law_of_the_eigh_factor_parts():
    """The check draws through the DFT factor (the materialized reference above
    is bitwise its ensemble); its part energies have the law of those of paths
    drawn through the eigh factor of ``covariance_factor``, on a skew lattice
    and a rank-deficient kernel."""
    grid = torus_grid(Lattice(np.array([[1.0, 0.4], [0.0, 1.0]])), [8, 6])
    kernel = assemble_kernel(fourier_kl(torus_watson(grid).matrix[0], grid, 2), grid)
    count = 20_000
    check = sample(kernel, count, seed=8, factor=fourier_factor(kernel))
    ref = sample(kernel, count, seed=9)
    assert check.samples.shape == ref.samples.shape
    assert fourier_factor(kernel).shape[1] < kernel.size
    w = grid.weights
    for a, b in zip(parity_decompose(check), parity_decompose(ref)):
        d = ks_statistic(w @ (a.samples**2), w @ (b.samples**2))
        assert d < null_ks_critical(count)


def test_streamed_check_does_not_depend_on_the_worker_count(kernel16, circle16, monkeypatch):
    """More workers than cores, with frequent thread switches: waves of three
    blocks and then two must add up exactly as the serial run does."""
    count = 4 * BLOCK + 100
    monkeypatch.setenv("INVDECOMP_THREADS", "1")
    serial = torus_watson_check(kernel16, circle16, count, seed=4)
    monkeypatch.setenv("INVDECOMP_THREADS", "3")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = torus_watson_check(kernel16, circle16, count, seed=4)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


@pytest.fixture(scope="module")
def cut_tori():
    """The 16 x 16 torus at cutoff 5 and the 256-point circle at cutoff 40: a
    folded box of 6 x 11 and one of 41 frequencies, several chunks per block."""
    return [_torus_kernel(*FACTORS[name]) for name in ("2d16x16-cut5", "1d256-cut40")]


def test_streamed_check_matches_the_materialized_ensemble_on_the_axis_products(cut_tori):
    count = BLOCK + 36  # the second block is partial
    for kernel in cut_tori:
        rep = torus_watson_check(kernel, kernel.space, count, seed=17)
        ref = _materialized_check(kernel, kernel.space, count, 17)
        assert rep["cross_cov_max"] == pytest.approx(ref.pop("cross_cov_max"), rel=1e-12)
        for key, val in ref.items():
            assert rep[key] == val, (kernel.size, key)


def test_streamed_check_on_the_axis_products_does_not_depend_on_the_worker_count(
    cut_tori, monkeypatch
):
    count = 4 * BLOCK + 100
    interval = sys.getswitchinterval()
    for kernel in cut_tori:
        monkeypatch.setenv("INVDECOMP_THREADS", "1")
        serial = torus_watson_check(kernel, kernel.space, count, seed=4)
        monkeypatch.setenv("INVDECOMP_THREADS", "3")
        sys.setswitchinterval(1e-6)
        try:
            threaded = torus_watson_check(kernel, kernel.space, count, seed=4)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial, kernel.size


def test_streamed_check_never_holds_the_ensemble():
    grid = torus_grid(Lattice(np.eye(1)), 256)
    kernel = torus_watson(grid)
    count = 3 * BLOCK
    tracemalloc.start()
    try:
        torus_watson_check(kernel, grid, count, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.size * count * 8


def test_streamed_check_holds_one_chunk_and_one_split_slice(monkeypatch):
    """The check's peak allocation, kernel assembled inside it, at m = 1024.

    Bounded by two kernel matrices -- the assembled kernel, the factor (m x r,
    r <= m) and the two (m/2 x m/2) cross-covariance sums -- plus
    3 m SPLIT_COLUMNS doubles: the worker's odd and even slice buffers (one)
    and one DRAW-column chunk's paths, parts and normals (under two).  A
    whole drawn block (4 m SPLIT_COLUMNS doubles) does not fit.
    """
    monkeypatch.setenv("INVDECOMP_THREADS", "1")
    grid = torus_grid(Lattice(np.eye(2)), 32)
    spec = fourier_kl(torus_watson(grid).matrix[0], grid, 10)
    m = grid.size
    tracemalloc.start()
    try:
        rep = torus_watson_check(spec, grid, BLOCK + 100, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["ok"]
    assert peak < (2 * m * m + 3 * m * SPLIT_COLUMNS) * 8


@pytest.mark.parametrize(
    "m, want", [(36, 256), (256, 256), (257, 128), (1024, 64), (CHUNK // 8 + 1, 8)]
)
def test_chunk_width_is_the_largest_power_of_two_in_the_cache_budget(m, want):
    width = _chunk_width(m)
    assert width == want
    assert width & (width - 1) == 0
    assert width * m <= CHUNK or width == 8
    assert width == BLOCK // 16 or 2 * width * m > CHUNK
    assert 8 <= width <= BLOCK // 16
    assert SPLIT_COLUMNS % width == 0


def test_every_grid_of_at_most_256_points_keeps_the_widest_chunk():
    assert {_chunk_width(m) for m in range(1, 257)} == {BLOCK // 16}


@pytest.fixture(scope="module")
def spec32():
    grid = torus_grid(Lattice(np.eye(2)), 32)
    return fourier_kl(torus_watson(grid).matrix[0], grid, 3), grid


def test_torus_report_does_not_depend_on_the_chunk_width(spec32, monkeypatch):
    """At m = 1024 the check draws 64 columns at a time; its report is that of the
    widest chunk, BLOCK // 16, in a partial block whose last chunk is 40 wide."""
    spec, grid = spec32
    count = BLOCK + 104
    assert _chunk_width(grid.size) < BLOCK // 16
    narrow = torus_watson_check(spec, grid, count, seed=5)
    monkeypatch.setattr("invdecomp.torus._chunk_width", lambda m: BLOCK // 16)
    assert torus_watson_check(spec, grid, count, seed=5) == narrow


def test_streamed_check_holds_one_chunk_of_the_cache_width(spec32, monkeypatch):
    """The check's peak allocation at m = 1024 is below two kernel matrices, the
    worker's odd and even slice buffers (m SPLIT_COLUMNS doubles) and eight m-row
    arrays of one chunk's width: normals, partial products, paths, parts and
    their squares and gathers.  A chunk of BLOCK // 16 columns does not fit."""
    monkeypatch.setenv("INVDECOMP_THREADS", "1")
    spec, grid = spec32
    m, width = grid.size, _chunk_width(grid.size)
    tracemalloc.start()
    try:
        rep = torus_watson_check(spec, grid, BLOCK + 100, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["ok"]
    assert peak < (2 * m * m + m * SPLIT_COLUMNS + 8 * m * width) * 8


def test_spec_driven_check_holds_no_kernel_while_it_samples(spec32, monkeypatch):
    """At m = 1024 the check assembles its kernel, takes the factor and the even
    part's expansion from it and releases it: at its first draw no traced array is
    an m x m matrix.  Its peak stays below one m x m matrix, the worker's odd and
    even slice buffers (m SPLIT_COLUMNS doubles) and eight m-row arrays of one
    chunk's width."""
    monkeypatch.setenv("INVDECOMP_THREADS", "1")
    spec, grid = spec32
    m, width = grid.size, _chunk_width(grid.size)
    largest = []

    def first_draw(*args):
        if not largest:
            largest.append(max(t.size for t in tracemalloc.take_snapshot().traces))
        return draw_chunks(*args)

    monkeypatch.setattr("invdecomp.torus.draw_chunks", first_draw)
    tracemalloc.start()
    try:
        rep = torus_watson_check(spec, grid, BLOCK + 100, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["ok"]
    assert 0 < largest[0] < m * m * 8
    assert peak < (m * m + m * SPLIT_COLUMNS + 8 * m * width) * 8
