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
from unittest import mock

import numpy as np
import pytest

from invdecomp import cli, kernels, torus
from invdecomp.groups import character_table, project_path
from invdecomp.kernels import Kernel, KernelError
from invdecomp.sampling import (
    BLOCK,
    CHUNK,
    _block_generator,
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
    """The PSD check stores the spread; the torus check and stationarity_spread read it.
    A lag kernel (torus_watson's and the assembled truncation the runner's check samples)
    is circulant by construction and takes no spread pass; a dense kernel of the same
    matrix, as a ``user_matrix`` file gives, takes one."""
    calls = []
    real = kernels._lag_spread
    counted = lambda k, shape: calls.append(shape) or real(k, shape)
    monkeypatch.setattr(kernels, "_lag_spread", counted)
    grid = torus_grid(Lattice(np.eye(2)), 6)
    kernel = torus_watson(grid)
    truncated = assemble_kernel(fourier_kl(kernel.rows([0])[0], grid, 2))
    rep = torus_watson_check(truncated, 1000, seed=3)
    assert rep["stationarity_spread"] == stationarity_spread(kernel) == 0.0
    assert kernel.stationarity_spread == 0.0
    assert calls == []
    dense = Kernel(grid, np.array(kernel.matrix))
    assert stationarity_spread(dense) == 0.0
    assert stationarity_spread(dense) == 0.0
    assert calls == [(6, 6)]


# --------------------------------------------------------- fourier analysis


def test_fourier_coefficients_match_closed_form(circle16, kernel16):
    spec = fourier_kl(kernel16.matrix[0], circle16, 7)
    for (v,), eig in zip(spec.vectors, spec.eigenvalues):
        assert eig == pytest.approx(a_exact(v, 16), rel=1e-12)
    assert spec.sine_dev < 1e-15
    assert spec.cutoff == 7
    assert spec.grid is circle16


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
    asm = assemble_kernel(spec)
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
    return assemble_kernel(fourier_kl(kernel.matrix[0], grid, cutoff))


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


def _factor_matrix(l):
    """The m x r matrix of a ``FourierFactor``, column by column from its characters."""
    cos, sin = _characters(l.grid_shape, l.index)
    return np.where(l.sine, sin, cos) * l.scale


@pytest.mark.parametrize("case", FACTORS.values(), ids=list(FACTORS))
def test_fourier_factor_by_axes_is_the_matrix_product(case):
    """The folded axis products agree with the m x r matrix to roundoff, on 1-, 2-
    and 3-d grids, skew lattices and full rank."""
    l = fourier_factor(_torus_kernel(*case))
    xi = np.random.default_rng(5).standard_normal((l.shape[1], 300))
    got = l @ xi
    want = _factor_matrix(l) @ xi
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


# the self-conjugate indices (b = -b) each factor keeps: the zero index, and on a
# full-rank factor every b with 2 b = 0, whose coordinates are 0 or, on an even axis, n_k/2
SELF_CONJUGATE = {"2d6x6-cut2": 1, "2d16x16-full": 4, "skew12x10-cut3": 1, "skew7x6-full": 2, "1d256": 2}
PARITY_FACTORS = {name: (FACTORS[name], n) for name, n in SELF_CONJUGATE.items()} | {
    "1d15-full": (([[1.0]], 15, None), 1),
    "3d5x7x3-full": ((np.eye(3), [5, 7, 3], None), 1),
}


@pytest.mark.parametrize("case, self_conjugate", PARITY_FACTORS.values(), ids=list(PARITY_FACTORS))
def test_fourier_factor_sine_columns_are_odd_and_cosine_columns_even(case, self_conjugate):
    """What the torus check's cross-covariance rests on: applied to the identity, the
    factor's sine columns are odd and its cosine columns even under the grid's
    negation, to ten ulp of each column's scale, so the odd part of L xi is
    L_sin xi_sin and the even part L_cos xi_cos.  A self-conjugate index (b = -b)
    gives a cosine column of +-1 times its scale."""
    kernel = _torus_kernel(*case)
    l = fourier_factor(kernel)
    cols = l @ np.eye(l.shape[1])
    neg, sine = kernel.space.action.perm[1], l.sine
    tol = 10 * ULP * l.scale
    assert np.all(np.abs(cols[neg][:, sine] + cols[:, sine]) <= tol[sine])
    assert np.all(np.abs(cols[neg][:, ~sine] - cols[:, ~sine]) <= tol[~sine])
    selfconj = np.all(2 * l.index % l.grid_shape == 0, axis=1)
    assert np.count_nonzero(selfconj) == self_conjugate
    assert not np.any(sine[selfconj])
    assert np.all(np.abs(np.abs(cols[:, selfconj]) - l.scale[selfconj]) <= tol[selfconj])


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


def test_torus_watson_check_report(kernel16):
    rep = torus_watson_check(kernel16, 2000, seed=5)
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


# the runner's torus check of ``kernel`` at ``cutoff``, less its ``cutoff`` and ``kernel_spec``
_RUNNER_REPORT = """
from invdecomp import cli

def runner_report(kernel, cutoff, count, seed):
    cfg = {"kernel": {"params": {"cutoff": cutoff}}, "samples": count, "seed": seed}
    rep = cli._run_torus_watson({"kernel": kernel}, cli.DEFAULT_TOLERANCES, cfg)
    del rep["cutoff"], rep["kernel_spec"]
    return rep
"""
_HERE: dict = {}
exec(_RUNNER_REPORT, _HERE)
_runner_report = _HERE["runner_report"]


def test_runner_reports_the_check_of_the_assembled_truncation(kernel16, circle16):
    """``cli._run_torus_watson`` samples the run's kernel truncated at its cutoff: its report
    is ``torus_watson_check`` of ``assemble_kernel(spec)``, plus the even part's expansion of
    that kernel, the cutoff and the spec."""
    cfg = {
        "kernel": {"name": "torus_watson", "params": {"cutoff": 7}},
        "grid": {"kind": "torus", "n": [16]},
        "samples": 2000,
        "seed": 5,
    }
    got = cli._run_torus_watson({"kernel": kernel16}, cli.DEFAULT_TOLERANCES, cfg)
    spec = fourier_kl(kernel16.matrix[0], circle16, 7)
    kernel = assemble_kernel(spec)
    q = torus._basis_quadratics(kernel.rows, spec)
    sin_max = float(np.max(q["sin"])) if q["sin"] else 0.0
    want = torus_watson_check(kernel, 2000, 5)
    want["even_part_expansion"] = {"cos_quadratics": q["cos"], "sin_quadratics_max": sin_max}
    assert got == dict(want, cutoff=7, kernel_spec=spec.to_dict())
    assert _runner_report(kernel16, 7, 2000, 5) == want
    assert got["ok"]
    exp = got["even_part_expansion"]
    assert len(exp["cos_quadratics"]) == 7
    assert exp["sin_quadratics_max"] < 1e-20


def test_torus_watson_check_is_deterministic(kernel16, circle16):
    a = torus_watson_check(kernel16, 1500, seed=3)
    b = torus_watson_check(kernel16, 1500, seed=3)
    assert a == b


@pytest.mark.parametrize("count", [999, 1, 0, -5])
def test_torus_watson_check_rejects_a_bad_count_before_the_stationarity_gate(
    kernel16, circle16, count
):
    """A kernel that fails the stationarity gate still raises for a count below
    ``MIN_SAMPLES``, as a stationary one does, and returns no report that records the
    count; a stationary one raises before it builds its factor."""
    moved = kernel16.matrix.copy()
    moved[0, 1] = moved[1, 0] = moved[0, 1] + 1e-3
    kernel = Kernel(circle16, moved, "moved")
    assert kernel.stationarity_spread > 1e-10
    assert torus_watson_check(kernel, 1000, seed=1)["ok"] is False
    with pytest.raises(ValueError, match="^need at least 1000 samples per side$"):
        torus_watson_check(kernel, count, seed=1)
    with mock.patch("invdecomp.torus.fourier_factor", side_effect=AssertionError("ran before the check")):
        with pytest.raises(ValueError, match="^need at least 1000 samples per side$"):
            torus_watson_check(kernel16, count, seed=1)


def _haswell_torus_check(on_haswell, n, cutoff):
    """The runner's torus check of torus_watson on the square n x n torus at ``cutoff``, seed
    1961 and 1000 samples, as ``_runner_report`` gives it, run by ``on_haswell``: the report,
    through its JSON."""
    code = _RUNNER_REPORT + f"""
import json
import numpy as np
from invdecomp.torus import Lattice, torus_grid, torus_watson
kernel = torus_watson(torus_grid(Lattice(np.eye(2)), {n}))
print(json.dumps(runner_report(kernel, {cutoff}, 1000, 1961)))
"""
    return json.loads(on_haswell(code))


def test_torus_watson_check_golden_digest(on_haswell):
    """Pins which normal drives which column of ``fourier_factor``, ties included.

    On the square 6 x 6 torus at cutoff 2 the kept spectrum has ties of 4 and
    8 (the frequencies (a, b), (b, a) and their negations); the columns are in
    ascending order with ties in index order, and any other order gives other
    samples and another report.  Pinned on OpenBLAS's Haswell kernels: the factor, and so
    which normal drives which column, is bitwise the same on every family (the factor test
    below), but the paths and their reductions are BLAS products, which another family
    rounds otherwise.
    """
    rep = _haswell_torus_check(on_haswell, 6, 2)
    assert rep["ok"]
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == "4fbc45f4e060b5ea7d3909ce3e19d094980d3da8238d104ac59e7f712b90c977"


def test_torus_watson_check_golden_digest_16x16(on_haswell):
    """Pins the folded axis products' arithmetic on a larger box: on the 16 x 16
    torus at cutoff 5 the factor applies a 6 x 11 box axis by axis, with the
    column order of the digest above.  Pinned on OpenBLAS's Haswell kernels, as above.

    ``cross_cov_max`` is left out of the digest: its Gram and factor products
    sum in an order that OpenBLAS picks by its thread count (on SkylakeX the last
    digit moved, 4.949688816968446e-4 at one thread and ...445 at two, with
    bitwise equal paths).
    """
    rep = _haswell_torus_check(on_haswell, 16, 5)
    assert rep["ok"]
    assert rep.pop("cross_cov_max") == pytest.approx(4.5513388885462763e-4, rel=1e-14)
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == "d8c05968aab13ce7e495dd1163b50545c63707f0a0cb2957c1c0487101183004"


# the bytes of the factor that the runner's torus check samples, at 1000 samples
_RUNNER_FACTOR = """
import hashlib
from invdecomp import cli, torus

def runner_factor_digest(cfg):
    made, real = [], torus.fourier_factor
    torus.fourier_factor = lambda kernel: made.append(real(kernel)) or made[-1]
    try:
        results, _ = cli.execute_checks(dict(cfg, samples=1000), cli.DEFAULT_TOLERANCES)
    finally:
        torus.fourier_factor = real
    assert results["torus_watson"]["status"] == "passed"
    (l,) = made
    return hashlib.sha256(b"".join(a.tobytes() for a in (l.index, l.sine, l.scale))).hexdigest()
"""


def test_runner_torus_factor_is_the_same_bytes_on_haswell(on_haswell):
    """The runner's torus factor (its kept indices, sine flags and scales) is bitwise the
    same under OpenBLAS's Haswell kernels as in this process, whatever family it loaded: the
    truncation's quadrature, its synthesis and the kernel's spectrum are FFTs, which no BLAS
    computes.  On a square torus axis-swapped frequencies tie in exact arithmetic, so a
    spectrum rounded by the family would order the tied columns, and so draw the samples,
    by the family.  The torus-1d and torus-2d presets, a sheared 12 x 10 torus and the
    32 x 32 torus at cutoff 10."""
    def torus_config(n, cutoff, **grid):
        return {
            "kernel": {"name": "torus_watson", "params": {"cutoff": cutoff}},
            "grid": {"kind": "torus", "n": n, **grid},
            "seed": 1,
            "checks": ["stationarity", "torus_watson"],
        }

    configs = [
        cli.PRESETS["torus-1d"],
        cli.PRESETS["torus-2d"],
        torus_config([12, 10], 3, basis=[[1.0, 0.0], [0.5, 1.0]]),
        torus_config([32, 32], 10),
    ]
    here = {}
    exec(_RUNNER_FACTOR, here)
    want = [here["runner_factor_digest"](cfg) for cfg in configs]
    got = on_haswell(_RUNNER_FACTOR + f"print(*map(runner_factor_digest, {configs!r}))")
    assert got.split() == want


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
    rep = torus_watson_check(kernel16, count, seed=17)
    ref = _materialized_check(kernel16, circle16, count, 17)
    assert rep["cross_cov_max"] == pytest.approx(ref.pop("cross_cov_max"), rel=1e-12)
    for key, val in ref.items():
        assert rep[key] == val, key


def test_streamed_cross_covariance_sums_split_slices_in_order_bitwise():
    """The cross-covariance is summed from the normals: per block, one product of the
    sine normals' transpose and the cosine normals per SPLIT_COLUMNS slice, added in
    order, whatever the chunk width, then the blocks in order, then
    L_sin[half] G L_cos[orbits]^T / count with the factor's columns from ``l`` applied
    to the identity."""
    grid = torus_grid(Lattice(np.eye(2)), 16)
    kernel = torus_watson(grid)
    count = BLOCK + 1000  # a partial block, whose last slice is partial too
    # at seed 16 slices of 64, 128, 256 (the chunk width), 512 or BLOCK columns each
    # give another maximum
    rep = torus_watson_check(kernel, count, seed=16)
    l = fourier_factor(kernel)
    sine = l.sine
    gram = np.zeros((np.count_nonzero(sine), np.count_nonzero(~sine)))
    for a in range(0, count, BLOCK):
        xi = np.empty((min(BLOCK, count - a), l.shape[1]))
        _block_generator(16, 0, a).standard_normal(out=xi)
        block = np.zeros_like(gram)
        for c in range(0, xi.shape[0], SPLIT_COLUMNS):
            cols = slice(c, c + SPLIT_COLUMNS)
            block += xi[cols][:, sine].T @ xi[cols][:, ~sine]
        gram += block
    neg, points = grid.action.perm[1], np.arange(grid.size)
    half, orbits = np.flatnonzero(points < neg), np.flatnonzero(points <= neg)
    columns = l @ np.eye(l.shape[1])
    cross = columns[np.ix_(half, sine)] @ gram @ columns[np.ix_(orbits, ~sine)].T
    assert rep["cross_cov_max"] == float(np.max(np.abs(cross / count)))


# a rank-deficient kernel on a skew lattice, and a full-rank one on the circle
GRAM_CASES = {
    "skew8x6-cut2": (([[1.0, 0.4], [0.0, 1.0]], [8, 6], 2), False),
    "1d64-full": (([[1.0]], 64, None), True),
}


@pytest.mark.parametrize("case, full_rank", GRAM_CASES.values(), ids=list(GRAM_CASES))
def test_gram_cross_covariance_is_the_materialized_product(case, full_rank, monkeypatch):
    """``cross_cov_max`` from the normals' Gram agrees with the materialized
    x1 @ x2.T to rel 1e-12, and every other field of the report is that of the
    materialized ensemble bitwise; the report is bitwise the same at 1 and 2 workers."""
    kernel = _torus_kernel(*case)
    assert (fourier_factor(kernel).shape[1] == kernel.size) == full_rank
    count = 2 * BLOCK + 40  # two workers draw the two full blocks at once
    reports = []
    for workers in ("1", "2"):
        monkeypatch.setenv("INVDECOMP_THREADS", workers)
        reports.append(torus_watson_check(kernel, count, seed=17))
    assert json.dumps(reports[0]) == json.dumps(reports[1])
    ref = _materialized_check(kernel, kernel.space, count, 17)
    assert reports[0]["cross_cov_max"] == pytest.approx(ref.pop("cross_cov_max"), rel=1e-12)
    for key, val in ref.items():
        assert reports[0][key] == val, key


def test_check_part_energies_have_the_law_of_the_eigh_factor_parts():
    """The check draws through the DFT factor (the materialized reference above
    is bitwise its ensemble); its part energies have the law of those of paths
    drawn through the eigh factor of ``covariance_factor``, on a skew lattice
    and a rank-deficient kernel."""
    grid = torus_grid(Lattice(np.array([[1.0, 0.4], [0.0, 1.0]])), [8, 6])
    kernel = assemble_kernel(fourier_kl(torus_watson(grid).matrix[0], grid, 2))
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
    serial = torus_watson_check(kernel16, count, seed=4)
    monkeypatch.setenv("INVDECOMP_THREADS", "3")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = torus_watson_check(kernel16, count, seed=4)
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
        rep = torus_watson_check(kernel, count, seed=17)
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
        serial = torus_watson_check(kernel, count, seed=4)
        monkeypatch.setenv("INVDECOMP_THREADS", "3")
        sys.setswitchinterval(1e-6)
        try:
            threaded = torus_watson_check(kernel, count, seed=4)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial, kernel.size


def test_streamed_check_never_holds_the_ensemble():
    grid = torus_grid(Lattice(np.eye(1)), 256)
    kernel = torus_watson(grid)
    count = 3 * BLOCK
    tracemalloc.start()
    try:
        torus_watson_check(kernel, count, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.size * count * 8


def test_streamed_check_holds_one_chunk_and_one_split_slice(monkeypatch):
    """The check's peak allocation, its kernel assembled in the call, at m = 1024.

    Bounded by two kernel matrices -- the assembled kernel before the draws,
    the factor's m x r columns (r <= m) and the m/2 x m/2 cross-covariance
    after them -- plus SPLIT_COLUMNS r doubles, the worker's sine and cosine
    normal buffers, and 2 m SPLIT_COLUMNS doubles for one chunk's paths, parts
    and normals.  A whole drawn block (4 m SPLIT_COLUMNS doubles) on top of the
    kernel does not fit.
    """
    monkeypatch.setenv("INVDECOMP_THREADS", "1")
    grid = torus_grid(Lattice(np.eye(2)), 32)
    spec = fourier_kl(torus_watson(grid).matrix[0], grid, 10)
    m, r = grid.size, fourier_factor(assemble_kernel(spec)).shape[1]
    tracemalloc.start()
    try:
        rep = torus_watson_check(assemble_kernel(spec), BLOCK + 100, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["ok"]
    assert r < m
    assert peak < (2 * m * m + SPLIT_COLUMNS * r + 2 * m * SPLIT_COLUMNS) * 8


@pytest.mark.parametrize("dim, n, cutoff", [(2, 32, 10), (1, 256, 40)], ids=["32x32", "256"])
def test_more_blocks_grow_the_heap_peak_by_the_per_sample_arrays_alone(dim, n, cutoff, monkeypatch):
    """Two more blocks raise the check's peak allocation by its four per-sample
    arrays (e, e1, e2 and the odd values at the fixed points) and 32 KiB at most.
    Each block's r_sin x r_cos Gram partial (389 KB at 32 x 32, cutoff 10) is
    released before the next block draws, and the worker keeps its factor copy
    across its blocks: a copy made per block recomputes ``FourierFactor._axes``
    while the worker's buffers are held (+0.7 MB on the 256-point circle at
    cutoff 40, the torus-1d preset's)."""
    monkeypatch.setenv("INVDECOMP_THREADS", "1")
    grid = torus_grid(Lattice(np.eye(dim)), n)
    spec = fourier_kl(torus_watson(grid).matrix[0], grid, cutoff)
    peaks = []
    for blocks in (1, 3):
        tracemalloc.start()
        try:
            assert torus_watson_check(assemble_kernel(spec), blocks * BLOCK, seed=1)["ok"]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 4 * 2 * BLOCK * 8 + 32 * 1024


def test_even_part_expansion_holds_two_basis_arrays_before_the_first_draw(monkeypatch):
    """Up to the check's first draw the runner's steps (row 0 read and truncated, the
    truncation assembled, its even part expanded, the check called) hold at most the m x m
    kernel, the expansion's m x 2p basis and one more array of that size (the cosines and
    sines it is stacked from, or its squares), and one chunk's rows: each chunk's quadratic
    forms are added into their sums as they are made, so no third m x 2p array (16.0 MiB at
    32 x 32, cutoff 10, in 0.8.10; 14.9 MiB in 0.8.11)."""
    monkeypatch.setenv("INVDECOMP_THREADS", "1")
    grid = torus_grid(Lattice(np.eye(2)), 32)
    kernel = torus_watson(grid)
    spec = fourier_kl(kernel.rows([0])[0], grid, 10)
    m, width = grid.size, _chunk_width(grid.size)
    basis = 2 * np.count_nonzero(np.any(spec.vectors, axis=1))

    class FirstDraw(Exception):
        pass

    def stop(*args):
        raise FirstDraw

    monkeypatch.setattr(torus, "draw_chunks", stop)
    tracemalloc.start()
    try:
        with pytest.raises(FirstDraw):
            _runner_report(kernel, 10, BLOCK + 100, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (m * m + 2 * m * basis + m * width) * 8


def test_full_rank_check_takes_the_factor_columns_a_chunk_at_a_time(monkeypatch):
    """At m = r = 1024 the check's peak allocation, its kernel given, stays below
    2 m r + 8 m width doubles: the factor's m x r columns, their odd and even row
    gathers (m r / 2 together), the m/2 x r_cos partial product and the m/2 x m/2
    cross-covariance (m r / 2 together), and one chunk's eight m-row arrays.  The
    columns are applied ``width`` identity columns at a time; the whole r x r
    identity and the apply's partial products at r columns do not fit."""
    monkeypatch.setenv("INVDECOMP_THREADS", "1")
    kernel = _torus_kernel(np.eye(2), 32)
    m, width = kernel.size, _chunk_width(kernel.size)
    r = fourier_factor(kernel).shape[1]
    tracemalloc.start()
    try:
        rep = torus_watson_check(kernel, BLOCK + 100, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["ok"]
    assert r == m
    assert peak < (2 * m * r + 8 * m * width) * 8


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
    grid = spec32[1]
    kernel, count = torus_watson(grid), BLOCK + 104
    assert _chunk_width(grid.size) < BLOCK // 16
    narrow = _runner_report(kernel, 3, count, seed=5)
    monkeypatch.setattr("invdecomp.torus._chunk_width", lambda m: BLOCK // 16)
    assert _runner_report(kernel, 3, count, seed=5) == narrow


def test_streamed_check_holds_one_chunk_of_the_cache_width(spec32, monkeypatch):
    """The check's peak allocation at m = 1024 is below two kernel matrices, the
    worker's sine and cosine normal buffers (SPLIT_COLUMNS r doubles) and eight
    m-row arrays of one chunk's width: normals, partial products, paths, parts
    and their squares and gathers.  A chunk of BLOCK // 16 columns does not fit."""
    monkeypatch.setenv("INVDECOMP_THREADS", "1")
    spec, grid = spec32
    m, width = grid.size, _chunk_width(grid.size)
    r = fourier_factor(assemble_kernel(spec)).shape[1]
    tracemalloc.start()
    try:
        rep = torus_watson_check(assemble_kernel(spec), BLOCK + 100, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["ok"]
    assert peak < (2 * m * m + SPLIT_COLUMNS * r + 8 * m * width) * 8


def test_check_of_an_assembled_kernel_holds_no_m_by_m_array_while_it_samples(spec32, monkeypatch):
    """At m = 1024 the check of the assembled truncation, a lag kernel, takes the factor
    from it: at its first draw no traced array is an m x m matrix.  Its peak stays below
    one m x m matrix, the worker's sine and cosine normal buffers (SPLIT_COLUMNS r doubles)
    and eight m-row arrays of one chunk's width."""
    monkeypatch.setenv("INVDECOMP_THREADS", "1")
    spec, grid = spec32
    m, width = grid.size, _chunk_width(grid.size)
    r = fourier_factor(assemble_kernel(spec)).shape[1]
    largest = []

    def first_draw(*args):
        if not largest:
            largest.append(max(t.size for t in tracemalloc.take_snapshot().traces))
        return draw_chunks(*args)

    monkeypatch.setattr("invdecomp.torus.draw_chunks", first_draw)
    tracemalloc.start()
    try:
        rep = torus_watson_check(assemble_kernel(spec), BLOCK + 100, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["ok"]
    assert 0 < largest[0] < m * m * 8
    assert peak < (m * m + SPLIT_COLUMNS * r + 8 * m * width) * 8
