"""The lag-profile torus paths against dense reference code.

``assemble_kernel`` and ``torus_watson`` evaluate a stationary kernel once
per lag and copy it into the matrix through one strided view
(``kernels._circulant``), the PSD check reads ``stationarity_spread``
through strided views, and ``_basis_quadratics`` takes every quadratic form
of a covariance's even part from one matrix product, built in row chunks.
The references below are the direct formulas: one cosine matrix per dual
vector, the (m, m, dim) lag array, a gather through an m x m table of lag
indices, a sort of all m^2 entries by lag class, and two mat-vecs per dual
vector.  Grids are 1-, 2- and 3-d, on unit and sheared lattice bases.
``fourier_factor``, the DFT's closed-form factor, is held to the kernel it
factors, its axis-by-axis product to its matrix product, and its columns to
the spectrum of the kernel's own PSD check, which for an exactly stationary
kernel is read from the same DFT: it is held to the dense ``eigvalsh``, and
every other matrix on a torus grid to that ``eigvalsh`` bitwise.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invdecomp import kernels
from invdecomp.kernels import Kernel, KernelError, _circulant, weighted_symmetric
from invdecomp.sampling import _clip_spectrum
from invdecomp.torus import (
    Lattice,
    _basis_quadratics,
    _characters,
    _chunk_width,
    assemble_kernel,
    fourier_factor,
    fourier_kl,
    stationarity_spread,
    torus_grid,
    torus_watson,
)

PROPS = settings(derandomize=True, max_examples=12, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def grids(draw):
    dim = draw(st.integers(1, 3))
    shape = [draw(st.integers(3, 12 if dim == 1 else 8 if dim == 2 else 5)) for _ in range(dim)]
    basis = np.eye(dim)
    if draw(st.booleans()):  # sheared: unit diagonal, drawn upper triangle
        for i in range(dim):
            for j in range(i + 1, dim):
                basis[i, j] = draw(st.floats(-1.5, 1.5))
    return torus_grid(Lattice(basis), shape)


def dense_assemble(spec, grid):
    out = np.zeros((grid.size, grid.size))
    for b, c in zip(spec.vectors, spec.fourier_coeffs):
        if not np.any(b):
            out += c
            continue
        phase = 2.0 * np.pi * (grid.frac @ b)
        out += c * np.cos(phase[:, None] - phase[None, :])
    return out


def lag_gather(profile, grid):
    """profile[(s - t) mod shape] gathered through an (m, m) table of flat lag indices,
    read from the grid's fractional coordinates."""
    shape = np.array(grid.shape)
    ints = np.rint(grid.frac * shape).astype(np.int32)
    lag = np.zeros((grid.size, grid.size), dtype=np.int32)
    for k, n in enumerate(grid.shape):
        lag *= n
        lag += (ints[:, None, k] - ints[None, :, k]) % n
    return profile[lag]


def dense_torus_watson(grid):
    shape = np.array(grid.shape)
    ints = np.rint(grid.frac * shape).astype(np.int64)
    u = ((ints[:, None, :] - ints[None, :, :]) % shape) / shape
    return ((u - 0.5) ** 2 / 2.0 - 1.0 / 24.0).prod(axis=2)


def sorted_spread(kernel, grid):
    shape = np.array(grid.shape)
    strides = np.cumprod((tuple(shape) + (1,))[::-1])[::-1][1:]
    ints = np.round(grid.frac * shape).astype(np.intp)
    key = (((ints[:, None, :] - ints[None, :, :]) % shape) @ strides).ravel()
    order = np.argsort(key, kind="stable")
    sk, sv = key[order], kernel.matrix.ravel()[order]
    bounds = np.flatnonzero(np.diff(sk)) + 1
    spread = 0.0
    for lo, hi in zip(np.concatenate([[0], bounds]), np.concatenate([bounds, [len(sk)]])):
        spread = max(spread, float(sv[lo:hi].max() - sv[lo:hi].min()))
    return spread


def looped_quadratics(cov, grid, spec):
    w = grid.weights
    cos_q, sin_q = [], []
    for b in spec.vectors:
        if not np.any(b):
            continue
        phase = 2.0 * np.pi * (grid.frac @ b)
        for fn, acc in ((np.cos, cos_q), (np.sin, sin_q)):
            v = fn(phase)
            v = v / np.sqrt(np.sum(v * v * w))
            acc.append(float((w * v) @ cov @ (w * v)))
    return {"cos": cos_q, "sin": sin_q}


@PROPS
@given(grid=grids(), seed=SEEDS)
def test_assemble_kernel_matches_the_per_vector_cosine_sum(grid, seed):
    spec = fourier_kl(torus_watson(grid).matrix[0], grid, (min(grid.shape) - 1) // 2)
    coeffs = np.random.default_rng(seed).uniform(0.0, 1.0, len(spec.vectors))
    spec = dataclasses.replace(spec, fourier_coeffs=coeffs)
    got = assemble_kernel(spec).matrix
    want = dense_assemble(spec, grid)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize(
    "shape, basis",
    [((1,), None), ((6,), None), ((5, 7), None), ((4, 5, 3), None), ((32, 32), None),
     ((6, 5), [[1.0, 0.7], [0.0, 1.3]])],
)
def test_circulant_is_the_lag_table_gather_bitwise(shape, basis):
    grid = torus_grid(Lattice(np.eye(len(shape)) if basis is None else np.array(basis)), shape)
    profile = np.random.default_rng(grid.size).normal(size=grid.size)
    got = _circulant(profile, grid.shape)
    assert got.flags.c_contiguous
    assert np.array_equal(got, lag_gather(profile, grid))


@PROPS
@given(grid=grids(), seed=SEEDS)
def test_assemble_kernel_is_the_symmetrized_lag_gather_bitwise(grid, seed):
    """The kernel a Kernel made of the gathered cosine sum by its symmetrizing copy,
    now built as one bitwise symmetric matrix that the Kernel keeps.  The cosine sum is the
    FFT of the coefficients, each split in halves between its index b and -b."""
    spec = fourier_kl(torus_watson(grid).matrix[0], grid, (min(grid.shape) - 1) // 2)
    coeffs = np.random.default_rng(seed).uniform(0.0, 1.0, len(spec.vectors))
    spec = dataclasses.replace(spec, fourier_coeffs=coeffs)
    halves = np.zeros(grid.shape)
    for b, c in zip(spec.vectors, coeffs):
        halves[tuple(b % grid.shape)] += c / 2
        halves[tuple(-b % grid.shape)] += c / 2
    profile = np.fft.fftn(halves).real.ravel()
    want = Kernel(grid, lag_gather(profile, grid)).matrix
    assert np.array_equal(assemble_kernel(spec).matrix, want)


@PROPS
@given(grid=grids())
def test_torus_watson_is_the_lag_formula_bitwise(grid):
    want = Kernel(grid, dense_torus_watson(grid)).matrix  # symmetrized as every Kernel
    assert np.array_equal(torus_watson(grid).matrix, want)


@PROPS
@given(grid=grids(), seed=SEEDS, scale=st.sampled_from([0.0, 1e-16, 1e-9, 1.0]))
def test_stationarity_spread_is_the_sorted_reference_bitwise(grid, seed, scale):
    """Stationary kernels (scale 0) and perturbations from roundoff size up."""
    a = np.random.default_rng(seed).normal(size=(grid.size, grid.size))
    matrix = torus_watson(grid).matrix + scale * (a @ a.T) / grid.size
    kernel = Kernel(grid, matrix)
    spread = stationarity_spread(kernel)
    assert spread == sorted_spread(kernel, grid)
    assert (spread == 0.0) == (scale == 0.0)


@PROPS
@given(grid=grids(), seed=SEEDS)
def test_basis_quadratics_match_the_per_vector_mat_vecs(grid, seed):
    """One product for all forms of the even part; summation order moves them by
    roundoff only.  The sine forms of an even covariance vanish up to roundoff, so
    both parts are held to the scale of the cosine forms, which are those of cov."""
    spec = fourier_kl(torus_watson(grid).matrix[0], grid, (min(grid.shape) - 1) // 2)
    a = np.random.default_rng(seed).normal(size=(grid.size, grid.size))
    cov = a @ a.T / grid.size
    even = 0.5 * (cov + cov[:, grid.action.perm[1]])
    got = _basis_quadratics(lambda index: cov[index], spec)
    want = looped_quadratics(even, grid, spec)
    scale = np.abs(np.array(want["cos"])).max(initial=0.0)
    for part in ("cos", "sin"):
        g, w = np.array(got[part]), np.array(want[part])
        assert g.shape == w.shape == (len(spec.vectors) - 1,)
        assert np.abs(g - w).max(initial=0.0) <= 1e-12 * scale


def test_basis_quadratics_in_row_chunks_are_the_dense_product_bitwise():
    """At m = 1024 the even covariance and its product with the basis are built in
    _chunk_width(m)-row chunks; the forms are bitwise those of the dense even covariance."""
    grid = torus_grid(Lattice(np.eye(2)), 32)
    k = torus_watson(grid).matrix
    spec = fourier_kl(k[0], grid, 10)
    w = grid.weights
    b = spec.vectors[1:]  # the zero vector is first
    basis = np.hstack(_characters(grid.shape, b))
    basis = basis / np.sqrt(w @ (basis * basis)) * w[:, None]
    even = 0.5 * (k + k[:, grid.action.perm[1]])
    q = np.sum(basis * (even @ basis), axis=0)
    assert grid.size > _chunk_width(grid.size)
    want = {"cos": q[: len(b)].tolist(), "sin": q[len(b) :].tolist()}
    assert _basis_quadratics(lambda index: k[index], spec) == want
    assert _basis_quadratics(torus_watson(grid).rows, spec) == want


@st.composite
def stationary_kernels(draw):
    """torus_watson, or its assembled cosine truncation, on a 1- or 2-d grid."""
    dim = draw(st.integers(1, 2))
    shape = [draw(st.integers(3, 16 if dim == 1 else 8)) for _ in range(dim)]
    basis = np.eye(dim)
    if dim == 2 and draw(st.booleans()):  # skew
        basis[0, 1] = draw(st.floats(-1.5, 1.5))
    grid = torus_grid(Lattice(basis), shape)
    kernel = torus_watson(grid)
    if draw(st.booleans()):
        cutoff = draw(st.integers(0, (min(shape) - 1) // 2))
        kernel = assemble_kernel(fourier_kl(kernel.matrix[0], grid, cutoff))
    return kernel


def _assembled(basis, shape, cutoff):
    grid = torus_grid(Lattice(np.array(basis, dtype=float)), shape)
    return assemble_kernel(fourier_kl(torus_watson(grid).matrix[0], grid, cutoff))


def _factor_matrix(l):
    """The m x r matrix of a ``FourierFactor``, column by column from its characters."""
    cos, sin = _characters(l.grid_shape, l.index)
    return np.where(l.sine, sin, cos) * l.scale


@settings(derandomize=True, max_examples=20, deadline=None)
@given(kernel=stationary_kernels())
@example(kernel=torus_watson(torus_grid(Lattice(np.eye(1)), 16)))
@example(kernel=torus_watson(torus_grid(Lattice(np.eye(1)), 15)))
@example(kernel=_assembled([[1.0, 0.7], [0.0, 1.0]], [5, 8], 2))
@example(kernel=torus_watson(torus_grid(Lattice(np.array([[1.0, -1.2], [0.0, 1.0]])), [7, 6])))
def test_fourier_factor_is_the_kl_factor(kernel):
    """L L^T = K, and L's columns carry the kept eigenvalues of the PSD check, ascending."""
    l = _factor_matrix(fourier_factor(kernel))
    kept = _clip_spectrum(kernel.eigenvalues)
    assert l.shape == (kernel.size, kept.size)
    scale = np.max(np.abs(kernel.matrix))
    assert np.max(np.abs(l @ l.T - kernel.matrix)) <= 1e-13 * scale
    # the columns are w-orthogonal, so column j's weighted square norm is its
    # eigenvalue; both it and eigvalsh's spectrum round to about m eps lambda_max
    col = kernel.space.weights @ (l * l)
    tol = kernel.size * np.finfo(float).eps * kept[-1]
    assert np.max(np.abs(col - kept)) <= tol
    assert np.all(np.diff(col) >= -tol)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(kernel=stationary_kernels(), seed=SEEDS)
@example(kernel=_assembled([[1.0, 0.7], [0.0, 1.0]], [5, 8], 2), seed=0)
@example(kernel=_assembled([[1.0, -1.2], [0.0, 1.0]], [7, 6], 2), seed=1)
def test_fourier_factor_axis_products_are_the_matrix_product(kernel, seed):
    """The folded axis products agree with L to 1e-14 of the largest path value."""
    l = fourier_factor(kernel)
    xi = np.random.default_rng(seed).standard_normal((l.shape[1], 17))
    got = l @ xi
    want = _factor_matrix(l) @ xi
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _dense_path_raises(*args, **kwargs):
    raise AssertionError("dense solve on the DFT path")


@settings(derandomize=True, max_examples=20, deadline=None)
@given(kernel=stationary_kernels())
@example(kernel=torus_watson(torus_grid(Lattice(np.eye(1)), 16)))
@example(kernel=torus_watson(torus_grid(Lattice(np.eye(1)), 15)))
@example(kernel=_assembled([[1.0, 0.7], [0.0, 1.0]], [5, 8], 2))
@example(kernel=torus_watson(torus_grid(Lattice(np.array([[1.0, -1.2], [0.0, 1.0]])), [7, 6])))
def test_stationary_kernel_spectrum_is_the_dft_of_its_profile(kernel):
    """An exactly stationary kernel's PSD check runs no eigvalsh and agrees with it
    to m eps lambda_max, the roundoff of the dense solve."""
    with mock.patch.object(kernels, "_syevd", _dense_path_raises):
        evals = Kernel(kernel.space, kernel.matrix).eigenvalues
    dense = np.linalg.eigvalsh(weighted_symmetric(kernel))
    assert np.array_equal(evals, kernel.eigenvalues)
    assert np.max(np.abs(evals - dense)) <= kernel.size * np.finfo(float).eps * dense[-1]


@PROPS
@given(grid=grids(), seed=SEEDS, bump=st.sampled_from([None, 2.0**-40, 1e-3]))
def test_other_kernels_on_a_torus_keep_the_dense_spectrum_bitwise(grid, seed, bump):
    """A symmetric matrix that is not bitwise stationary goes through eigvalsh:
    a random Gram matrix, or torus_watson with one diagonal entry raised."""
    rng = np.random.default_rng(seed)
    if bump is None:
        a = rng.standard_normal((grid.size, grid.size))
        mat = a @ a.T
    else:
        mat = np.array(torus_watson(grid).matrix)
        i = rng.integers(grid.size)
        mat[i, i] += bump * np.max(np.abs(mat))  # a PSD change
    kernel = Kernel(grid, mat)
    assert stationarity_spread(kernel) > 0.0
    assert np.array_equal(kernel.eigenvalues, np.linalg.eigvalsh(weighted_symmetric(kernel)))


@settings(derandomize=True, max_examples=12, deadline=None)
@given(kernel=stationary_kernels())
def test_stationary_indefinite_profile_is_rejected_on_the_dft_path(kernel):
    """Lowering a stationary profile by a constant keeps it bitwise stationary and
    makes the constant mode's eigenvalue negative: the DFT path rejects it with
    the PSD check's message and the dense minimum eigenvalue."""
    mat = kernel.matrix - 2.0 * np.max(np.abs(kernel.matrix))
    with mock.patch.object(kernels, "_syevd", _dense_path_raises):
        with pytest.raises(KernelError, match=r"not PSD \(min eigenvalue -") as err:
            Kernel(kernel.space, mat)
    rw = np.sqrt(kernel.space.weights)
    dense = np.linalg.eigvalsh(rw[:, None] * mat * rw[None, :])
    got = float(str(err.value).split("min eigenvalue ")[1].rstrip(")"))
    assert got == pytest.approx(dense[0], rel=1e-3)  # the message keeps 4 digits
