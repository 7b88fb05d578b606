"""Lattices, stationary kernels on flat tori, and the parity split.

A full-rank lattice defines a torus; stationary even kernels on it expand in
cosines of dual-lattice frequencies, which is simultaneously their weighted
eigenexpansion.  Sampling such a kernel and splitting each path into odd and
even parts about negation yields two uncorrelated (hence independent)
Gaussian processes whose quadratic functionals can be compared in law.

A stationary kernel on a grid torus is (block-)circulant over the grid's index group, so
``kernels._stationary`` keeps only its m lags, and their DFT (``Kernel.dft``) gives both
its spectrum, which its PSD check reads, and the closed-form factor that samples it
(:func:`fourier_factor`): neither runs an eigendecomposition.  A kernel that is not bitwise
stationary is solved densely.  :func:`torus_watson_check` samples the kernel it is given
through that factor, :func:`_chunk_width` columns at a time, so on a lag kernel the torus
path builds no m x m array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from invdecomp.groups import GroupAction, cyclic_group
from invdecomp.kernels import (
    CHUNK,
    TORUS_KERNEL,
    IndexSpace,
    Kernel,
    KernelError,
    _circle_profile,
    _negation,
    _note,
    _reuse,
    _stationary,
)
from invdecomp.sampling import (
    BLOCK,
    PathEnsemble,
    _check_key,
    _clip_spectrum,
    _each_block,
    compare_distributions,
    draw_chunks,
    null_ks_critical,
)

__all__ = [
    "Lattice",
    "dual_lattice",
    "TorusGrid",
    "torus_grid",
    "TorusKernelSpec",
    "fourier_kl",
    "assemble_kernel",
    "stationarity_spread",
    "torus_watson",
    "fourier_factor",
    "FourierFactor",
    "parity_decompose",
    "torus_watson_check",
]

SPLIT_COLUMNS = BLOCK // 4  # columns per cross-covariance product; a multiple of every chunk width
PAIRING_TOL = 1e-10  # largest deviation of dual_lattice's primal/dual pairing from integers
SINE_TOL = 1e-10  # largest sine coefficient fourier_kl accepts of an even profile


def _chunk_width(m: int) -> int:
    """The torus check's columns per chunk: the largest power of two within ``CHUNK`` // m,
    kept in [8, ``BLOCK`` // 16] (a multiple of 8, which OpenBLAS computes as in a block)."""
    return min(BLOCK // 16, max(8, 1 << (max(1, CHUNK // m).bit_length() - 1)))


@dataclass(frozen=True, eq=False)
class Lattice:
    """Full-rank lattice given by basis rows stacked as a matrix."""

    basis: np.ndarray  # (n, n), row i is the i-th basis vector

    def __post_init__(self) -> None:
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise KernelError("basis must be a square matrix of row vectors")
        if abs(np.linalg.det(b)) < 1e-300:
            raise KernelError("basis is singular")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def volume(self) -> float:
        """Fundamental-domain volume |det V|."""
        return float(abs(np.linalg.det(self.basis)))


def dual_lattice(lattice: Lattice) -> Lattice:
    """Dual basis (inverse transpose), with the integrality pairing verified to ``PAIRING_TOL``."""
    dual = np.linalg.inv(lattice.basis).T
    pair = lattice.basis @ dual.T
    dev = float(np.max(np.abs(pair - np.round(pair))))
    if dev > PAIRING_TOL:
        raise KernelError(f"primal/dual pairing is not integral (dev {dev:.3e})")
    return Lattice(dual)


@dataclass(frozen=True, eq=False)
class TorusGrid(IndexSpace):
    """Uniform lattice grid, negation-closed, with fractional coordinates.

    Points are V @ (a / n) for integer tuples a; the fractional coordinates
    are kept so dual frequencies pair with points exactly (<v*|u> = b . frac
    for a dual vector with integer coordinates b).
    """

    frac: np.ndarray = None
    lattice: Lattice = None


def torus_grid(lattice: Lattice, n_per_axis) -> TorusGrid:
    """Uniform grid {V (a/n)} with the negation action bound.

    Negation a -> -a (mod n) maps grid points to grid points exactly; its
    fixed points are the images of 0 and of the half-lattice vectors (even
    n).  Weights are the fundamental-domain volume split evenly.
    """
    dim = lattice.dim
    if np.isscalar(n_per_axis):
        shape = (int(n_per_axis),) * dim
    else:
        shape = tuple(int(x) for x in n_per_axis)
    if len(shape) != dim or any(n < 1 for n in shape):
        raise KernelError(f"need {dim} positive grid sizes")
    ints = np.indices(shape).reshape(dim, -1).T.copy()  # row-major, C-ordered
    frac = ints / np.array(shape, dtype=float)
    pts = frac @ lattice.basis  # point i = sum_k frac[i, k] * (basis row k)
    m = len(ints)
    w = np.full(m, lattice.volume / m)

    perm = np.stack([np.arange(m), _negation(shape)])
    action = GroupAction(cyclic_group(2), perm)
    return TorusGrid(
        points=pts,
        weights=w,
        action=action,
        name=f"torus{list(shape)}",
        frac=frac,
        lattice=lattice,
        shape=shape,
    )


@dataclass(frozen=True, eq=False)
class TorusKernelSpec:
    """Retained Fourier data of a stationary even torus kernel on ``grid``, the torus grid
    whose profile it expands.

    For each retained dual vector v* (integer coordinates in the dual basis,
    one representative per +-pair, zero vector first):

    * ``eigenvalues[i]`` — a_v, the weighted-operator eigenvalue (the KL
      normalization, alpha_v = sqrt(2/vol) for v != 0);
    * ``fourier_coeffs[i]`` — lambda_v * alpha_v^2, the plain cosine
      coefficient of the profile, so the kernel reassembles as
      c_0 + sum_v fourier_coeffs[i] * cos(2 pi <v*| t - s>).
    """

    grid: TorusGrid
    vectors: np.ndarray        # (p, n) integer dual coordinates
    eigenvalues: np.ndarray    # (p,)
    fourier_coeffs: np.ndarray  # (p,)
    sine_dev: float
    cutoff: int

    def __post_init__(self) -> None:
        for name in ("vectors", "eigenvalues", "fourier_coeffs"):
            np.asarray(getattr(self, name)).setflags(write=False)
        lam = self.eigenvalues
        if lam.size and float(np.min(lam)) < -1e-10:
            raise KernelError(f"negative coefficient {float(np.min(lam)):.3e}: not PSD")

    def to_dict(self) -> dict:
        dual = dual_lattice(self.grid.lattice)
        return {
            "basis": [[float(x) for x in row] for row in self.grid.lattice.basis],
            "dual_basis": [[float(x) for x in row] for row in dual.basis],
            "grid": [int(n) for n in self.grid.shape],
            "cutoff": self.cutoff,
            "sine_dev": self.sine_dev,
            "coefficients": [
                {
                    "v*": [int(x) for x in self.vectors[i]],
                    "a_v": float(self.eigenvalues[i]),
                    "fourier_coeff": float(self.fourier_coeffs[i]),
                }
                for i in range(len(self.eigenvalues))
            ],
        }


def _characters(shape: Sequence[int], index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi <b, a/n>, the real characters, on every grid point a (rows,
    row-major) for each index b (columns) of the (r, d) ``index``.  The turns b_k a_k mod n_k
    are taken in integers, so an index and its aliases b + n_k e_k give bitwise equal
    characters."""
    d, theta = len(shape), 0.0
    for k, (b, n) in enumerate(zip(np.asarray(index).T, shape)):
        turns = np.multiply.outer(np.arange(n), b) % n / n
        theta = theta + turns.reshape((1,) * k + (n,) + (1,) * (d - k - 1) + (len(b),))
    theta = np.reshape(theta, (math.prod(shape), len(index)))
    theta *= 2.0 * np.pi
    return np.cos(theta), np.sin(theta, out=theta)


def _dual_reps(dim: int, cutoff: int) -> np.ndarray:
    # one representative per {b, -b} pair, |b_i| <= cutoff, zero first, as (p, dim) rows:
    # row-major order is lexicographic, so the rows after the middle one, zero, have a
    # positive first nonzero entry
    ints = np.indices((2 * cutoff + 1,) * dim).reshape(dim, -1).T - cutoff
    return ints[len(ints) // 2 :]


def fourier_kl(profile: np.ndarray, grid: TorusGrid, cutoff: int) -> TorusKernelSpec:
    """Cosine expansion of a stationary even profile sampled on a torus grid.

    Quadrature against cos/sin(2 pi <v*|u>) for every dual representative up
    to ``cutoff``, read from one FFT of the weighted profile at the representatives taken
    mod the grid shape; sine coefficients must vanish (evenness), to ``SINE_TOL``.  Stored per
    vector: the operator eigenvalue a_v = fourier_coeff * vol / 2 (v != 0)
    or fourier_coeff * vol (v = 0), which for the unit circle reproduces the
    classical 1/(4 pi^2 v^2) sequence of the compensated-bridge kernel.
    """
    if not isinstance(grid, TorusGrid):
        raise KernelError("need a torus grid (use torus_grid)")
    k = np.asarray(profile, dtype=float)
    if k.shape != (grid.size,):
        raise KernelError("profile must be sampled on the grid")
    vectors = _dual_reps(grid.dim, cutoff)
    aliased = vectors[np.any(2 * np.abs(vectors) >= grid.shape, axis=1)]
    if aliased.size:
        raise KernelError(f"dual vector {tuple(map(int, aliased[0]))} aliases on grid {grid.shape} (Nyquist)")
    # sum_a k_a w_a e^{-2 pi i <b, a/n>}: the cosine quadrature minus i the sine quadrature
    quad = np.fft.fftn((k * grid.weights).reshape(grid.shape))[tuple((vectors % grid.shape).T)]
    half = np.where(np.any(vectors, axis=1), 0.5, 1.0) * grid.lattice.volume  # squared cosine norms
    coeffs = quad.real / half
    worst_sine = float(np.max(np.abs(quad.imag) / half))
    if worst_sine > SINE_TOL:
        raise KernelError(f"profile is not even: sine coefficient {worst_sine:.3e}")
    return TorusKernelSpec(
        grid=grid,
        vectors=vectors,
        eigenvalues=coeffs * half,
        fourier_coeffs=coeffs,
        sine_dev=worst_sine,
        cutoff=cutoff,
    )


def assemble_kernel(spec: TorusKernelSpec) -> Kernel:
    """Stationary kernel sum_v fourier_coeff_v cos(2 pi <v*|t-s>) on ``spec.grid``, evaluated
    once per lag and kept as the kernel's lags by ``kernels._stationary``, so exactly
    stationary.  The lags are one FFT of the coefficients, each split in halves between its
    index b and -b (mod the grid shape), as cos = (e^{i theta} + e^{-i theta}) / 2."""
    grid = spec.grid
    coeffs, half = np.zeros(grid.shape), 0.5 * spec.fourier_coeffs
    for sign in (1, -1):  # both halves of the zero vector land on it, exactly its coefficient
        np.add.at(coeffs, tuple((sign * spec.vectors % grid.shape).T), half)
    return _stationary(np.fft.fftn(coeffs).real.ravel(), grid, "torus_fourier")


def torus_watson(grid: TorusGrid) -> Kernel:
    """Compensated-quadratic stationary kernel, exact on the grid: the per-axis profile
    (u - 1/2)^2/2 - 1/24 of the fractional lag (``kernels._circle_profile``), multiplied
    across axes and kept as the kernel's lags by ``kernels._stationary``.  On the unit circle
    it is the compensated bridge min(s,t) - (s+t)/2 + (s-t)^2/2 + 1/12, entry for entry."""
    if not isinstance(grid, TorusGrid):
        raise KernelError("need a torus grid")
    return _stationary(_circle_profile(grid.frac).prod(axis=1), grid, TORUS_KERNEL)


@dataclass(frozen=True, eq=False)
class FourierFactor:
    """The m x r factor of :func:`fourier_factor`, applied axis by axis.

    Column j is ``scale[j] * (sin if sine[j] else cos)(2 pi <b, a/n>)`` on grid point a, for
    the kept index b = ``index[j]``.  ``l @ xi`` multiplies it into an (r, ncols) operand
    without building the matrix and agrees with the matrix to roundoff.  As in the row-column
    DFT, each column folds onto the smaller of b and -b (a sine, since
    sin theta_b = Re i e^{i theta_{-b}}, into the im slot); the scaled normals fill a
    (re/im, s_1, ..., s_d) array over the box of the folded indices ((c + 1) (2c + 1)^(d-1)
    at cutoff c), and axis k's s_k frequencies turn into its n_k points by one product with
    the rotations [[C, -S], [S, C]] of 2 pi a_k b_k / n_k, only [C, -S] on the last axis.
    The paths land as (m, ncols), row-major.
    """

    grid_shape: tuple  # (n_1, ..., n_d)
    index: np.ndarray  # (r, d) integer coordinates of the kept indices, in column order
    sine: np.ndarray  # (r,) bool: column j is a sine
    scale: np.ndarray  # (r,) the column norms sqrt(c_b lambda_b / (w m))
    work: Optional[dict] = field(default=None, repr=False)  # a worker's buffers, refilled by each @

    @property
    def shape(self) -> tuple[int, int]:
        return (math.prod(self.grid_shape), self.sine.size)

    @cached_property
    def _axes(self) -> tuple[np.ndarray, tuple[int, ...], list[np.ndarray]]:
        """Each column's flat place in the (re/im, box) coefficients, the box, and the axis matrices."""
        folded = np.where(self.sine[:, None], -self.index % self.grid_shape, self.index)
        supports = [np.flatnonzero(np.bincount(b, minlength=n)) for b, n in zip(folded.T, self.grid_shape)]
        box = tuple(s.size for s in supports)
        places = [np.searchsorted(s, b) for s, b in zip(supports, folded.T)]
        place = np.ravel_multi_index([self.sine.astype(np.intp), *places], (2, *box))
        mats = []
        for n, s in zip(self.grid_shape, supports):
            c, sin = _characters((n,), s[:, None])
            mats.append(np.stack([np.hstack([c, -sin]), np.hstack([sin, c])], axis=1).reshape(2 * n, -1))
        mats[-1] = np.ascontiguousarray(mats[-1][::2])  # the real rows
        return place, box, mats

    def __matmul__(self, xi: np.ndarray) -> np.ndarray:
        """The (m, ncols) product with the (r, ncols) ``xi``, one matrix product per axis.

        With ``work`` (a worker's copy, ``replace(l, work={})``, kept as
        ``sampling._each_block`` says), the coefficients and the partial products take its
        buffers 0 and 1 in turn and the paths its ``"paths"`` buffer, so each product's
        paths overwrite the last one's."""
        ncols = xi.shape[1]
        place, box, mats = self._axes
        z = _reuse(self.work, 0, (2 * math.prod(box), ncols))
        z.fill(0.0)
        z[place] = self.scale[:, None] * xi
        lead = 1  # the points of the axes done, which batch the products
        for k, a in enumerate(mats):
            rest = math.prod(box[k + 1 :]) * ncols
            key = "paths" if k == len(mats) - 1 else (k + 1) % 2
            out = _reuse(self.work, key, (lead, a.shape[0], rest))
            z = np.matmul(a, z.reshape(lead, a.shape[1], rest), out=out)
            lead *= self.grid_shape[k]
        return z.reshape(lead, ncols)


def fourier_factor(kernel: Kernel) -> FourierFactor:
    """The m x r Karhunen-Loeve factor of a stationary torus kernel, in closed form.

    Whatever the lattice basis, a stationary kernel is circulant on its grid's index group
    Z_n1 x ... x Z_nd, whose characters are therefore its eigenvectors (Wood and Chan, 1994):
    index b has the eigenvalue lambda_b of ``kernel.dft`` and pairs with its negation -b.
    Column b of L, on grid point a, is

        sqrt(c_b lambda_b / (w m)) * (cos if b <= -b else sin)(2 pi <b, a/n>),

    c_b = 1 if b = -b (one cos column, +-1) else 2, so L L^T = K.  The columns are those that
    :func:`invdecomp.sampling._clip_spectrum` keeps, ascending, ties in index order, so normal
    k is the coordinate on the k-th kept eigenvalue as in every sampler.  The kernel is
    assumed stationary (:func:`stationarity_spread`).
    """
    grid = kernel.space
    if not isinstance(grid, TorusGrid):
        raise KernelError("need a torus grid")
    m, neg = grid.size, grid.action.perm[1]
    lam, spec = kernel.dft
    order = np.argsort(lam, kind="stable")
    idx = order[m - _clip_spectrum(lam[order]).size :]
    index = np.stack(np.unravel_index(idx, grid.shape), axis=1)  # the grid is row-major
    scale = np.sqrt(np.where(idx == neg[idx], 1.0, 2.0) * spec[idx] / m)
    l = FourierFactor(tuple(grid.shape), index, idx > neg[idx], scale)
    _note(lambda: f"fourier(axes {'x'.join(map(str, l._axes[1]))}, chunk {_chunk_width(m)})")
    return l


def stationarity_spread(kernel: Kernel) -> float:
    """``kernel.stationarity_spread`` of a kernel on a torus grid: the max spread of its entries
    over equal t - s (mod lattice) classes, 0 exactly when it is bitwise circulant."""
    if not isinstance(kernel.space, TorusGrid):
        raise KernelError("need a torus grid")
    return kernel.stationarity_spread


def parity_decompose(
    ensemble: PathEnsemble, out: Optional[tuple] = None
) -> tuple[PathEnsemble, PathEnsemble]:
    """Odd/even split about negation: X1 = (X - X o neg)/2, X2 = X - X1.

    X1 + X2 recovers X to one rounding of the complement.  X1 vanishes bitwise at the fixed
    points of the negation, so X2 equals X there.  On the circle the parts are the sign- and
    trivial-character projections of the reflection group.  ``out``, two writable arrays of
    the samples' shape, receives X1 and X2 in place of new arrays.
    """
    action = ensemble.space.action
    if action is None or action.group.order != 2:
        raise KernelError("space carries no order-2 negation action")
    neg = action.perm[1 - action.group.identity]
    x = ensemble.samples
    x1, x2 = out if out is not None else (np.empty(x.shape), np.empty(x.shape))
    np.take(x, neg, axis=0, out=x1, mode="clip")  # "raise" would buffer the gather
    np.subtract(x, x1, out=x1)
    np.multiply(x1, 0.5, out=x1)  # x / 2 and x * 0.5 round the same real number
    np.subtract(x, x1, out=x2)
    mk = lambda s: PathEnsemble(space=ensemble.space, samples=s, seed=ensemble.seed)
    return mk(x1), mk(x2)


def _basis_quadratics(rows: Callable, spec: TorusKernelSpec) -> dict:
    """Variance of <X, cos_v>_m and <X, sin_v>_m under the even part cov = (K + K o neg) / 2 of
    a path covariance K on ``spec.grid``, for every nonzero dual vector v of ``spec``.

    ``rows(index)`` gives rows of K, as ``Kernel.rows`` does.  The forms are the column sums
    of B * (cov @ B), B the weighted, normalized cos and sin vectors.  K, cov and cov @ B are
    taken :func:`_chunk_width` rows at a time, never whole, and the rows are added in row
    order, as ``np.sum(axis=0)`` adds them.
    """
    grid = spec.grid
    w, neg, step = grid.weights, grid.action.perm[1], _chunk_width(grid.size)
    b = spec.vectors[np.any(spec.vectors, axis=1)]
    basis = np.hstack(_characters(grid.shape, b))
    nrm = np.sqrt(w @ (basis * basis))
    basis /= np.where(nrm > 0, nrm, np.inf)  # a vector of norm 0 reads 0
    basis *= w[:, None]
    q = np.zeros(basis.shape[1])
    for i in range(0, grid.size, step):
        chunk = rows(np.arange(i, min(i + step, grid.size)))
        part = 0.5 * (chunk + chunk[:, neg]) @ basis
        part *= basis[i : i + step]
        for row in part:
            q += row
    return {"cos": q[: len(b)].tolist(), "sin": q[len(b) :].tolist()}


def torus_watson_check(
    kernel: Kernel,
    count: int,
    seed: int,
    stationarity_tol: float = 1e-10,
    split_tol: float = 1e-10,
    ks_tol: Optional[float] = None,
) -> dict:
    """Sample the stationary torus kernel ``kernel`` on its space and audit the parity identities.

    Checks, per sample: the energy split under both factor conventions (the halved parts
    X1, X2 of :func:`parity_decompose`, and the unhalved X(t) -+ X(-t)); independence of the
    parts through their empirical cross-covariance; and equality in law of the two part
    energies.  The unhalved parts are 2 X1 and 2 X2, whose energies are 4 e1 and
    4 e2 exactly, so ``unhalved_quarter`` is bitwise ``halved_sum``: computed once, and
    reported to name the convention.

    After the stationarity gate the kernel is sampled through :func:`fourier_factor` on stream
    0, as :func:`invdecomp.sampling.sample` draws, but :func:`_chunk_width` (m) columns at a
    time (``draw_chunks``); each chunk is split and reduced to its energies and its odd values
    at the fixed points.  The cross-covariance reads the normals, not the parts: the factor's
    sine columns are odd and its cosine columns even, so x1 x2^T = L_sin G L_cos^T for the
    Gram G = sum xi_sin xi_cos^T, one product per ``SPLIT_COLUMNS`` columns.  The factor is
    taken before the first draw, and a lag kernel never builds its matrix.  So one worker's check
    stays below (2 m + ``SPLIT_COLUMNS``) r + 8 m ``width`` doubles beyond a dense kernel and
    never holds the ensemble or a whole block of it.

    So ``cross_cov_max`` measures the sine and cosine normals' sample correlation through
    factor columns that are odd or even by construction, and nothing more: the parts'
    independence rests on K commuting with negation, which the stationarity gate checks.

    The blocks' Gram partials are added in block order (``sampling._each_block``), so every
    field is bitwise independent of the worker count.  Every field but ``cross_cov_max`` (the
    materialized x1 x2^T to roundoff) is bitwise that of the materialized ensemble wherever
    BLAS computes a chunk's columns as it does the whole block's: on OpenBLAS in every full
    block, and in a partial one a multiple of 8 columns wide (elsewhere to roundoff in its
    last columns, which on two or more axes can reach the chunk before the last).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_key(seed, 0, count - 1)
    spread = kernel.stationarity_spread
    report: dict = {
        "stationarity_spread": spread,
        "stationarity_tol": stationarity_tol,
        "seed": seed,
        "count": count,
    }
    if spread > stationarity_tol:
        report["ok"] = False
        report["error"] = "kernel is not stationary on the torus"
        return report

    l = fourier_factor(kernel)
    grid = kernel.space
    w, width = grid.weights, _chunk_width(grid.size)
    neg = grid.action.perm[1]
    fixed = np.flatnonzero(neg == np.arange(grid.size))
    # x1 is odd and 0 at the fixed points and x2 is even, so one row of x1 per
    # +-orbit of the other points, and one of x2 per orbit, carry all of x1 x2^T
    half = np.flatnonzero(np.arange(grid.size) < neg)
    orbits = np.flatnonzero(np.arange(grid.size) <= neg)
    sine = l.sine
    sin_cols, cos_cols = np.flatnonzero(sine), np.flatnonzero(~sine)
    n_sin, n_cos = len(sin_cols), len(cos_cols)
    e, e1, e2, odd_fixed = (np.empty(count) for _ in range(4))

    def run(a, b, work):
        if not work:  # the worker's first block: its copy of the factor, kept for the rest
            work["factor"] = replace(l, work={})
        lw = work["factor"]
        work = lw.work  # the copy's buffers
        # the sine and cosine normals of the block's current SPLIT_COLUMNS slice
        odd = _reuse(work, "odd", (SPLIT_COLUMNS, n_sin))
        even = _reuse(work, "even", (SPLIT_COLUMNS, n_cos))
        gram = np.zeros((n_sin, n_cos))
        for c, x, xi in draw_chunks(lw, seed, 0, a, b, width):
            out = slice(c, c + x.shape[1])
            # the squares go into the parts' buffers: x's before the split fills them, and
            # each part's over the part once nothing else reads it
            e[out] = w @ np.square(x, out=_reuse(work, "x2", x.shape))
            part = PathEnsemble(space=grid, samples=x, seed=seed)
            parts = tuple(_reuse(work, key, x.shape) for key in ("x1", "x2"))
            x1, x2 = (p.samples for p in parity_decompose(part, out=parts))
            odd_fixed[out] = np.max(np.abs(x1[fixed]), axis=0, initial=0.0)
            e1[out] = w @ np.square(x1, out=_reuse(work, "x1", x.shape))
            e2[out] = w @ np.square(x2, out=_reuse(work, "x2", x.shape))
            j = (c - a) % SPLIT_COLUMNS
            k = j + x.shape[1]
            np.take(xi, sin_cols, axis=1, out=odd[j:k], mode="clip")
            np.take(xi, cos_cols, axis=1, out=even[j:k], mode="clip")
            if k == SPLIT_COLUMNS or out.stop == b:  # the slice is full, or the block ends
                gram += odd[:k].T @ even[:k]
        return gram

    # the blocks' Gram partials, added in block order; each goes before the next block draws
    gram = np.zeros((n_sin, n_cos))
    for part in _each_block(count, run):
        gram += part
        del part
    # x1 = L_sin xi_sin and x2 = L_cos xi_cos, so x1 x2^T = L_sin (sum xi_sin xi_cos^T) L_cos^T;
    # the columns of L are those of the apply the paths take, width identity columns at a time
    cols = np.empty((grid.size, sine.size))
    for j in range(0, sine.size, width):
        cols[:, j : j + width] = l @ np.eye(sine.size, min(width, sine.size - j), -j)
    l_sin, l_cos = cols[np.ix_(half, sine)], cols[np.ix_(orbits, ~sine)]
    del cols  # released before the products
    cross = l_sin @ gram @ l_cos.T

    res_halved_sum = float(np.max(np.abs(e - (e1 + e2))))
    conventions = {
        "halved_sum": res_halved_sum,
        "halved_quarter_verbatim": float(np.max(np.abs(e - 0.25 * (e1 + e2)))),
        # the unhalved parts 2 x1, 2 x2 have energies 4 e1, 4 e2, bitwise
        "unhalved_quarter": res_halved_sum,
    }
    satisfied = [k for k, v in conventions.items() if v <= split_tol]

    cross /= count
    cross_max = float(np.max(np.abs(cross, out=cross), initial=0.0))
    cross_tol = 4.0 / np.sqrt(count)
    fixed_dev = float(np.max(odd_fixed))

    cmp_ = compare_distributions(e1, e2)
    if ks_tol is None:
        ks_tol = null_ks_critical(count)

    report.update(
        {
            "energy_residuals": conventions,
            "split_tol": split_tol,
            "conventions_satisfied": satisfied,
            "fixed_point_indices": [int(i) for i in fixed],
            "fixed_point_max_odd_value": fixed_dev,
            "cross_cov_max": cross_max,
            "cross_cov_tol": float(cross_tol),
            "ks_parts": cmp_["ks_distance"],
            "ks_tol": float(ks_tol),
            "part_kstats": {"odd": cmp_["kstats_a"], "even": cmp_["kstats_b"]},
        }
    )
    report["ok"] = bool(
        "halved_sum" in satisfied  # and so "unhalved_quarter", its bitwise copy
        and cross_max <= cross_tol
        and cmp_["ks_distance"] < ks_tol
        and fixed_dev <= split_tol
    )
    return report
