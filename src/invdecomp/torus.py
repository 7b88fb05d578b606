"""Lattices, stationary kernels on flat tori, and the parity split.

A full-rank lattice defines a torus; stationary even kernels on it expand in
cosines of dual-lattice frequencies, which is simultaneously their weighted
eigenexpansion.  Sampling such a kernel and splitting each path into odd and
even parts about negation yields two uncorrelated (hence independent)
Gaussian processes whose quadratic functionals can be compared in law.

A stationary kernel on a grid torus depends on t - s alone, so it is
(block-)circulant: the kernels are built from their m lag values by one
strided copy (``kernels._circulant``).  The DFT of those m lag values is
the kernel's spectrum.  The PSD check of a bitwise circulant kernel
reads its eigenvalues from it and stores its stationarity spread, by the
one rule that ``invdecomp.kernels`` applies on every grid, and
:func:`fourier_factor` builds from the same DFT (``Kernel.dft``, taken once)
the factor that samples the kernel, so neither runs an eigendecomposition; a kernel that is not bitwise
stationary is still solved densely.  The factor's columns are characters of
the grid's index group; :func:`_characters` evaluates every character here,
and a :class:`FourierFactor` folds each sine onto its cosine partner and
applies its columns by one matrix product per axis.

:func:`torus_watson_check` streams its samples: each block of the
sampling contract is drawn, split and reduced :func:`_chunk_width` columns
at a time (64 at m = 1024, 256 up to m = 256), so its working set is
O(m ``SPLIT_COLUMNS``) on top of its factor, never m x ``BLOCK``, and the
kernel it assembles is released before the first draw.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from invdecomp.groups import GroupAction, cyclic_group
from invdecomp.kernels import (
    CHUNK,
    TORUS_KERNEL,
    IndexSpace,
    Kernel,
    KernelError,
    _circle_profile,
    _circulant,
    _negation,
)
from invdecomp.sampling import (
    BLOCK,
    PathEnsemble,
    _blocks,
    _clip_spectrum,
    _parallel,
    compare_distributions,
    draw_chunks,
    null_ks_critical,
    worker_count,
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
    axes = [np.arange(n) for n in shape]
    ints = np.array(list(itertools.product(*axes)), dtype=np.intp)  # row-major
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
    """Retained Fourier data of a stationary even torus kernel.

    For each retained dual vector v* (integer coordinates in the dual basis,
    one representative per +-pair, zero vector first):

    * ``eigenvalues[i]`` — a_v, the weighted-operator eigenvalue (the KL
      normalization, alpha_v = sqrt(2/vol) for v != 0);
    * ``fourier_coeffs[i]`` — lambda_v * alpha_v^2, the plain cosine
      coefficient of the profile, so the kernel reassembles as
      c_0 + sum_v fourier_coeffs[i] * cos(2 pi <v*| t - s>).
    """

    lattice: Lattice
    vectors: np.ndarray        # (p, n) integer dual coordinates
    eigenvalues: np.ndarray    # (p,)
    fourier_coeffs: np.ndarray  # (p,)
    sine_dev: float
    cutoff: int
    grid_shape: tuple = ()

    def __post_init__(self) -> None:
        for name in ("vectors", "eigenvalues", "fourier_coeffs"):
            np.asarray(getattr(self, name)).setflags(write=False)
        lam = self.eigenvalues
        if lam.size and float(np.min(lam)) < -1e-10:
            raise KernelError(f"negative coefficient {float(np.min(lam)):.3e}: not PSD")

    def to_dict(self) -> dict:
        dual = dual_lattice(self.lattice)
        return {
            "basis": [[float(x) for x in row] for row in self.lattice.basis],
            "dual_basis": [[float(x) for x in row] for row in dual.basis],
            "grid": [int(n) for n in self.grid_shape],
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
    """cos and sin of 2 pi <b, a/n> on every grid point a (rows, row-major) for
    each index b (columns) of the (r, d) ``index``.

    The turns b_k a_k mod n_k are taken in integers, so an index and its
    aliases b + n_k e_k give bitwise equal characters.
    """
    points = np.indices(shape).reshape(len(shape), -1)
    theta = np.zeros((points.shape[1], len(index)))
    for a, b, n in zip(points, np.asarray(index).T, shape):
        theta += np.multiply.outer(a, b) % n / n
    theta *= 2.0 * np.pi
    return np.cos(theta), np.sin(theta, out=theta)


def _dual_reps(dim: int, cutoff: int) -> list[tuple[int, ...]]:
    # one representative per {b, -b} pair, |b_i| <= cutoff, zero first
    reps = [(0,) * dim]
    for b in itertools.product(range(-cutoff, cutoff + 1), repeat=dim):
        if b == (0,) * dim:
            continue
        first = next(x for x in b if x != 0)
        if first > 0:
            reps.append(b)
    return reps


def fourier_kl(profile: np.ndarray, grid: TorusGrid, cutoff: int) -> TorusKernelSpec:
    """Cosine expansion of a stationary even profile sampled on a torus grid.

    Quadrature against cos/sin(2 pi <v*|u>) for every dual representative up
    to ``cutoff``; sine coefficients must vanish (evenness), to ``SINE_TOL``.  Stored per
    vector: the operator eigenvalue a_v = fourier_coeff * vol / 2 (v != 0)
    or fourier_coeff * vol (v = 0), which for the unit circle reproduces the
    classical 1/(4 pi^2 v^2) sequence of the compensated-bridge kernel.
    """
    if not isinstance(grid, TorusGrid):
        raise KernelError("need a torus grid (use torus_grid)")
    k = np.asarray(profile, dtype=float)
    if k.shape != (grid.size,):
        raise KernelError("profile must be sampled on the grid")
    vectors = np.array(_dual_reps(grid.dim, cutoff), dtype=int)
    aliased = vectors[np.any(2 * np.abs(vectors) >= grid.shape, axis=1)]
    if aliased.size:
        raise KernelError(f"dual vector {tuple(map(int, aliased[0]))} aliases on grid {grid.shape} (Nyquist)")
    cos, sin = _characters(grid.shape, vectors)
    kw = k * grid.weights
    half = np.where(np.any(vectors, axis=1), 0.5, 1.0) * grid.lattice.volume  # squared cosine norms
    coeffs = (kw @ cos) / half
    worst_sine = float(np.max(np.abs(kw @ sin) / half))
    if worst_sine > SINE_TOL:
        raise KernelError(f"profile is not even: sine coefficient {worst_sine:.3e}")
    return TorusKernelSpec(
        lattice=grid.lattice,
        vectors=vectors,
        eigenvalues=coeffs * half,
        fourier_coeffs=coeffs,
        sine_dev=worst_sine,
        cutoff=cutoff,
        grid_shape=tuple(grid.shape),
    )


def _stationary(profile: np.ndarray, grid: TorusGrid, name: str) -> Kernel:
    """K[s, t] = (p_b + p_-b) / 2 at the lag b = s - t, for p_b the profile at grid point b:
    bitwise the (C + C^T) / 2 that a :class:`Kernel` stores for the circulant C of p, and
    bitwise symmetric, so the Kernel keeps it as its one m x m array."""
    even = (profile + profile[_negation(grid.shape)]) / 2
    return Kernel(grid, _circulant(even, grid.shape), name=name)


def assemble_kernel(spec: TorusKernelSpec, grid: TorusGrid) -> Kernel:
    """Stationary kernel sum_v fourier_coeff_v cos(2 pi <v*|t-s>) on the grid.

    The sum is evaluated once per lag, as one product of the m x p cosines
    of the p dual vectors on the grid points, and copied into the m x m
    matrix by :func:`_stationary`; the result is exactly stationary.
    """
    if not isinstance(grid, TorusGrid):
        raise KernelError("need a torus grid")
    profile = _characters(grid.shape, spec.vectors)[0] @ spec.fourier_coeffs
    return _stationary(profile, grid, "torus_fourier")


def torus_watson(grid: TorusGrid) -> Kernel:
    """Compensated-quadratic stationary kernel, exact on the grid.

    Per-axis profile phi(u) = (u - 1/2)^2/2 - 1/24 of the fractional lag
    (``kernels._circle_profile``), multiplied across axes.  On the unit
    circle this is the compensated bridge covariance
    min(s,t) - (s+t)/2 + (s-t)^2/2 + 1/12, entry for entry.  The profile is
    evaluated on the m lags and copied into the matrix by :func:`_stationary`,
    so the matrix is exactly circulant per axis.
    """
    if not isinstance(grid, TorusGrid):
        raise KernelError("need a torus grid")
    shape = np.array(grid.shape)
    u = np.rint(grid.frac * shape).astype(np.int64) / shape
    return _stationary(_circle_profile(u).prod(axis=1), grid, TORUS_KERNEL)


@dataclass(frozen=True, eq=False)
class FourierFactor:
    """The m x r factor of :func:`fourier_factor`, applied axis by axis.

    Column j is ``scale[j] * (sin if sine[j] else cos)(2 pi <b, a/n>)`` on grid
    point a, for the kept index b = ``index[j]``.  ``l @ xi`` multiplies it
    into an (r, ncols) operand; ``np.asarray`` gives the matrix, a reference
    that the product never builds.

    A cosine column is Re e^{i theta_b}; a sine column's index is the larger
    of b and -b, and sin theta_b = -sin theta_{-b} = Re i e^{i theta_{-b}}.
    So each column folds onto the smaller of its index and its negation, a
    cosine into the re slot and a sine into the im slot.  As <b, a/n> =
    sum_k b_k a_k / n_k, the characters then factor over the axes, as in the
    row-column DFT: ``l @ xi`` writes each column's scaled normal into a
    (re/im, s_1, ..., s_d) array over the box of the folded indices (their
    distinct coordinates per axis, (c + 1) (2c + 1)^(d-1) at cutoff c) and
    turns axis k's s_k frequencies into its n_k points by one matrix product
    with rows (a_k, re/im) of the rotations [[C, -S], [S, C]] of
    2 pi a_k b_k / n_k, only [C, -S] on the last axis.  The paths land as
    (m, ncols), row-major, and agree with the matrix to roundoff.
    """

    grid_shape: tuple  # (n_1, ..., n_d)
    index: np.ndarray  # (r, d) integer coordinates of the kept indices, in column order
    sine: np.ndarray  # (r,) bool: column j is a sine
    scale: np.ndarray  # (r,) the column norms sqrt(c_b lambda_b / (w m))

    @property
    def shape(self) -> tuple[int, int]:
        return (math.prod(self.grid_shape), self.sine.size)

    @cached_property
    def dense(self) -> np.ndarray:
        """The m x r matrix, read-only; built only when asked for."""
        cos, sin = _characters(self.grid_shape, self.index)
        l = np.where(self.sine, sin, cos) * self.scale
        l.setflags(write=False)
        return l

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.dense, dtype=dtype, copy=copy)

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
        """The (m, ncols) product with the (r, ncols) ``xi``, one matrix product per axis."""
        ncols = xi.shape[1]
        place, box, mats = self._axes
        z = np.zeros((2 * math.prod(box), ncols))
        z[place] = self.scale[:, None] * xi
        lead = 1  # the points of the axes done, which batch the products
        for k, a in enumerate(mats):
            z = a @ z.reshape(lead, a.shape[1], math.prod(box[k + 1 :]) * ncols)
            lead *= self.grid_shape[k]
        return z.reshape(lead, ncols)


def fourier_factor(kernel: Kernel) -> FourierFactor:
    """The m x r Karhunen-Loeve factor of a stationary torus kernel, in closed form.

    Whatever the lattice basis, a stationary kernel is circulant on the index
    group Z_n1 x ... x Z_nd of its grid, whose characters are therefore its
    eigenvectors (the circulant case of Wood and Chan, 1994): index b
    has eigenvalue lambda_b = w * Re DFT(K[:, 0])_b of diag(w) K
    (``kernel.dft``, which the kernel's PSD check already took) and
    pairs with -b, the grid's negation of b.  Over a +-pair the two complex
    characters give one cos and one sin column; a self-conjugate b (b = -b)
    gives one cos column, which is +-1.  Column b of L, on grid point a, is

        sqrt(c_b lambda_b / (w m)) * (cos if b <= -b else sin)(2 pi <b, a/n>),

    c_b = 1 if b = -b else 2, so L L^T = K.  The columns are those that
    :func:`invdecomp.sampling._clip_spectrum` keeps of the spectrum, in
    ascending order, ties in index order, so normal k of a column is the
    coordinate on the k-th kept eigenvalue as for every sampler.  The
    kernel is assumed stationary (see :func:`stationarity_spread`).  The
    factor is a :class:`FourierFactor`, which applies L axis by axis.
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
    return FourierFactor(tuple(grid.shape), index, idx > neg[idx], scale)


def stationarity_spread(kernel: Kernel) -> float:
    """Max spread of kernel entries over equal t-s (mod lattice) classes.

    The value the kernel's PSD check computed over its grid's index shape
    (``Kernel.stationarity_spread``); 0 exactly when the kernel is bitwise
    circulant.
    """
    if not isinstance(kernel.space, TorusGrid):
        raise KernelError("need a torus grid")
    return kernel.stationarity_spread


def parity_decompose(ensemble: PathEnsemble) -> tuple[PathEnsemble, PathEnsemble]:
    """Odd/even split about negation: X1 = (X - X o neg)/2, X2 = X - X1.

    X1 + X2 recovers X up to one rounding of the complement (exact in real
    arithmetic; <= 1 ulp of the parts' magnitude in floats).  X1 vanishes
    bitwise at the fixed points of the negation -- the grid images of 0 and
    the half-lattice vector -- so X2 equals X there exactly.  On the circle
    the parts are precisely the sign- and trivial-character projections of
    the two-element reflection group.
    """
    action = ensemble.space.action
    if action is None or action.group.order != 2:
        raise KernelError("space carries no order-2 negation action")
    neg = action.perm[1 - action.group.identity]
    x = ensemble.samples
    x1 = (x - x[neg]) / 2.0
    x2 = x - x1
    mk = lambda s: PathEnsemble(space=ensemble.space, samples=s, seed=ensemble.seed)
    return mk(x1), mk(x2)


def _basis_quadratics(matrix: np.ndarray, grid: TorusGrid, spec: TorusKernelSpec) -> dict:
    """Variance of <X, cos_v>_m and <X, sin_v>_m under the even part of a path covariance.

    The even part of ``matrix`` is cov = (K + K o neg) / 2, negation acting
    on the columns.  The weighted, normalized cos and sin vectors of every
    nonzero dual vector are stacked as the columns of one matrix B, and all
    the quadratic forms are the column sums of B * (cov @ B).  cov and
    cov @ B are built :func:`_chunk_width` rows at a time, so cov is never held.
    """
    w, neg, rows = grid.weights, grid.action.perm[1], _chunk_width(grid.size)
    b = spec.vectors[np.any(spec.vectors, axis=1)]
    basis = np.hstack(_characters(grid.shape, b))
    nrm = np.sqrt(w @ (basis * basis))
    basis /= np.where(nrm > 0, nrm, np.inf)  # a vector of norm 0 reads 0
    basis *= w[:, None]
    cov_basis = np.empty_like(basis)
    for i in range(0, grid.size, rows):
        chunk = matrix[i : i + rows]
        cov_basis[i : i + rows] = 0.5 * (chunk + chunk[:, neg]) @ basis
    cov_basis *= basis
    q = np.sum(cov_basis, axis=0)
    return {"cos": q[: len(b)].tolist(), "sin": q[len(b) :].tolist()}


def torus_watson_check(
    spec_or_kernel,
    grid: TorusGrid,
    count: int,
    seed: int,
    stationarity_tol: float = 1e-10,
    split_tol: float = 1e-10,
    ks_tol: Optional[float] = None,
) -> dict:
    """Sample a stationary torus kernel and audit the parity identities.

    Checks, per sample: the energy split under both factor conventions
    (halved parts X1, X2 as defined above, and the unhalved combinations
    X(t) -+ X(-t)); independence of the parts through empirical
    cross-covariance; and equality in law of the two part energies.  The
    even part is expanded against both cosine and sine frequencies so the
    two readings of its expansion are reported side by side.  The unhalved
    parts are 2 X1 and 2 X2, whose energies are 4 e1 and 4 e2 exactly, so
    the ``unhalved_quarter`` residual is bitwise that of ``halved_sum``: it
    is implied by it, and is reported to name the convention.

    The kernel is sampled through its closed-form factor
    :func:`fourier_factor`, after the stationarity gate and with no
    eigendecomposition, r normals per column for the r eigenvalues kept.
    Neither the ensemble nor a whole block of it is held.  Each ``BLOCK`` of
    columns is drawn from its one generator with that factor (stream 0), as
    :func:`invdecomp.sampling.sample` draws it, but ``width`` =
    :func:`_chunk_width` (m) columns at a time (``draw_chunks``).  Each chunk
    is split by :func:`parity_decompose` and reduced to its three energies per
    sample and its odd values at the fixed points, and its odd rows (one per
    +-pair of non-fixed points) and even rows (one per +-orbit) are copied into
    two (m/2) x ``SPLIT_COLUMNS`` buffers; the cross-covariance takes one
    product of those buffers per ``SPLIT_COLUMNS`` columns, whatever the width.
    So a worker holds one chunk's normals, paths, parts and their temporaries
    (under 8 m ``width`` doubles), the two buffers (m ``SPLIT_COLUMNS``) and
    its block's m/2 x m/2 cross-covariance partial.  The factor holds its
    per-axis matrices, and a chunk's product at most two of its partial
    products at once, each at most 2 m doubles per column, which the chunk's
    paths and parts then replace.  The factor and the even part's expansion
    (:func:`_basis_quadratics`, ``width`` rows at a time) are taken before the
    first draw, and an assembled kernel is then released, so the check holds
    no m x m array while it samples, and one worker's check stays below one
    m x m matrix plus m (``SPLIT_COLUMNS`` + 8 ``width``) doubles.

    The per-block cross-covariance partials are added in block order, so
    every field is bitwise independent of the worker count.  Every field but
    ``cross_cov_max`` (summed in another order, over one point per +-orbit)
    is bitwise that of the materialized ensemble wherever BLAS computes a
    chunk's columns as it does in the whole block: on OpenBLAS in every
    full block, and in a partial one a multiple of 8 columns wide
    (elsewhere to roundoff in its last columns, as ``RNG_CONTRACT``
    allows; on a grid of two or more axes those can reach into the chunk
    before the last, since a product's columns run over a box axis too).
    """
    if isinstance(spec_or_kernel, TorusKernelSpec):
        kernel = assemble_kernel(spec_or_kernel, grid)
        spec = spec_or_kernel
    else:
        kernel = spec_or_kernel
        spec = None
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

    if count < 1:
        raise ValueError("count must be >= 1")
    l = fourier_factor(kernel)
    q = _basis_quadratics(kernel.matrix, grid, spec) if spec is not None else None
    del kernel  # an assembled kernel is not held while the check samples
    w, width = grid.weights, _chunk_width(grid.size)
    neg = grid.action.perm[1]
    fixed = np.flatnonzero(neg == np.arange(grid.size))
    # x1[neg] = -x1 bitwise and x1 is 0 at the fixed points, and x2[neg] = x2
    # to 1 ulp, so one row of x1 per +-orbit of the other points, and one of
    # x2 per orbit, carry all of x1 x2^T
    half = np.flatnonzero(np.arange(grid.size) < neg)
    orbits = np.flatnonzero(np.arange(grid.size) <= neg)
    e, e1, e2, odd_fixed = (np.empty(count) for _ in range(4))
    partials: dict = {}  # block start -> the block's x1 x2^T rows

    def run(blk):
        a, b = blk
        # the odd rows and even rows of the block's current SPLIT_COLUMNS slice
        odd = np.empty((half.size, SPLIT_COLUMNS))
        even = np.empty((orbits.size, SPLIT_COLUMNS))
        cross = np.zeros((half.size, orbits.size))
        for c, x in draw_chunks(l, seed, 0, a, b, width):
            part = PathEnsemble(space=grid, samples=x, seed=seed)
            x1, x2 = (p.samples for p in parity_decompose(part))
            out = slice(c, c + x.shape[1])
            e[out] = w @ (x**2)
            e1[out] = w @ (x1**2)
            e2[out] = w @ (x2**2)
            odd_fixed[out] = np.max(np.abs(x1[fixed]), axis=0, initial=0.0)
            j = (c - a) % SPLIT_COLUMNS
            k = j + x.shape[1]
            odd[:, j:k] = x1[half]
            even[:, j:k] = x2[orbits]
            if k == SPLIT_COLUMNS or out.stop == b:  # the slice is full, or the block ends
                cross += odd[:, :k] @ even[:, :k].T
        partials[a] = cross

    # waves of one block per worker, each added in block order, keep the
    # sums independent of the worker count and at most one partial per worker
    blocks, step = _blocks(count), worker_count()
    cross = np.zeros((half.size, orbits.size))
    for i in range(0, len(blocks), step):
        wave = blocks[i : i + step]
        _parallel(wave, run)
        for a, _ in wave:
            cross += partials.pop(a)

    # the unhalved parts 2 x1, 2 x2 have energies 4 e1, 4 e2, bitwise
    u1, u2 = 4.0 * e1, 4.0 * e2
    res_halved_sum = float(np.max(np.abs(e - (e1 + e2))))
    res_halved_quarter = float(np.max(np.abs(e - 0.25 * (e1 + e2))))
    res_unhalved_quarter = float(np.max(np.abs(e - 0.25 * (u1 + u2))))
    conventions = {
        "halved_sum": res_halved_sum,
        "halved_quarter_verbatim": res_halved_quarter,
        "unhalved_quarter": res_unhalved_quarter,
    }
    satisfied = [k for k, v in conventions.items() if v <= split_tol]

    cross_max = float(np.max(np.abs(cross / count), initial=0.0))
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
    if q is not None:
        # even-part expansion: cosine reading vs (typo) sine reading
        report["even_part_expansion"] = {
            "cos_quadratics": q["cos"],
            "sin_quadratics_max": float(np.max(q["sin"])) if q["sin"] else 0.0,
        }
    report["ok"] = bool(
        "halved_sum" in satisfied
        and "unhalved_quarter" in satisfied
        and cross_max <= cross_tol
        and cmp_["ks_distance"] < ks_tol
        and fixed_dev <= split_tol
    )
    return report
