"""Quadrature index spaces, covariance kernels, and their symmetry algebra.

An :class:`IndexSpace` is a finite quadrature rule (points, weights) with an
optional group action by permutations.  A :class:`Kernel` is a symmetric PSD
matrix over such a space.  The operations here are the kernel-side analogues
of path projection: projecting a kernel onto a pair of characters,
chaining a kernel's weighted contractions, and checking invariance under
the action.  What a kernel knows about itself is computed once, by the
kernel: its spectrum and stationarity spread by its PSD check, and its DFT
(``Kernel.dft``), invariance deviation (``Kernel.invariance_dev``) and
isotypic spectra (``Kernel.irrep_spectra``) when first read.

Each built-in kernel is one :class:`Builtin` record of :data:`BUILTINS`,
which the builder, the config validator, the ``spectrum`` check's oracle
and the in-law checks (:func:`law_kernel`) read.

The weighted operator ``diag(w) K`` is solved through the similar symmetric
matrix ``sqrt(w) K sqrt(w)``, formed only by :func:`weighted_symmetric`.
Each :class:`Kernel` takes its spectrum once, in its PSD check, by one rule
for every grid.  Every space reads its points
as a cyclic index group Z_n1 x ... x Z_nd of its ``shape``, row-major: an
interval grid is Z_n, a product grid the product of its factors' groups, a
torus grid its own lattice index group.  A kernel that is bitwise circulant
over that group (``Kernel.stationarity_spread`` 0) on equal weights has the
group's characters as eigenvectors (Wood and Chan, 1994), so its spectrum
is the DFT of its lag profile (``Kernel.dft``); any other kernel
takes the dense ``eigvalsh`` of the symmetric matrix.  The watson kernel,
the compensated bridge, is the stationary circle process: on a power-of-two
midpoint grid it is bitwise circulant and takes the DFT.  The kernel keeps
the ascending spectrum as ``Kernel.eigenvalues``; the trace powers are its
power sums, and ``invdecomp.sampling`` draws the law checks' functionals
from it.
:func:`weighted_eigh` is the one eigenvector solve, shared by the
Karhunen-Loeve spectrum and the covariance factor.  :func:`irrep_spectra`
solves the same matrix restricted to each real character's isotypic
subspace, one m_pi x m_pi block per irrep, for the per-irrep traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from invdecomp.groups import (
    GroupAction,
    Irrep,
    character_table,
    check_action,
    cyclic_group,
    direct_product,
    project_path,
)

__all__ = [
    "KernelError",
    "IndexSpace",
    "Kernel",
    "make_interval_grid",
    "make_product_grid",
    "Builtin",
    "BUILTINS",
    "TORUS_KERNEL",
    "builtin_kernel",
    "law_kernel",
    "check_invariance",
    "project_kernel",
    "decompose_kernel",
    "irrep_spectra",
    "contract_power",
    "weighted_traces",
    "weighted_symmetric",
    "weighted_eigh",
]

PSD_TOL = 1e-10
INVARIANCE_TOL = 1e-9  # check_invariance's default, and the tolerance of the symmetry checks' guards
CHUNK = 1 << 16  # doubles per array of every streamed or row-chunked pass: 512 KiB, cache-sized


class KernelError(ValueError):
    """Raised for malformed spaces, kernels, or incompatible operands."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class IndexSpace:
    """Finite quadrature rule with an optional symmetry action.

    Parameters
    ----------
    points : (m, d) float array
    weights : (m,) float array
        Finite, strictly positive quadrature weights.
    action : GroupAction, optional
        Permutation action on the points; it must preserve the weights
        (:func:`invdecomp.groups.check_action`).  Constructors only bind
        actions that map grid points to grid points exactly.
    name : str
    shape : tuple of int, optional
        The cyclic index group Z_n1 x ... x Z_nd the points are read in,
        row-major (last axis fastest), for the stationarity gate of a
        :class:`Kernel`'s spectrum; its sizes multiply to m.  Defaults to (m,).
    """

    points: np.ndarray
    weights: np.ndarray
    action: Optional[GroupAction] = None
    name: str = ""
    shape: tuple = ()

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.shape[0] != pts.shape[0]:
            raise KernelError("weights must be one per point")
        if not np.all((w > 0) & (w < np.inf)):  # False for NaN
            raise KernelError("weights must be finite and strictly positive")
        if self.action is not None:
            if self.action.npoints != pts.shape[0]:
                raise KernelError("action size does not match point count")
            ok, worst = check_action(self.action, w)
            if not ok:
                raise KernelError(f"the action does not preserve the weights (max deviation {worst:.3e})")
        shape = tuple(int(n) for n in self.shape) or (pts.shape[0],)
        if math.prod(shape) != pts.shape[0] or min(shape) < 1:
            raise KernelError(f"index shape {shape} does not count {pts.shape[0]} points")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __repr__(self) -> str:
        return f"IndexSpace(name={self.name!r}, size={self.size}, dim={self.dim})"


def make_interval_grid(n: int) -> IndexSpace:
    """Midpoint rule on [0, 1] with the reflection t -> 1-t bound as a Z2 action.

    The midpoints (i + 1/2)/n are closed under reflection exactly, with
    ``perm = [n-1, ..., 0]`` for the non-trivial element.
    """
    if n < 1:
        raise KernelError("need at least one grid point")
    t = (np.arange(n) + 0.5) / n
    w = np.full(n, 1.0 / n)
    action = GroupAction(cyclic_group(2), np.stack([np.arange(n), np.arange(n)[::-1]]))
    return IndexSpace(t, w, action, name=f"interval[{n}]", shape=(n,))


def make_product_grid(spaces: Sequence[IndexSpace]) -> IndexSpace:
    """Cartesian product space, row-major (last factor fastest).

    Weights multiply, and the index shapes concatenate.  When every factor
    carries an action, the product group acts coordinate-wise; its element
    (g1, .., gk) is encoded row-major exactly like
    :func:`invdecomp.groups.direct_product`.
    """
    spaces = list(spaces)
    if not spaces:
        raise KernelError("need at least one factor")
    if len(spaces) == 1:
        return spaces[0]
    mid = make_product_grid(spaces[:-1])
    last = spaces[-1]
    m1, m2 = mid.size, last.size
    pts = np.hstack(
        [
            np.repeat(mid.points, m2, axis=0),
            np.tile(last.points, (m1, 1)),
        ]
    )
    w = np.repeat(mid.weights, m2) * np.tile(last.weights, m1)
    action = None
    if mid.action is not None and last.action is not None:
        grp = direct_product(mid.action.group, last.action.group)
        n1, n2 = mid.action.group.order, last.action.group.order
        perm = np.empty((n1 * n2, m1 * m2), dtype=np.intp)
        for g1 in range(n1):
            for g2 in range(n2):
                perm[g1 * n2 + g2] = (
                    mid.action.perm[g1][:, None] * m2 + last.action.perm[g2][None, :]
                ).ravel()
        action = GroupAction(grp, perm)
    name = " x ".join(s.name or "?" for s in spaces)
    return IndexSpace(pts, w, action, name=name, shape=mid.shape + last.shape)


@dataclass(frozen=True, eq=False)
class Kernel:
    """Symmetric positive semi-definite matrix over an index space.

    A matrix with a non-finite entry or an asymmetry above ``PSD_TOL`` is rejected.  The
    matrix is stored as (K + K^T) / 2; a bitwise symmetric, C-ordered float64 one, which
    equals it bitwise, is kept itself, not copied, and made read-only.

    The PSD check computes, once per kernel:

    * ``stationarity_spread``, the largest spread of K's entries over a
      class of equal lag (s - t) mod ``space.shape`` (:func:`_lag_spread`),
      which is 0 exactly when K is bitwise circulant over the index group;
    * ``eigenvalues``, the ascending spectrum of the weighted operator
      diag(w) K.  The gate is bitwise: a circulant K on equal weights has
      the characters of the index group as eigenvectors, so its spectrum is
      ``dft[0]``, sorted; any other K takes the dense ``eigvalsh`` of
      sqrt(w) K sqrt(w), which by Sylvester's law of inertia is PSD exactly
      when K is.

    The other derived values are cached properties, computed when first read:
    ``dft``, ``invariance_dev`` and ``irrep_spectra``.
    """

    space: IndexSpace
    matrix: np.ndarray
    name: str = ""
    stationarity_spread: float = field(init=False, repr=False, compare=False)
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = np.ascontiguousarray(self.matrix, dtype=float)
        m = self.space.size
        if k.shape != (m, m):
            raise KernelError(f"matrix must be ({m}, {m}), got {k.shape}")
        if not np.isfinite([k.min(), k.max()]).all():
            raise KernelError("matrix has non-finite entries")
        sym = _asymmetry(k)
        if sym > PSD_TOL:
            raise KernelError(f"matrix not symmetric (dev {sym:.3e})")
        object.__setattr__(self, "matrix", _readonly(k if sym == 0.0 else (k + k.T) / 2))
        object.__setattr__(self, "stationarity_spread", _lag_spread(self.matrix, self.space.shape))
        w = self.space.weights
        if self.stationarity_spread == 0.0 and np.all(w == w[0]):
            evals = np.sort(self.dft[0])
        else:
            evals = np.linalg.eigvalsh(weighted_symmetric(self))
        floor = -PSD_TOL * max(float(w.max()), float(evals[-1]))
        if evals[0] < floor:
            raise KernelError(f"matrix not PSD (min eigenvalue {evals[0]:.3e})")
        object.__setattr__(self, "eigenvalues", _readonly(evals))

    @property
    def size(self) -> int:
        return self.space.size

    @cached_property
    def dft(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_dft_spectrum` of the matrix, in index order, read-only: the spectrum of a
        circulant K."""
        return tuple(_readonly(a) for a in _dft_spectrum(self.matrix, self.space))

    @cached_property
    def invariance_dev(self) -> float:
        """max |K[p, p] - K| over the bound action's permutations p; the identity,
        which deviates by exactly 0, is skipped."""
        action = _action(self)
        k = self.matrix
        perms = (action.perm[g] for g in range(action.group.order) if g != action.group.identity)
        return max((float(np.max(np.abs(k[np.ix_(p, p)] - k))) for p in perms), default=0.0)

    @cached_property
    def irrep_spectra(self) -> dict:
        """:func:`irrep_spectra` over the character table of the bound action's group."""
        return irrep_spectra(self, character_table(_action(self).group))

    def __repr__(self) -> str:
        return f"Kernel(name={self.name!r}, size={self.size})"


def _action(kernel: Kernel) -> GroupAction:
    """The action bound to the kernel's space; :class:`KernelError` when there is none."""
    if kernel.space.action is None:
        raise KernelError("space has no bound action")
    return kernel.space.action


def _asymmetry(k: np.ndarray) -> float:
    """max |K - K^T| of a finite K (``max`` drops a NaN), in row chunks of ``CHUNK`` doubles,
    each released before the next is built."""
    step, worst = max(1, CHUNK // k.shape[0]), 0.0
    for a in range(0, k.shape[0], step):
        d = k[a : a + step] - k[:, a : a + step].T
        worst = max(worst, float(np.abs(d, out=d).max()))
        del d
    return worst


def _circulant(profile: np.ndarray, shape: tuple) -> np.ndarray:
    """The m x m matrix K[s, t] = profile[(s - t) mod ``shape``], row-major in s and t: one copy
    of a strided view of the profile doubled along every axis (:func:`_lag_spread`'s layout),
    in which entry [s, t] sits at shape + s - t."""
    tiled = np.tile(np.reshape(profile, shape), (2,) * len(shape))
    st, start = tiled.strides, tuple(slice(n, None) for n in shape)
    view = as_strided(tiled[start], shape + shape, st + tuple(-s for s in st), writeable=False)
    return view.copy().reshape(math.prod(shape), -1)


def _lag_spread(matrix: np.ndarray, shape: tuple) -> float:
    """Max spread of ``matrix`` entries over the classes of equal lag (s - t) mod ``shape``.

    With the column index doubled periodically along every axis, the
    entries K[s, s + c] of lag -c sit at one stride pattern, so each row
    chunk is read through one strided view, and the per-lag max and min
    are kept across chunks of about ``CHUNK`` doubles, one held at a time.
    Max and min are exact, so the spread is that of any other grouping of
    the classes.
    """
    d, m = len(shape), matrix.shape[0]
    k = matrix.reshape(shape + shape)
    axes = tuple(range(d))
    step = max(1, CHUNK // (2**d * m * (m // shape[0])))  # rows of the first axis
    hi, lo = np.full(shape, -np.inf), np.full(shape, np.inf)
    for a in range(0, shape[0], step):
        tiled = np.tile(k[a : a + step], (1,) * d + (2,) * d)
        st = tiled.strides
        # view[s, c] = tiled[s, (a + s_1 + c_1, s_2 + c_2, ...)] = K[a + s, a + s + c]
        view = as_strided(
            tiled[(slice(None),) * d + (slice(a, None),)],
            shape=tiled.shape[:d] + shape,
            strides=tuple(st[i] + st[d + i] for i in axes) + st[d:],
            writeable=False,
        )
        np.maximum(hi, view.max(axis=axes), out=hi)
        np.minimum(lo, view.min(axis=axes), out=lo)
        del tiled, view  # the next chunk is built with this one released
    return float(np.max(hi - lo, initial=0.0))


def _negation(shape: tuple) -> np.ndarray:
    """Flat index of -b mod ``shape`` for each flat index b, row-major."""
    ints = np.indices(shape).reshape(len(shape), -1)
    return np.ravel_multi_index(tuple((-ints) % np.array(shape)[:, None]), shape)


def _dft_spectrum(matrix: np.ndarray, space: IndexSpace) -> tuple[np.ndarray, np.ndarray]:
    """(lambda, spec) of a circulant kernel matrix on ``space``, in index order.

    spec_b = Re DFT(K[:, 0])_b on ``space.shape``, averaged with spec_-b so a
    +-pair shares its value bitwise, -b taken mod the shape (not from the
    bound action, which on an interval is the reversal), and
    lambda_b = w spec_b is the eigenvalue of diag(w) K on the character of
    index b, for the equal weights w.
    """
    spec = np.fft.fftn(matrix[:, 0].reshape(space.shape)).real.ravel()
    spec = (spec + spec[_negation(space.shape)]) / 2.0
    return space.weights[0] * spec, spec


def _bridge(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.minimum(s, t) - s * t


def _compensated_bridge(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    # bridge recentred so every marginal integral against dt vanishes
    return np.minimum(s, t) - (s + t) / 2 + (s - t) ** 2 / 2 + 1.0 / 12


def _circle_profile(u: np.ndarray) -> np.ndarray:
    # stationary profile of the compensated bridge on the circle:
    # k(u) = (u - 1/2)^2 / 2 - 1/24 for u in [0, 1)
    u = np.mod(u, 1.0)
    return (u - 0.5) ** 2 / 2 - 1.0 / 24


@dataclass(frozen=True)
class Builtin:
    """One built-in kernel: ``axis(s, t)``, its one-axis covariance on [0, 1],
    is multiplied over the ``dim`` axes of an interval grid."""

    axis: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dim: int
    grids: tuple = ("interval",)  # the grid kinds it runs on
    tied: Optional[str] = None  # its tied-down partner in Watson's duplication law
    oracle: Optional[tuple] = None  # continuum spectrum on [0, 1]: (k -> lambda_k, multiplicity)


BUILTINS = {
    "bridge": Builtin(_bridge, 1, oracle=(lambda k: 1.0 / (np.pi**2 * k**2), 1)),
    "watson": Builtin(  # the compensated bridge, diagonal identically 1/12
        _compensated_bridge, 1, tied="bridge", oracle=(lambda k: 1.0 / (4.0 * np.pi**2 * k**2), 2)
    ),
    "sheet_tied": Builtin(_bridge, 2),
    "sheet_compensated": Builtin(_compensated_bridge, 2, tied="sheet_tied"),
    "torus_watson": Builtin(lambda s, t: _circle_profile(s - t), 1, grids=("interval", "torus")),
}
TORUS_KERNEL = next(name for name, b in BUILTINS.items() if "torus" in b.grids)


def law_kernel(dim: int) -> str:
    """The compensated kernel of Watson's duplication law on [0, 1]^dim."""
    return next(name for name, b in BUILTINS.items() if b.tied and b.dim == dim)


def builtin_kernel(name: str, space: IndexSpace) -> Kernel:
    """Construct a named covariance kernel on ``space``: the :data:`BUILTINS` record's
    one-axis covariance, multiplied over the record's ``dim`` axes of ``space`` in axis order.
    """
    if name not in BUILTINS:
        raise KernelError(f"unknown kernel {name!r}")
    rec = BUILTINS[name]
    if space.dim != rec.dim:
        raise KernelError(f"{name} kernel needs a {rec.dim}-d space")
    factors = (rec.axis(x[:, None], x[None, :]) for x in space.points.T)
    return Kernel(space, reduce(np.multiply, factors), name=name)


def check_invariance(kernel: Kernel, tol: float = INVARIANCE_TOL) -> tuple[bool, float]:
    """Max deviation of R(g.y1, g.y2) from R(y1, y2) over the bound action
    (``Kernel.invariance_dev``), and whether it is at most ``tol``."""
    dev = kernel.invariance_dev
    return dev <= tol, dev


def project_kernel(kernel: Kernel, pi: Irrep, sigma: Irrep) -> np.ndarray:
    """Project a kernel onto the (pi, sigma) character pair.

    Applies the path projection in each argument:

        R_{pi,sigma}(y1, y2) =
          (d_pi d_sigma / |G|^2) * sum_{g1,g2} chi_pi(g1) chi_sigma(g2)
                                   R(g1^{-1}.y1, g2^{-1}.y2),

    that is :func:`invdecomp.groups.project_path` on the rows, then on the
    columns.  Returns the matrix, real when both characters are.  Of an
    invariant kernel only the pairs (pi, conj pi) survive, so for real
    characters every cross projection vanishes.
    """
    action = _action(kernel)
    rows = project_path(kernel.matrix, action, pi)
    # a C-ordered rows.T gives project_path's values bitwise, about twice as
    # fast; rebinding frees the row projection before the second one runs
    rows = np.ascontiguousarray(rows.T)
    return project_path(rows, action, sigma).T


def decompose_kernel(kernel: Kernel, table) -> dict:
    """All diagonal projections R_{pi,pi} as kernels, keyed by irrep label.

    A block P K P^T with a real projection P is again a covariance; complex
    characters are rejected.
    """
    if not table.real_valued():
        raise KernelError("diagonal blocks are kernels only for real characters")
    return {
        p.label: Kernel(kernel.space, project_kernel(kernel, p, p), f"{kernel.name}[{p.label}]")
        for p in table
    }


def irrep_spectra(kernel: Kernel, table) -> dict:
    """Ascending spectrum of each isotypic block B_pi, keyed by irrep label.

    For a real character the matrix P of :func:`project_path` is an
    orthogonal projector that acts orbit by orbit, so it commutes with
    diag(sqrt(w)) when the action preserves the weights.  With U_pi an
    orthonormal basis of its range and S = :func:`weighted_symmetric`,
    sqrt(w) R_{pi,pi} sqrt(w) = P S P = U_pi B_pi U_pi^T for
    B_pi = U_pi^T S U_pi.  B_pi thus has the nonzero spectrum of
    diag(w) R_{pi,pi}, and its power sums are the :func:`weighted_traces` of
    :func:`decompose_kernel`'s blocks, for any kernel, invariant or not.
    B_pi is m_pi x m_pi, and the m_pi add up to m.

    Each column of U_pi lives on one orbit: it is an eigenvector of
    eigenvalue 1 of the orbit's local projector, found by one batched
    ``eigh`` per orbit size.  For a 1-dim character that is
    sum_g chi(g) e_{g.i}, normalized, when chi is trivial on the stabilizer
    of i, and nothing otherwise.  S U_pi comes from gathered columns of S
    and U_pi^T (S U_pi) from gathered rows, in O(|G| m^2).
    """
    action = _action(kernel)
    if not table.real_valued():
        raise KernelError("diagonal blocks are kernels only for real characters")
    perm, order = action.perm, action.group.order
    # the orbits of each size as a (count, size) index array; pos = place in its orbit
    rep = perm.min(axis=0)
    pts = np.argsort(rep, kind="stable")
    _, starts, sizes = np.unique(rep[pts], return_index=True, return_counts=True)
    pos = np.empty(kernel.size, dtype=np.intp)
    orbits = []
    for size in np.flatnonzero(np.bincount(sizes)):  # ascending; np.unique would import numpy.ma
        idx = pts[starts[sizes == size][:, None] + np.arange(size)]
        pos[idx] = np.arange(size)
        orbits.append(idx)
    width = orbits[-1].shape[1]
    s = weighted_symmetric(kernel)
    out = {}
    for p in table:
        coef = p.values.real * (p.dim / order)
        rows, vals = [], []
        for idx in orbits:
            n, size = idx.shape
            # local[o, a, b] = P[idx[o, a], idx[o, b]] = sum over g with g.idx[o, b] = idx[o, a]
            local = np.zeros((n, size, size))
            for g in range(order):
                local[np.arange(n)[:, None], pos[perm[g][idx]], np.arange(size)] += coef[g]
            lam, vec = np.linalg.eigh(local)
            keep = lam > 0.5
            pad = ((0, 0), (0, width - size))
            vals.append(np.pad(vec.transpose(0, 2, 1)[keep], pad))
            rows.append(np.pad(np.broadcast_to(idx[:, None, :], (n, size, size))[keep], pad))
        rows, vals = np.concatenate(rows), np.concatenate(vals)
        su = sum(s[:, rows[:, a]] * vals[:, a] for a in range(width))
        block = sum(vals[:, a, None] * su[rows[:, a]] for a in range(width))
        out[p.label] = np.linalg.eigvalsh(block)
    return out


def contract_power(kernel: Kernel, n: int) -> np.ndarray:
    """Chain of ``n`` kernel factors joined by n-1 weighted contractions: K (diag(w) K)^(n-1)."""
    if n < 1:
        raise KernelError("n must be >= 1")
    k = kernel.matrix
    wk = k * kernel.space.weights[None, :]
    out = k
    for _ in range(n - 1):
        out = wk @ out
    return out


def weighted_symmetric(kernel: Kernel) -> np.ndarray:
    """sqrt(w) K sqrt(w): symmetric, and similar to the weighted operator diag(w) K."""
    rw = np.sqrt(kernel.space.weights)
    out = rw[:, None] * kernel.matrix
    out *= rw[None, :]
    return out


def weighted_eigh(kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs (lambda, V) of :func:`weighted_symmetric`.

    lambda is the spectrum of diag(w) K; the columns of V / sqrt(w) are its
    eigenfunctions, orthonormal in the weighted inner product.
    """
    return np.linalg.eigh(weighted_symmetric(kernel))


def weighted_traces(kernel: Kernel, n_max: int) -> np.ndarray:
    """tr((diag(w) K)^n) for n = 1..n_max as power sums of ``kernel.eigenvalues``.

    Equal to ``trace(diag(w) contract_power(K, n))``, with no
    decomposition beyond the one the PSD check already ran.
    """
    evals = kernel.eigenvalues
    return np.array([float(np.sum(evals**n)) for n in range(1, n_max + 1)])
