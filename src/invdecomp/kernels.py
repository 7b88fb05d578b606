"""Quadrature index spaces, covariance kernels, and their symmetry algebra.

An :class:`IndexSpace` is a finite quadrature rule (points, weights) with an optional
group action by permutations, read as the cyclic index group Z_n1 x ... x Z_nd of its
``shape``, row-major.  A :class:`Kernel` is a symmetric PSD matrix over such a space,
stored as that m x m matrix or, for a stationary kernel, as its m lags (``Kernel.lags``);
each built-in is one :class:`Builtin` record of :data:`BUILTINS`.  The operations here are
the kernel-side analogues of path projection: projecting a kernel onto a pair of
characters, checking that the blocks sum back to it (:func:`decomposition_check`), their
spectra (:func:`irrep_spectra`), and invariance under the action.

The weighted operator diag(w) K is solved through the similar symmetric matrix
S = sqrt(w) K sqrt(w), formed only by :func:`weighted_symmetric`.  A kernel that is
bitwise circulant over its index group on equal weights has the group's characters as
eigenvectors (Wood and Chan, 1994), so its spectrum is the DFT of its lag profile
(``Kernel.dft``); any other takes the dense spectrum of S.  :func:`_syevd` is the one
dense solve, of the PSD check's spectrum and of :func:`weighted_eigh`: LAPACK's dsyevd in
place on the buffer of S, bitwise numpy's ``eigvalsh`` and ``eigh``.

Every pass of the checks reads a kernel through ``Kernel.rows``, ``CHUNK`` doubles of rows
at a time, so the only m x m array a check makes is S, which the solve overwrites with its
eigenvectors.  :func:`recording` lists the path a computation takes, as it takes it.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from invdecomp.groups import (
    GroupAction,
    Irrep,
    _as_readonly,
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
    "decomposition_check",
    "irrep_spectra",
    "contract_power",
    "weighted_traces",
    "weighted_symmetric",
    "weighted_eigh",
    "recording",
]

PSD_TOL = 1e-10
INVARIANCE_TOL = 1e-9  # check_invariance's default; the symmetry checks' guard unless given the run's
CHUNK = 1 << 16  # doubles per array of every streamed or row-chunked pass: 512 KiB, cache-sized


class KernelError(ValueError):
    """Raised for malformed spaces, kernels, or incompatible operands."""


_facts: Optional[list] = None  # the list of the open recording(), if any


@contextlib.contextmanager
def recording():
    """Yield a list that gains one string per fact of the computation path while the block
    runs, in the order taken: ``eigh(<shape>)`` or ``eigvalsh(<shape>)`` per eigensolve,
    ``irrep_spectra`` per isotypic split, ``dft(<index shape>)`` or ``dense(<m>)`` per
    spectrum path, ``matrix`` per m x m kernel matrix built, and
    ``fourier(axes <box>, chunk <width>)`` per torus factor.  An inner block records alone."""
    global _facts
    outer, _facts = _facts, []
    try:
        yield _facts
    finally:
        _facts = outer


def _note(fact: Callable[[], str]) -> None:
    """Append ``fact()`` to the open recording; outside one, ``fact`` is not called."""
    if _facts is not None:
        _facts.append(fact())


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
        object.__setattr__(self, "points", _as_readonly(pts))
        object.__setattr__(self, "weights", _as_readonly(w))

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
        perm1, perm2 = mid.action.perm, last.action.perm
        perm = perm1[:, None, :, None] * m2 + perm2[None, :, None, :]
        grp = direct_product(mid.action.group, last.action.group)
        action = GroupAction(grp, perm.reshape(grp.order, m1 * m2))
    name = " x ".join(s.name or "?" for s in spaces)
    return IndexSpace(pts, w, action, name=name, shape=mid.shape + last.shape)


@dataclass(frozen=True, eq=False)
class Kernel:
    """Symmetric positive semi-definite matrix over an index space.

    ``Kernel(space, matrix, name)`` stores a dense kernel: a matrix with a non-finite entry or
    an asymmetry above ``PSD_TOL`` is rejected, and the matrix is stored as (K + K^T) / 2 (a
    bitwise symmetric, C-ordered float64 one is kept itself, read-only).  :func:`_stationary`
    stores a lag kernel: ``lags`` holds the m values of its even profile p, and
    K[s, t] = p[(s - t) mod ``space.shape``]; its ``matrix`` is built by :func:`_circulant`
    when first read, and :meth:`rows` and ``dft`` never build it.

    The PSD check computes, once per kernel, ``stationarity_spread`` (:func:`_lag_spread`; 0
    for a lag kernel, with no pass) and ``eigenvalues``, the ascending spectrum of diag(w) K:
    ``dft[0]`` sorted when the spread is 0 on equal weights, else the dense spectrum of
    sqrt(w) K sqrt(w), which by Sylvester's law of inertia is PSD exactly when K is.
    ``dft``, ``invariance_dev`` and ``irrep_spectra`` are computed when first read.
    """

    space: IndexSpace
    matrix: np.ndarray
    name: str = ""
    stationarity_spread: float = field(init=False, repr=False, compare=False)
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    lags: Optional[np.ndarray] = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        dense = self.lags is None
        k = np.ascontiguousarray(self.matrix, dtype=float) if dense else self.lags
        m = self.space.size
        if k.shape != ((m, m) if dense else (m,)):
            raise KernelError(f"matrix must be ({m}, {m}), got {k.shape}")
        if not np.isfinite([k.min(), k.max()]).all():
            raise KernelError("matrix has non-finite entries")
        if dense:
            sym = _asymmetry(k)
            if sym > PSD_TOL:
                raise KernelError(f"matrix not symmetric (dev {sym:.3e})")
            object.__setattr__(self, "matrix", _as_readonly(k if sym == 0.0 else (k + k.T) / 2))
        # a lag kernel is circulant by construction
        spread = _lag_spread(self.matrix, self.space.shape) if dense else 0.0
        object.__setattr__(self, "stationarity_spread", spread)
        w = self.space.weights
        if self.stationarity_spread == 0.0 and np.all(w == w[0]):
            evals = np.sort(self.dft[0])
        else:
            evals = _syevd(weighted_symmetric(self), vectors=False)
            _note(lambda: f"dense({m})")
        floor = -PSD_TOL * max(float(w.max()), float(evals[-1]))
        if evals[0] < floor:
            raise KernelError(f"matrix not PSD (min eigenvalue {evals[0]:.3e})")
        object.__setattr__(self, "eigenvalues", _as_readonly(evals))
        if dense:
            _note(lambda: "matrix")

    def __getattr__(self, name: str):
        # reached only for an attribute the instance lacks: a lag kernel's matrix, built once
        lags = self.__dict__.get("lags")
        if name != "matrix" or lags is None:
            raise AttributeError(f"'Kernel' object has no attribute {name!r}")
        matrix = _as_readonly(_circulant(lags, self.space.shape))
        _note(lambda: "matrix")
        object.__setattr__(self, "matrix", matrix)
        return matrix

    @property
    def size(self) -> int:
        return self.space.size

    def rows(self, index: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Rows ``index`` (ints) of the matrix, a (len(index), m) array, written into ``out``
        when given: taken from a dense kernel's matrix, and copied one at a time from a lag
        kernel's :func:`_lag_view`, bitwise the rows of its ``matrix``, which is not built.
        An index outside 0..m-1 raises :class:`KernelError` for either kind."""
        if len(index) and not 0 <= np.min(index) <= np.max(index) < self.size:
            raise KernelError(f"row index out of range for a kernel of size {self.size}")
        if out is None:
            out = np.empty((len(index), self.size))
        if self.lags is None:
            return np.take(self.matrix, index, axis=0, out=out, mode="clip")
        shape = self.space.shape
        view = _lag_view(self.lags, shape)
        for row, s in zip(out.reshape((len(out),) + shape), zip(*np.unravel_index(index, shape))):
            row[...] = view[s]  # a basic index: a view, copied with no temporary
        return out

    @cached_property
    def dft(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_dft_spectrum` of column 0, in index order, read-only: the spectrum of a
        circulant K.  Column 0 is bitwise row 0, which ``rows`` reads without the matrix."""
        return tuple(_as_readonly(a) for a in _dft_spectrum(self.rows([0])[0], self.space))

    @cached_property
    def invariance_dev(self) -> float:
        """max |K[p, p] - K| over the bound action's permutations p, by :func:`_moved_dev`;
        the identity, which deviates by exactly 0, is skipped."""
        action = _action(self)
        perms = (action.perm[g] for g in range(action.group.order) if g != action.group.identity)
        return max((_moved_dev(self, p) for p in perms), default=0.0)

    @cached_property
    def irrep_spectra(self) -> dict:
        """:func:`irrep_spectra` of the kernel, computed once."""
        return irrep_spectra(self)

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


def _moved_dev(kernel: Kernel, p: np.ndarray) -> float:
    """max |K[p, p] - K| of a finite K, in row chunks of ``CHUNK`` doubles read by
    ``Kernel.rows``: each chunk's rows p[a:b] and a:b, and then the columns p of the first,
    go into three buffers that every chunk reuses."""
    m = kernel.size
    step, worst = max(1, CHUNK // m), 0.0
    moved, own, d = (np.empty((min(step, m), m)) for _ in range(3))
    for a in range(0, m, step):
        n = min(step, m - a)
        kernel.rows(p[a : a + n], out=moved[:n])
        np.take(moved[:n], p, axis=1, out=d[:n], mode="clip")
        np.subtract(d[:n], kernel.rows(np.arange(a, a + n), out=own[:n]), out=d[:n])
        worst = max(worst, float(np.abs(d[:n], out=d[:n]).max()))
    return worst


def _reuse(work: Optional[dict], key, shape: tuple) -> np.ndarray:
    """A C-ordered ``shape`` array over the first doubles of the flat buffer ``work[key]``,
    allocated, or replaced by a larger one, when it cannot hold them; new when ``work`` is None."""
    n = math.prod(shape)
    if work is None:
        return np.empty(shape)
    if key not in work or work[key].size < n:
        work[key] = np.empty(n)
    return work[key][:n].reshape(shape)


def _lag_view(profile: np.ndarray, shape: tuple) -> np.ndarray:
    """The read-only (shape, shape) view K[s, t] = profile[(s - t) mod ``shape``], row-major in s
    and t: a strided view of the profile doubled along every axis, in which entry [s, t] sits
    at shape + s - t.  It holds the doubled profile, 2^d m values, and no m x m array."""
    tiled = np.tile(np.reshape(profile, shape), (2,) * len(shape))
    st, start = tiled.strides, tuple(slice(n, None) for n in shape)
    return as_strided(tiled[start], shape + shape, st + tuple(-s for s in st), writeable=False)


def _circulant(profile: np.ndarray, shape: tuple) -> np.ndarray:
    """The m x m matrix K[s, t] = profile[(s - t) mod ``shape``]: one copy of :func:`_lag_view`."""
    return _lag_view(profile, shape).copy().reshape(math.prod(shape), -1)


def _stationary(column: np.ndarray, space: IndexSpace, name: str) -> Kernel:
    """The lag kernel of the lag column p = K[:, 0]: K[s, t] = (p_b + p_-b) / 2 at the lag
    b = (s - t) mod ``space.shape``, bitwise the (C + C^T) / 2 that a :class:`Kernel` stores
    for the circulant C of p.  It is made without ``Kernel.__init__``, which takes a matrix,
    and checked by the class's ``__post_init__``, as every kernel is."""
    kernel = object.__new__(Kernel)
    even = (column + column[_negation(space.shape)]) / 2
    vars(kernel).update(space=space, name=name, lags=_as_readonly(even))
    kernel.__post_init__()
    return kernel


def _lag_spread(matrix: np.ndarray, shape: tuple) -> float:
    """Max spread of ``matrix`` entries over the classes of equal lag (s - t) mod ``shape``:
    0 exactly when the matrix is bitwise circulant over the index group.

    Row s of ``_lag_view(arange(m), shape)`` holds, at lag b, the column of row s with lag b,
    so each row is gathered by lag into a buffer of ``CHUNK`` doubles, and the per-lag max
    and min are kept across buffers: the pass holds about one ``CHUNK``.  Max and min are
    exact, so the spread does not depend on the order the entries are read in."""
    m = matrix.shape[0]
    view, step = _lag_view(np.arange(m), shape), max(1, CHUNK // m)
    buf = np.empty((min(step, m),) + shape)
    hi, lo = np.full(shape, -np.inf), np.full(shape, np.inf)
    for a in range(0, m, step):
        n = min(step, m - a)
        for row, s in zip(buf, range(a, a + n)):
            np.take(matrix[s], view[np.unravel_index(s, shape)], out=row, mode="clip")
        np.maximum(hi, buf[:n].max(axis=0), out=hi)
        np.minimum(lo, buf[:n].min(axis=0), out=lo)
    return float(np.max(hi - lo, initial=0.0))


def _negation(shape: tuple) -> np.ndarray:
    """Flat index of -b mod ``shape`` for each flat index b, row-major."""
    ints = np.indices(shape).reshape(len(shape), -1)
    return np.ravel_multi_index(tuple((-ints) % np.array(shape)[:, None]), shape)


def _dft_spectrum(column: np.ndarray, space: IndexSpace) -> tuple[np.ndarray, np.ndarray]:
    """(lambda, spec) of a circulant kernel on ``space`` with column 0 ``column``, in index order.

    spec_b = Re DFT(K[:, 0])_b on ``space.shape``, averaged with spec_-b so a
    +-pair shares its value bitwise, -b taken mod the shape (not from the
    bound action, which on an interval is the reversal), and
    lambda_b = w spec_b is the eigenvalue of diag(w) K on the character of
    index b, for the equal weights w.
    """
    _note(lambda: f"dft({'x'.join(map(str, space.shape))})")
    spec = np.fft.fftn(column.reshape(space.shape)).real.ravel()
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
    is multiplied over the ``dim`` axes of an interval grid.  A ``stationary`` one
    depends on (s - t) mod 1 alone, so on a midpoint grid it is circulant."""

    axis: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dim: int
    stationary: bool = False
    grids: tuple = ("interval",)  # the grid kinds it runs on
    tied: Optional[str] = None  # its tied-down partner in Watson's duplication law
    oracle: Optional[tuple] = None  # continuum spectrum on [0, 1]: (k -> lambda_k, multiplicity)


BUILTINS = {
    "bridge": Builtin(_bridge, 1, oracle=(lambda k: 1.0 / (np.pi**2 * k**2), 1)),
    "watson": Builtin(  # the compensated bridge, diagonal identically 1/12
        _compensated_bridge, 1, stationary=True, tied="bridge",
        oracle=(lambda k: 1.0 / (4.0 * np.pi**2 * k**2), 2),
    ),
    "sheet_tied": Builtin(_bridge, 2),
    "sheet_compensated": Builtin(_compensated_bridge, 2, stationary=True, tied="sheet_tied"),
    "torus_watson": Builtin(
        lambda s, t: _circle_profile(s - t), 1, stationary=True, grids=("interval", "torus")
    ),
}
TORUS_KERNEL = next(name for name, b in BUILTINS.items() if "torus" in b.grids)


def law_kernel(dim: int) -> str:
    """The compensated kernel of Watson's duplication law on [0, 1]^dim."""
    return next(name for name, b in BUILTINS.items() if b.tied and b.dim == dim)


def builtin_kernel(name: str, space: IndexSpace) -> Kernel:
    """Construct a named covariance kernel on ``space``: the :data:`BUILTINS` record's
    one-axis covariance, multiplied over the record's ``dim`` axes of ``space`` in axis order.

    A stationary record on bitwise the midpoint grid of ``space.shape`` is evaluated on the
    lag column alone and kept as its lags by :func:`_stationary`; any other, on every pair of
    points.
    """
    if name not in BUILTINS:
        raise KernelError(f"unknown kernel {name!r}")
    rec = BUILTINS[name]
    if space.dim != rec.dim:
        raise KernelError(f"{name} kernel needs a {rec.dim}-d space")
    shape, points = space.shape, space.points
    midpoints = (np.indices(shape).reshape(len(shape), -1).T + 0.5) / shape
    if rec.stationary and np.array_equal(points, midpoints):
        return _stationary(reduce(np.multiply, (rec.axis(x, x[0]) for x in points.T)), space, name)
    factors = (rec.axis(x[:, None], x[None, :]) for x in points.T)
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


def decompose_kernel(kernel: Kernel) -> dict:
    """All diagonal projections R_{pi,pi} as kernels, keyed by the labels of the irreps of the
    bound action's group.

    A block P K P^T with a real projection P is again a covariance; complex
    characters are rejected.
    """
    table = character_table(_action(kernel).group)
    if not table.real_valued():
        raise KernelError("diagonal blocks are kernels only for real characters")
    return {
        p.label: Kernel(kernel.space, project_kernel(kernel, p, p), f"{kernel.name}[{p.label}]")
        for p in table
    }


def decomposition_check(kernel: Kernel, tol: float) -> dict:
    """Of an invariant kernel only the (pi, conj pi) blocks survive; they sum to it, over the
    irreps of the bound action's group.

    Reports the largest deviation of the sum of the (pi, conj pi) blocks from K
    (``sum_deviation``), the largest entry of any other block (``max_cross_projection``), each
    block's weighted trace (``component_trace``), and whether both maxima are at most ``tol``.
    Each block is :func:`project_kernel`'s R_{pi,sigma}, built transposed (K is bitwise
    symmetric) ``CHUNK`` doubles of rows at a time from the rows of K that ``Kernel.rows``
    reads, with both character sums in :func:`invdecomp.groups.project_path`'s order, so every
    entry is bitwise the whole-matrix one.
    """
    action, m, w = _action(kernel), kernel.size, kernel.space.weights
    table = character_table(action.group)
    order, inv_perm = action.group.order, action.perm[action.group.inv]
    step = max(1, CHUNK // m)
    k_rows = np.empty((min(step, m), m))
    # complex characters need complex blocks; a real pair's values are the same in either
    dtype = float if table.real_valued() else complex
    r_p, term, block, total = (np.empty_like(k_rows, dtype) for _ in range(4))
    diags, cross, sum_dev = {}, 0.0, 0.0

    def character_sum(out, irrep, gather):
        # (d / |G|) sum_g chi(g) gather(g), added as project_path adds it
        chi = irrep.values.real if irrep.real_valued else irrep.values
        np.multiply(chi[0], gather(0), out=out)
        for g in range(1, order):
            out += np.multiply(chi[g], gather(g), out=term[: len(out)])
        out *= irrep.dim / order
        return out

    for a in range(0, m, step):
        n = min(step, m - a)
        diag = (np.arange(n), a + np.arange(n))  # the diagonal entries of rows a, ..., a+n-1
        tot = total[:n]
        tot.fill(0.0)
        for p in table:
            gather = lambda g: kernel.rows(inv_perm[g][a : a + n], out=k_rows[:n])
            rows = character_sum(r_p[:n], p, gather)
            for q in table:
                take = lambda g: np.take(rows, inv_perm[g], axis=1, out=term[:n], mode="clip")
                blk = character_sum(block[:n], q, take)  # rows a, ..., a+n-1 of R_{p,q}^T
                if np.allclose(q.values, np.conj(p.values)):
                    tot += blk
                    diags.setdefault(p.label, np.empty(m))[a : a + n] = blk[diag].real
                else:
                    cross = max(cross, float(np.max(np.abs(blk, out=blk).real)))
        np.subtract(tot, kernel.rows(np.arange(a, a + n), out=k_rows[:n]), out=tot)
        sum_dev = max(sum_dev, float(np.max(np.abs(tot, out=tot).real)))
    return {
        "ok": bool(sum_dev <= tol and cross <= tol),
        "sum_deviation": sum_dev,
        "max_cross_projection": cross,
        "tolerance": tol,
        "component_trace": {label: float(np.sum(d * w)) for label, d in diags.items()},
    }


def irrep_spectra(kernel: Kernel) -> dict:
    """Ascending spectrum of each isotypic block B_pi = U_pi^T S U_pi, keyed by the label of
    each irrep pi of the bound action's group.

    For a real character the projector P of :func:`project_path` acts orbit by orbit, so it
    commutes with diag(sqrt(w)) when the action preserves the weights; with U_pi an
    orthonormal basis of its range and S = :func:`weighted_symmetric`,
    sqrt(w) R_{pi,pi} sqrt(w) = P S P = U_pi B_pi U_pi^T.  So B_pi, m_pi x m_pi with the m_pi
    adding up to m, has the nonzero spectrum of diag(w) R_{pi,pi}, and its power sums are the
    :func:`weighted_traces` of :func:`decompose_kernel`'s blocks, for any kernel.

    Each column of U_pi lives on one orbit: an eigenvector of eigenvalue 1 of the orbit's
    local projector, one batched ``eigh`` per orbit size.  B_pi is built ``CHUNK`` doubles of
    rows at a time from rows of S that ``Kernel.rows`` reads and that are scaled as
    :func:`weighted_symmetric` scales them, so neither K, S nor S U_pi is held, and each sum
    runs in the order of the whole-matrix products, so B_pi is bitwise theirs.
    """
    _note(lambda: "irrep_spectra")
    action = _action(kernel)
    table = character_table(action.group)
    if not table.real_valued():
        raise KernelError("diagonal blocks are kernels only for real characters")
    perm, order, m = action.perm, action.group.order, kernel.size
    # the orbits of each size as a (count, size) index array; pos = place in its orbit
    rep = perm.min(axis=0)
    pts = np.argsort(rep, kind="stable")
    _, starts, sizes = np.unique(rep[pts], return_index=True, return_counts=True)
    pos = np.empty(m, dtype=np.intp)
    orbits = []
    for size in np.flatnonzero(np.bincount(sizes)):  # ascending; np.unique would import numpy.ma
        idx = pts[starts[sizes == size][:, None] + np.arange(size)]
        pos[idx] = np.arange(size)
        orbits.append(idx)
    width = orbits[-1].shape[1]
    rw, step = np.sqrt(kernel.space.weights), max(1, CHUNK // m)
    srows, work = np.empty((min(step, m), m)), {}
    out = {}
    for p in table:
        coef = p.values.real * (p.dim / order)
        points, vals = [], []
        for idx in orbits:
            n, size = idx.shape
            # local[o, a, b] = P[idx[o, a], idx[o, b]] = sum over g with g.idx[o, b] = idx[o, a]
            local = np.zeros((n, size, size))
            for g in range(order):
                local[np.arange(n)[:, None], pos[perm[g][idx]], np.arange(size)] += coef[g]
            _note(lambda: f"eigh({n}x{size}x{size})")
            lam, vec = np.linalg.eigh(local)
            keep = lam > 0.5
            pad = ((0, 0), (0, width - size))
            vals.append(np.pad(vec.transpose(0, 2, 1)[keep], pad))
            points.append(np.pad(np.broadcast_to(idx[:, None, :], (n, size, size))[keep], pad))
        # column k of U_pi is vals[k, a] at the point points[k, a], a < width
        points, vals = np.concatenate(points), np.concatenate(vals)
        n_pi = len(points)
        block = _reuse(work, "block", (n_pi, n_pi))
        block.fill(0.0)
        for c in range(0, n_pi, step):
            nc = min(step, n_pi - c)
            su, term = (_reuse(work, key, (nc, n_pi)) for key in ("su", "term"))
            for a in range(width):
                # rows r of S, rounded as weighted_symmetric rounds them, then rows r of S U_pi
                r = points[c : c + nc, a]
                s = kernel.rows(r, out=srows[:nc])
                np.multiply(rw[r, None], s, out=s)
                s *= rw[None, :]
                su.fill(0.0)
                for b in range(width):
                    np.take(s, points[:, b], axis=1, out=term, mode="clip")
                    su += np.multiply(term, vals[:, b], out=term)
                su *= vals[c : c + nc, a, None]
                block[c : c + nc] += su
        _note(lambda: f"eigvalsh({n_pi}x{n_pi})")
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
    """sqrt(w) K sqrt(w): symmetric, and similar to the weighted operator diag(w) K.

    It is the F-ordered transpose of a C-ordered buffer that ``Kernel.rows`` fills ``CHUNK``
    doubles of rows at a time, so it holds S column-major, as LAPACK reads it (:func:`_syevd`),
    with no m x m array but the result.  K is bitwise symmetric, so entry [i, j] is bitwise
    that of (sqrt(w)[:, None] * K) * sqrt(w)[None, :].
    """
    rw, m = np.sqrt(kernel.space.weights), kernel.size
    out, step = np.empty((m, m)), max(1, CHUNK // m)
    for a in range(0, m, step):
        rows = kernel.rows(np.arange(a, min(a + step, m)), out=out[a : a + step])
        rows *= rw[None, :]
        np.multiply(rw[a : a + step, None], rows, out=rows)
    return out.T


@cache
def _openblas() -> Optional[ctypes.CDLL]:
    """The OpenBLAS that numpy's wheel ships in ``numpy.libs`` and ``np.linalg`` calls, with
    64-bit integers and its symbols prefixed ``scipy_``; None when numpy ships no such
    library or it lacks ``scipy_dsyevd_64_``, as a numpy built on a system LAPACK does."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        name = next(n for n in sorted(os.listdir(libs)) if n.startswith("libscipy_openblas64_"))
        lib = ctypes.CDLL(os.path.join(libs, name))
        syevd = lib.scipy_dsyevd_64_
    except (OSError, StopIteration, AttributeError):
        return None
    i64, ptr, size = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p, ctypes.c_size_t
    # JOBZ, UPLO, N, A, LDA, W, WORK, LWORK, IWORK, LIWORK, INFO and the two strings' lengths
    syevd.argtypes = [ctypes.c_char_p] * 2 + [i64, ptr, i64, ptr, ptr, i64, ptr, i64, i64, size, size]
    syevd.restype = None
    return lib


def _syevd(s: np.ndarray, vectors: bool):
    """The ascending eigenvalues of the symmetric F-ordered ``s`` (as :func:`weighted_symmetric`
    returns it) and, with ``vectors``, its eigenvectors: ``np.linalg.eigvalsh(s)`` or
    ``np.linalg.eigh(s)``, bitwise at the same BLAS thread count.

    Both are LAPACK's dsyevd on the lower triangle of a column-major copy of ``s``; this calls
    :func:`_openblas`'s dsyevd in place on the C-ordered buffer ``s.T``, which holds ``s``
    column-major, so it reads the same triangle even where ``s`` is not bitwise symmetric.
    The solve holds ``s`` and dsyevd's queried workspace and no copy, and the eigenvectors
    overwrite ``s``, which is returned.  A nonzero ``info`` raises ``LinAlgError``, as numpy
    does.  Without the library numpy solves a copy.
    """
    _note(lambda: f"{'eigh' if vectors else 'eigvalsh'}({len(s)}x{len(s)})")
    lib = _openblas()
    if lib is None:
        return np.linalg.eigh(s) if vectors else np.linalg.eigvalsh(s)
    a, m = s.T, len(s)
    if a.shape != (m, m) or a.dtype != np.float64 or not a.flags.c_contiguous:
        raise ValueError("need an F-ordered float64 square matrix")
    syevd, jobz = lib.scipy_dsyevd_64_, b"V" if vectors else b"N"
    n, info = ctypes.c_int64(m), ctypes.c_int64(0)
    evals, work, iwork = np.empty(m), np.empty(1), np.empty(1, np.int64)

    def call(lwork: int, liwork: int) -> None:
        lw, liw = ctypes.c_int64(lwork), ctypes.c_int64(liwork)
        syevd(jobz, b"L", n, a.ctypes, n, evals.ctypes, work.ctypes, lw, iwork.ctypes, liw, info, 1, 1)
        if info.value != 0:
            raise np.linalg.LinAlgError(f"Eigenvalues did not converge (dsyevd info {info.value})")

    call(-1, -1)  # the workspace query
    lwork, liwork = int(work[0]), int(iwork[0])
    work, iwork = np.empty(lwork), np.empty(liwork, np.int64)
    call(lwork, liwork)
    return (evals, s) if vectors else evals


def weighted_eigh(kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs (lambda, V) of :func:`weighted_symmetric`, by :func:`_syevd` in
    place: V is F-ordered, in the buffer S was built in, and bitwise ``np.linalg.eigh(S)``'s.

    lambda is the spectrum of diag(w) K; the columns of V / sqrt(w) are its
    eigenfunctions, orthonormal in the weighted inner product.
    """
    return _syevd(weighted_symmetric(kernel), vectors=True)


def weighted_traces(kernel: Kernel, n_max: int) -> np.ndarray:
    """tr((diag(w) K)^n) for n = 1..n_max as power sums of ``kernel.eigenvalues``.

    Equal to ``trace(diag(w) contract_power(K, n))``, with no
    decomposition beyond the one the PSD check already ran.
    """
    evals = kernel.eigenvalues
    return np.array([float(np.sum(evals**n)) for n in range(1, n_max + 1)])
