"""Weighted eigendecomposition, eigenspace invariance, canonical splitting.

The eigenproblem solved here is the discrete Fredholm equation
``K diag(w) f = lambda f`` with eigenvectors orthonormal under the weighted
inner product ``<f, g>_w = sum_i f_i g_i w_i``.  When the kernel is invariant
under a group action, each eigenvalue cluster spans a representation of the
group and splits canonically into character-projected sub-bases.

:func:`check_eigenspace_invariance` and :func:`canonical_decomposition`
work on slabs: clusters of one width k, in cluster order, at most
``SLAB // k`` of them (one when k > SLAB).  A slab's columns are gathered
once; each group element is one row gather of the slab, each irrep one
:func:`invdecomp.groups.project_path` call and one stacked SVD, so every
cluster's SVD sees the same input as a cluster-by-cluster loop.  Beyond
their outputs the two functions hold one slab's arrays at a time, a few
``max(SLAB, k) * m`` blocks.  The invariance check returns a JSON-ready dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from invdecomp.groups import CharacterTable, project_path
from invdecomp.kernels import Kernel, KernelError, weighted_eigh

__all__ = [
    "Spectrum",
    "eigendecompose",
    "check_eigenspace_invariance",
    "DecompositionError",
    "ClusterSplit",
    "canonical_decomposition",
    "SPECTRUM_CSV_HEADER",
    "spectrum_rows",
    "spectrum_to_csv",
]


SLAB = 256  # basis columns per slab
CLUSTER_REL_TOL = 1e-6  # relative eigenvalue gap below which eigendecompose joins a cluster


class DecompositionError(KernelError):
    """Canonical splitting failed to account for a full eigenspace."""


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Descending weighted spectrum with eigenvalue clusters.

    ``basis`` columns are eigenvectors, orthonormal in <.,.>_w; ``clusters``
    are half-open index ranges grouping eigenvalues whose consecutive
    relative gaps fall below ``CLUSTER_REL_TOL``.
    """

    space: object
    eigenvalues: np.ndarray
    basis: np.ndarray
    clusters: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for arr in (self.eigenvalues, self.basis):
            np.asarray(arr).setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    def __repr__(self) -> str:
        return f"Spectrum(size={self.size}, clusters={len(self.clusters)})"


def eigendecompose(kernel: Kernel) -> Spectrum:
    """Solve K diag(w) f = lambda f through the symmetric similar problem.

    With W = diag(sqrt(w)), the matrix W K W is symmetric with the same
    spectrum; its orthonormal eigenvectors v (from
    :func:`invdecomp.kernels.weighted_eigh`) map back to f = v / sqrt(w),
    which are orthonormal in the weighted inner product.
    """
    evals, vecs = weighted_eigh(kernel)
    evals = evals[::-1]
    basis = vecs[:, ::-1] / np.sqrt(kernel.space.weights)[:, None]

    lmax = max(float(evals[0]), 0.0)
    clusters = []
    start = 0
    for i in range(len(evals) - 1):
        gap = evals[i] - evals[i + 1]
        scale = max(abs(float(evals[i])), lmax * 1e-15, np.finfo(float).tiny)
        if gap / scale > CLUSTER_REL_TOL:
            clusters.append((start, i + 1))
            start = i + 1
    clusters.append((start, len(evals)))
    return Spectrum(
        space=kernel.space,
        eigenvalues=np.ascontiguousarray(evals),
        basis=np.ascontiguousarray(basis),
        clusters=tuple(clusters),
    )


def _slabs(clusters) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(cluster ids, (c, k) basis columns) of each slab, as the module docstring defines it."""
    by_width: dict = {}
    for i, (a, b) in enumerate(clusters):
        by_width.setdefault(b - a, []).append(i)
    starts = np.array([a for a, _ in clusters])
    for k, ids in by_width.items():
        step = max(1, SLAB // k)
        for j in range(0, len(ids), step):
            chunk = np.array(ids[j : j + step])
            yield chunk, starts[chunk][:, None] + np.arange(k)


def _leak_norms(bt: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(c, k) mu-norms of the rows of v outside the span of the mu-orthonormal
    rows of bt; both are (c, k, m) stacks of c clusters of k vectors."""
    coords = np.conj(bt) @ (v * w).transpose(0, 2, 1)  # coords[c, i, j] = <bt_i, v_j>_w
    leak = v - coords.transpose(0, 2, 1) @ bt
    return np.sqrt(np.abs(np.sum(np.conj(leak) * leak * w, axis=2)).real)


def check_eigenspace_invariance(spectrum: Spectrum, tol: float = 1e-8) -> dict:
    """Residual of each translated cluster basis outside its own span.

    For an invariant kernel every eigenspace is stable under the translation
    (g.f)(y) = f(g^{-1}.y); ``per_cluster`` lists the worst weighted residual
    norm of each cluster, relative to the unit norm of the translated vector,
    and ``max_residual`` the worst of them, which passes (``ok``) when at
    most ``tolerance``.  The identity, whose residual is 0 in exact
    arithmetic, is skipped.  Clusters are processed a slab at a time (see the
    module docstring).
    """
    action = spectrum.space.action
    if action is None:
        raise KernelError("no action bound to the space")
    w = spectrum.space.weights
    inv_perm = action.perm[action.group.inv]
    per_cluster = np.zeros(len(spectrum.clusters))
    for ids, cols in _slabs(spectrum.clusters):
        bt = spectrum.basis.T[cols]
        for g in range(action.group.order):
            if g != action.group.identity:
                res = _leak_norms(bt, bt[:, :, inv_perm[g]], w).max(axis=1)
                per_cluster[ids] = np.maximum(per_cluster[ids], res)
    worst = float(per_cluster.max())
    return {"ok": worst <= tol, "tolerance": tol, "max_residual": worst, "per_cluster": per_cluster.tolist()}


@dataclass(frozen=True, eq=False)
class ClusterSplit:
    """Canonical decomposition of one eigenvalue cluster."""

    index_range: tuple[int, int]
    eigenvalue: float
    dims: dict          # irrep label -> dimension of the projected sub-space
    bases: dict         # irrep label -> mu-orthonormal sub-basis (labels with dim > 0)
    max_residual: float  # worst off-cluster leakage among projected vectors


def canonical_decomposition(
    spectrum: Spectrum,
    table: CharacterTable,
    tol: float = 1e-8,
) -> list[ClusterSplit]:
    """Split every eigenvalue cluster by character projections.

    Projects each cluster basis vector with every irrep, verifies the images
    stay inside the cluster span, orthonormalizes the nonzero images, and
    checks the dimensions add back to the cluster multiplicity.  Clusters are
    processed a slab at a time (see the module docstring); a slab that starts
    after a failing cluster is skipped, and DecompositionError names the
    first failing cluster in cluster order.
    """
    action = spectrum.space.action
    if action is None:
        raise KernelError("no action bound to the space")
    clusters = spectrum.clusters
    w = spectrum.space.weights
    sw = np.sqrt(w)
    dims, bases = [{} for _ in clusters], [{} for _ in clusters]
    residual = np.zeros(len(clusters))
    failed = len(clusters)  # the first failing cluster found so far
    for ids, cols in _slabs(clusters):
        if ids[0] > failed:
            continue
        c, k = cols.shape
        block = spectrum.basis[:, cols.ravel()]
        total = np.zeros(c, dtype=int)
        for p in table:
            img = project_path(block, action, p)
            leak = _leak_norms(block.T.reshape(c, k, -1), img.T.reshape(c, k, -1), w)
            residual[ids] = np.maximum(residual[ids], leak.max(axis=1))
            # mu-orthonormal basis of each image span via the weighted SVD.
            # Cluster columns are mu-unit vectors and the projection is
            # idempotent, so singular values sit near 0 or 1: an absolute
            # threshold separates them.
            u, s, _ = np.linalg.svd(
                (sw[:, None] * img).reshape(-1, c, k).transpose(1, 0, 2), full_matrices=False
            )
            ranks = np.sum(s > 1e-6, axis=1)
            total += ranks
            for i, rank, ui in zip(ids, ranks.tolist(), u):
                dims[i][p.label] = rank
                if rank:
                    bases[i][p.label] = ui[:, :rank] / sw[:, None]
        bad = ids[(total != k) | (residual[ids] > tol)]
        if bad.size:
            failed = min(failed, int(bad[0]))
    if failed < len(clusters):
        a, b = clusters[failed]
        raise DecompositionError(
            f"cluster {a}:{b} split into {sum(dims[failed].values())} dims (expected {b - a}), "
            f"max residual {residual[failed]:.3e}"
        )
    return [
        ClusterSplit((a, b), float(spectrum.eigenvalues[a]), dims[i], bases[i], float(residual[i]))
        for i, (a, b) in enumerate(clusters)
    ]


SPECTRUM_CSV_HEADER = "k,lambda,cluster_id,irrep_label"


def spectrum_rows(spectrum: Spectrum, splits: Optional[list[ClusterSplit]] = None) -> list[list[str]]:
    """CSV cells (k, lambda, cluster_id, irrep_label), one row per eigenvalue.

    The irrep label column lists the labels present in the eigenvalue's
    cluster (from ``splits``), or is empty when no decomposition was run.
    """
    labels_by_cluster = {}
    if splits is not None:
        for s in splits:
            labs = "+".join(sorted(l for l, d in s.dims.items() if d))
            labels_by_cluster[s.index_range] = labs
    return [
        [str(k), repr(float(spectrum.eigenvalues[k])), str(cid), labels_by_cluster.get((a, b), "")]
        for cid, (a, b) in enumerate(spectrum.clusters)
        for k in range(a, b)
    ]


def spectrum_to_csv(spectrum: Spectrum, splits: Optional[list[ClusterSplit]] = None) -> str:
    """:func:`spectrum_rows` as CSV text under :data:`SPECTRUM_CSV_HEADER`."""
    lines = [SPECTRUM_CSV_HEADER] + [",".join(r) for r in spectrum_rows(spectrum, splits)]
    return "\n".join(lines) + "\n"
