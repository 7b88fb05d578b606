"""Weighted eigendecomposition, eigenspace invariance, canonical splitting.

The eigenproblem solved here is the discrete Fredholm equation
``K diag(w) f = lambda f`` with eigenvectors orthonormal under the weighted
inner product ``<f, g>_w = sum_i f_i g_i w_i``.  When the kernel is invariant
under a group action, each eigenvalue cluster spans a representation of the
group and splits canonically into character-projected sub-bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from invdecomp.groups import CharacterTable, GroupAction, project_path
from invdecomp.kernels import Kernel, KernelError, weighted_eigh

__all__ = [
    "Spectrum",
    "eigendecompose",
    "InvarianceReport",
    "check_eigenspace_invariance",
    "DecompositionError",
    "ClusterSplit",
    "canonical_decomposition",
    "SPECTRUM_CSV_HEADER",
    "spectrum_rows",
    "spectrum_to_csv",
]


class DecompositionError(KernelError):
    """Canonical splitting failed to account for a full eigenspace."""


@dataclass(frozen=True)
class Spectrum:
    """Descending weighted spectrum with eigenvalue clusters.

    ``basis`` columns are eigenvectors, orthonormal in <.,.>_w; ``clusters``
    are half-open index ranges grouping eigenvalues whose consecutive
    relative gaps fall below ``rel_tol``.
    """

    space: object
    eigenvalues: np.ndarray
    basis: np.ndarray
    clusters: tuple[tuple[int, int], ...]
    rel_tol: float

    def __post_init__(self) -> None:
        for arr in (self.eigenvalues, self.basis):
            np.asarray(arr).setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    def __repr__(self) -> str:
        return f"Spectrum(size={self.size}, clusters={len(self.clusters)})"


def eigendecompose(kernel: Kernel, rel_tol: float = 1e-6) -> Spectrum:
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
        if gap / scale > rel_tol:
            clusters.append((start, i + 1))
            start = i + 1
    clusters.append((start, len(evals)))
    return Spectrum(
        space=kernel.space,
        eigenvalues=np.ascontiguousarray(evals),
        basis=np.ascontiguousarray(basis),
        clusters=tuple(clusters),
        rel_tol=rel_tol,
    )


def _mu_coords(basis: np.ndarray, w: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    # coordinates of vecs in the (mu-orthonormal) columns of basis
    return np.conj(basis).T @ (w[:, None] * vecs)


def _mu_norms(vecs: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.sqrt(np.abs(np.sum(np.conj(vecs) * vecs * w[:, None], axis=0)).real)


@dataclass(frozen=True)
class InvarianceReport:
    """Worst per-cluster residual of translated eigenvectors."""

    ok: bool
    tol: float
    max_residual: float
    per_cluster: tuple

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "tol": self.tol,
            "max_residual": self.max_residual,
            "per_cluster": list(self.per_cluster),
        }


def check_eigenspace_invariance(
    spectrum: Spectrum,
    action: Optional[GroupAction] = None,
    tol: float = 1e-8,
) -> InvarianceReport:
    """Residual of each translated cluster basis outside its own span.

    For an invariant kernel every eigenspace is stable under the translation
    (g.f)(y) = f(g^{-1}.y); the report carries the worst weighted residual
    norm per cluster, relative to the unit norm of the translated vector.
    """
    action = action or spectrum.space.action
    if action is None:
        raise KernelError("no action bound or supplied")
    w = spectrum.space.weights
    inv_perm = action.perm[action.group.inv]
    per_cluster = []
    worst = 0.0
    for a, b in spectrum.clusters:
        block = spectrum.basis[:, a:b]
        res = 0.0
        for g in range(action.group.order):
            moved = block[inv_perm[g]]
            proj = block @ _mu_coords(block, w, moved)
            res = max(res, float(np.max(_mu_norms(moved - proj, w))))
        per_cluster.append(res)
        worst = max(worst, res)
    return InvarianceReport(
        ok=worst <= tol, tol=tol, max_residual=worst, per_cluster=tuple(per_cluster)
    )


@dataclass(frozen=True)
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
    checks the dimensions add back to the cluster multiplicity (raises
    DecompositionError otherwise).
    """
    action = spectrum.space.action
    if action is None:
        raise KernelError("no action bound to the space")
    w = spectrum.space.weights
    splits = []
    for a, b in spectrum.clusters:
        block = spectrum.basis[:, a:b]
        dims, bases = {}, {}
        residual = 0.0
        total = 0
        for p in table:
            img = project_path(block, action, p)
            norms = _mu_norms(img, w)
            scale = float(np.max(norms)) if norms.size else 0.0
            if scale > 0:
                leak = img - block @ _mu_coords(block, w, img)
                residual = max(residual, float(np.max(_mu_norms(leak, w))))
            # mu-orthonormal basis of the image span via the weighted SVD.
            # Cluster columns are mu-unit vectors and the projection is
            # idempotent, so singular values sit near 0 or 1: an absolute
            # threshold separates them.
            u, s, _ = np.linalg.svd(np.sqrt(w)[:, None] * img, full_matrices=False)
            rank = int(np.sum(s > 1e-6))
            dims[p.label] = rank
            if rank:
                bases[p.label] = u[:, :rank] / np.sqrt(w)[:, None]
            total += rank
        if total != b - a or residual > tol:
            raise DecompositionError(
                f"cluster {a}:{b} split into {total} dims (expected {b - a}), "
                f"max residual {residual:.3e}"
            )
        splits.append(
            ClusterSplit(
                index_range=(a, b),
                eigenvalue=float(spectrum.eigenvalues[a]),
                dims=dims,
                bases=bases,
                max_residual=residual,
            )
        )
    return splits


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
