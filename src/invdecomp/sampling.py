"""Seeded Gaussian ensembles, pair functionals, and the duplication-law check.

:func:`law_check` states Watson's duplication law once for Z2^d on [0, 1]^d and runs the law
it is named, a record of ``LAWS``, on the kernel it is given; :func:`duplication_check`
(d = 1) and :func:`quadruplication_check` (d = 2) build that kernel from a config.

Reproducibility contract (``RNG_CONTRACT``)
-------------------------------------------
The sample axis is cut into blocks of ``BLOCK`` columns.  Block b of an ensemble is drawn
from one SFC64 generator seeded by ``SeedSequence(seed, spawn_key=(stream, b))``
(:func:`_block_generator`), row-major: its first r normals are the block's first column,
the next r its second, and so on.  A shorter last block takes a prefix of that draw, so the
first k columns are the same in every draw of at least k columns with the same seed and
stream, and a block drawn in chunks from its one generator (:func:`draw_chunks`,
:func:`_chi2_sum`) gets the variates of one fill.  The samples agree bitwise over full
blocks, and to roundoff in a partial one, where BLAS may pick another kernel for another
column count.  Changing ``BLOCK`` changes the samples.  :func:`_block_generator` alone loads
``numpy.random``, at a run's first draw, so a run that draws nothing never loads it, and
loads it without OpenSSL's libcrypto unless the process holds that already
(:func:`_import_numpy_random`).

A column holds r normals, one per eigenvalue that :func:`_clip_spectrum` keeps: normal k is
the Karhunen-Loeve coordinate on the k-th kept eigenvalue, ascending, in every sampler.
The path samplers apply an m x r factor to them through :func:`draw_chunks`: ``sample``
that of :func:`covariance_factor`, and the torus parity check
(``invdecomp.torus.torus_watson_check``, stream 0) that of
``invdecomp.torus.fourier_factor``.

Both sides of a law check are weighted chi^2 mixtures over a kept spectrum, drawn with no
paths by :func:`_chi2_sum` from one list (c, nu) of :func:`_chi2_terms`, an entry per run of
bitwise-equal ascending weights.  The list expands run-major: in entry order, an entry of odd
nu reads one normal per column, and each entry reads nu // 2 standard exponentials.
:func:`pair_functional` draws (lambda_kept, 1), its normals on ``streams`` and its
exponentials on s + ``EXP_STREAM`` (2^15), so ``streams`` lie below 2^15 and never meet the
law check's streams 0 to 3; the right side of :func:`law_check` draws (mu_kept / 4^d, 2^d),
exponentials only, on streams 2 and 3.  No second stream is drawn at rho = 1.

Every sampler runs its blocks through :func:`_each_block`, in one worker unless
``INVDECOMP_THREADS`` holds a positive integer, the pool size.  Workers take whole blocks,
so equal (kernel, count, seed) inputs give bitwise-equal ensembles and functionals at any
worker count.

:func:`ks_statistic` and :func:`kstat` compute term for term as scipy 1.17.1's
``ks_2samp`` and ``kstat``, so their values are bitwise scipy's.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass
from numbers import Integral, Real
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from numpy.random import Generator

from invdecomp.kernels import (
    BUILTINS,
    CHUNK,
    IndexSpace,
    Kernel,
    KernelError,
    builtin_kernel,
    make_interval_grid,
    make_product_grid,
    weighted_eigh,
)
from invdecomp.cumulants import analytic_cumulants

__all__ = [
    "PathEnsemble",
    "covariance_factor",
    "sample",
    "pair_functional",
    "kstat",
    "ks_statistic",
    "compare_distributions",
    "null_ks_critical",
    "kstat_variances",
    "law_check",
    "duplication_check",
    "quadruplication_check",
]

BLOCK = 4096          # fixed work unit and RNG key unit; never depends on the worker count
RNG_CONTRACT = f"sfc64-block-{BLOCK}-rowmajor-v4"  # names the keying rule of the module docstring
EIG_CLIP = 1e-12      # relative eigenvalue floor of the sampled laws
EXP_STREAM = 1 << 15  # stream s + EXP_STREAM holds pair_functional's tie exponentials of stream s
# each in-law check: its compensated kernel, of BUILTINS[kernel].dim axes, that kernel's
# tied-down partner, and the defaults of the grid, samples and rho it reads
LAWS = {
    "duplication": {"kernel": "watson", "tied": "bridge", "grid": 256, "samples": 100_000, "rho": 1.0},
    "quadruplication": {
        "kernel": "sheet_compensated", "tied": "sheet_tied", "grid": 32, "samples": 50_000, "rho": 0.5
    },
}
KS_EXACT_MAX = 10_000  # ks_2samp's exact mode, which snaps the distance, up to this sample size
MIN_SAMPLES = 1000     # the fewest samples per side that compare_distributions and law_check take
KS_CHUNK = 4096        # sample points per CDF search of ks_statistic: 32 KiB per temporary
_NUMPY_RANDOM_LOCK = threading.Lock()  # one first import of numpy.random at a time


def worker_count() -> int:
    """Worker pool size: the positive integer in INVDECOMP_THREADS, else 1 (unset, empty,
    non-integer or non-positive; the CPU count is never read).  It changes speed only, never
    results."""
    try:
        n = int(os.environ.get("INVDECOMP_THREADS", ""))
    except ValueError:
        return 1
    return max(1, n)


def _check_key(seed: int, stream: int, a: int) -> None:
    """Raises unless seed, stream and the block index of column ``a`` fit in 64, 16 and 48
    bits, so that no two blocks alias.  Integers only, so a sampler refuses a key on entry,
    before its first expensive step."""
    if not 0 <= seed < (1 << 64):
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if not 0 <= stream < (1 << 16):
        raise ValueError(f"stream must be in [0, 2**16), got {stream}")
    if not 0 <= a // BLOCK < (1 << 48):
        raise ValueError("block index out of the 48-bit key range")


def _import_numpy_random() -> None:
    """Imports ``numpy.random`` without OpenSSL's libcrypto, which it reaches through
    ``secrets``, ``hmac`` and ``hashlib`` only for unseeded ``SeedSequence`` entropy.

    When ``_hashlib`` is not loaded yet, it is hidden during the import, and the entries of
    those four modules that the import added are removed after it, so a later ``import
    hashlib`` loads the full OpenSSL-backed module.  A process that loaded ``_hashlib`` first
    keeps its modules.  Unseeded entropy still comes from the operating system."""
    with _NUMPY_RANDOM_LOCK:  # a second worker waits here until the first import is done
        if "numpy.random" in sys.modules or "_hashlib" in sys.modules:
            return
        added = [name for name in ("_hashlib", "hashlib", "hmac", "secrets") if name not in sys.modules]
        sys.modules["_hashlib"] = None
        try:
            import numpy.random  # noqa: F401
        finally:
            for name in added:
                sys.modules.pop(name, None)


def _block_generator(seed: int, stream: int, a: int) -> Generator:
    """The generator of the block that starts at column ``a``, the one keying rule: SFC64 seeded
    by ``SeedSequence(seed, spawn_key=(stream, a // BLOCK))``, for a key :func:`_check_key`
    accepts.  It is the only code that loads ``numpy.random``, so a run loads it at its first
    draw and a run that draws nothing never does."""
    _check_key(seed, stream, a)
    if "numpy.random" not in sys.modules:
        _import_numpy_random()
    from numpy.random import SFC64, Generator, SeedSequence  # here, so a run that draws nothing never imports it
    return Generator(SFC64(SeedSequence(seed, spawn_key=(stream, a // BLOCK))))


def draw_chunks(l: np.ndarray, seed: int, stream: int, a: int, b: int, width: int):
    """Columns a, ..., b-1 of an ensemble with the m x r factor ``l``, ``width`` at a time.

    ``l`` is an array or multiplies like one (``shape`` and ``@``), such as
    ``invdecomp.torus.FourierFactor``; ``a`` is the first column of a block and ``b`` at most
    its end.  Yields (first column, m x ncols paths ``l @ normals.T``, ncols x r normals).  The
    chunks read the block's one generator in turn, so the normals are bitwise one fill's, and
    one chunk of them is held: the normals (and the paths, when ``l`` refills one buffer with
    its products) are refilled for the next chunk, so a caller that keeps them copies them.
    """
    normals = _block_generator(seed, stream, a)
    xi = np.empty((min(width, b - a), l.shape[1]))
    for c in range(a, b, width):
        chunk = xi[: min(width, b - c)]
        normals.standard_normal(out=chunk)
        yield c, l @ chunk.T, chunk


def draw_block(l: np.ndarray, seed: int, stream: int, a: int, b: int) -> np.ndarray:
    """Columns a, ..., b-1 of an ensemble with the m x r factor ``l``, as the paths of
    one chunk of :func:`draw_chunks`: one block of the contract."""
    return next(draw_chunks(l, seed, stream, a, b, b - a))[1]


def _each_block(count: int, fn):
    """Yields ``fn(a, b, work)`` for each block a, ..., b-1 of ``count`` columns, in block order.

    Workers take waves of one block each, and worker i keeps one ``work`` dict for the buffers
    it reuses over its blocks.  A wave starts once the caller has taken the last one's results,
    so at most one result per worker is alive, and the results come back in block order, so a
    sum over blocks is added in one order at any worker count.
    """
    blocks = [(a, min(a + BLOCK, count)) for a in range(0, count, BLOCK)]
    works = [{} for _ in range(min(worker_count(), len(blocks)))]
    if len(works) <= 1:  # one worker, or no block
        for a, b in blocks:
            yield fn(a, b, works[0])
        return
    from concurrent.futures import ThreadPoolExecutor  # here, so one-worker runs never import it
    with ThreadPoolExecutor(max_workers=len(works)) as pool:
        for i in range(0, len(blocks), len(works)):
            yield from pool.map(lambda blk, work: fn(*blk, work), blocks[i : i + len(works)], works)


def _clip_spectrum(evals: np.ndarray) -> np.ndarray:
    """The kept suffix of the ascending ``evals``: those at least EIG_CLIP * lambda_max.

    The one clip rule, whose size r is the rank sampled: :func:`covariance_factor`,
    ``invdecomp.torus.fourier_factor``, :func:`pair_functional` and :func:`law_check` apply it,
    so every sampler of a kernel draws a law of the same rank.
    """
    lmax = float(evals[-1]) if evals.size else 0.0
    if lmax <= 0.0:
        return evals[:0]
    return evals[evals.size - int(np.count_nonzero(evals >= EIG_CLIP * lmax)) :]


def covariance_factor(kernel: Kernel) -> np.ndarray:
    """The m x r Karhunen-Loeve factor L = W^-1/2 V_r diag(sqrt(lambda_r)), W = diag(w), with
    L L^T = K up to the clipped tail.

    (lambda, V) = :func:`invdecomp.kernels.weighted_eigh`, and lambda_r, V_r are the r values
    and columns that :func:`_clip_spectrum` keeps; nothing kept gives an (m, 0) factor.
    Eigendecomposition, not Cholesky: discretized kernels are routinely rank-deficient.
    """
    evals, vecs = weighted_eigh(kernel)
    lam, m = _clip_spectrum(evals), kernel.size
    out = np.multiply(vecs[:, m - lam.size :], np.sqrt(lam), out=np.empty((m, lam.size)))
    return np.divide(out, np.sqrt(kernel.space.weights)[:, None], out=out)


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """S sampled paths over an index space, one per column."""

    space: IndexSpace
    samples: np.ndarray  # (m, S)
    seed: int

    def __post_init__(self) -> None:
        s = np.asarray(self.samples)
        if s.ndim != 2 or s.shape[0] != self.space.size:
            raise KernelError("samples must be (space.size, S)")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)


def sample(
    kernel: Kernel,
    count: int,
    seed: int,
    stream: int = 0,
    factor: Optional[np.ndarray] = None,
) -> PathEnsemble:
    """Draw ``count`` Gaussian paths with covariance ``kernel``.

    ``factor`` is :func:`covariance_factor` of the kernel, computed here when
    not given.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_key(seed, stream, count - 1)
    l = covariance_factor(kernel) if factor is None else factor
    out = np.empty((kernel.size, count))

    def run(a, b, work):
        out[:, a:b] = draw_block(l, seed, stream, a, b)

    list(_each_block(count, run))
    return PathEnsemble(space=kernel.space, samples=out, seed=seed)


def _chi2_terms(weights: np.ndarray, nu: int) -> tuple[np.ndarray, np.ndarray]:
    """The list (c, nu) of sum_i weights_i chi^2_nu for the ascending ``weights``: one entry
    per run of bitwise-equal values, c the value and nu times the run's length its degrees of
    freedom.  Values tie only when they are equal: no tolerance, which would change the law."""
    starts = np.flatnonzero(np.diff(weights, prepend=-np.inf))  # x - y is 0 only for x == y
    return weights[starts], nu * np.diff(np.append(starts, weights.size))


def _chi2_sum(
    terms: tuple[np.ndarray, np.ndarray],
    rho: float,
    count: int,
    seed: int,
    streams: tuple[int, int],
    exp_streams: tuple[int, int],
) -> np.ndarray:
    """``count`` draws of sum_j c_j sum_(i <= nu_j) xi_ji (rho xi_ji + s eta_ji), s =
    sqrt(1 - rho^2), for the list ``terms`` = (c, nu) of :func:`_chi2_terms`.

    Two terms of one c add up, in law, to c [(1+rho) E^A - (1-rho) E^B] (chi^2_2 = 2 Exp(1)),
    so by the module's run-major rule entry j reads nu_j // 2 exponentials E^A and E^B of
    ``exp_streams`` and, for odd nu_j, one normal xi and eta of ``streams``.  The exponentials
    are drawn and summed about ``CHUNK`` doubles at a time from each stream's one generator, so
    they are bitwise one fill's, and so is the result wherever BLAS computes a chunk's rows as
    it does the whole block's (a full block, on OpenBLAS).
    """
    weights, nu = terms
    single, pairs = weights[nu % 2 == 1], np.repeat(weights, nu // 2)
    comp = np.sqrt(max(0.0, 1.0 - rho * rho))
    # a multiple of 16 rows, so that OpenBLAS splits and unrolls each chunk's GEMV
    # as it does the whole block's
    rows = max(16, CHUNK // max(1, pairs.size) // 16 * 16)
    out = np.zeros(count)

    def run(a, b, work):
        if single.size:
            xi = np.empty((b - a, single.size))
            _block_generator(seed, streams[0], a).standard_normal(out=xi)
            # each einsum is one pass over the normals, with no temporary block
            out[a:b] = np.einsum("ck,ck,k->c", xi, xi, single)
            if comp > 0.0:
                eta = np.empty_like(xi)
                _block_generator(seed, streams[1], a).standard_normal(out=eta)
                out[a:b] = rho * out[a:b] + comp * np.einsum("ck,ck,k->c", xi, eta, single)
        if pairs.size:
            ea = _block_generator(seed, exp_streams[0], a)
            eb = _block_generator(seed, exp_streams[1], a) if rho < 1.0 else None
            e = np.empty((min(rows, b - a), pairs.size))
            for c in range(a, b, rows):
                chunk = e[: min(rows, b - c)]
                ea.standard_exponential(out=chunk)
                jc = (1.0 + rho) * (chunk @ pairs)
                if eb is not None:
                    eb.standard_exponential(out=chunk)
                    jc -= (1.0 - rho) * (chunk @ pairs)
                out[c : c + chunk.shape[0]] += jc

    list(_each_block(count, run))
    return out


def pair_functional(
    kernel: Kernel,
    rho: float,
    count: int,
    seed: int,
    streams: tuple[int, int] = (0, 1),
) -> np.ndarray:
    """Streamed J = sum_i w_i Z1[i] Z2[i] per sample, for Z2 = rho Z1 + sqrt(1-rho^2) Z1'.

    Z1 and Z1' are independent paths with covariance K.  With Z1 = L xi and Z1' = L eta as
    :func:`sample` draws them, L^T W L = diag(lambda_r) makes J exactly
    sum_k lambda_k xi_k (rho xi_k + sqrt(1-rho^2) eta_k): no paths and no eigenvectors.
    :func:`_chi2_sum` draws it as the list (lambda_r, 1), its normals on ``streams`` and its
    exponentials on ``streams`` + ``EXP_STREAM``.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    if count < 1:
        raise ValueError("count must be >= 1")
    if not all(0 <= s < EXP_STREAM for s in streams):
        raise ValueError(f"streams must be in [0, {EXP_STREAM}), got {streams}")
    _check_key(seed, streams[0], count - 1)
    terms = _chi2_terms(_clip_spectrum(kernel.eigenvalues), 1)
    exp_streams = (streams[0] + EXP_STREAM, streams[1] + EXP_STREAM)
    return _chi2_sum(terms, rho, count, seed, streams, exp_streams)


def kstat(data: np.ndarray, n: int) -> float:
    """Fisher's k-statistic of order ``n`` (1 to 4): the unbiased estimator of
    the n-th cumulant, from the power sums S_k = sum(data**k).

    The closed forms are evaluated in scipy's order of operations, with the
    sample size N an int, so the value is bitwise ``scipy.stats.kstat``'s.
    """
    if not 1 <= n <= 4:
        raise ValueError(f"k-statistics are defined here for orders 1 to 4, not {n}")
    data = np.asarray(data).ravel()
    N = data.size
    S = [None] + [np.sum(data**k) for k in range(1, n + 1)]
    if n == 1:
        k = S[1] * 1.0 / N
    elif n == 2:
        k = (N * S[2] - S[1] ** 2.0) / (N * (N - 1.0))
    elif n == 3:
        k = (2 * S[1] ** 3 - 3 * N * S[1] * S[2] + N * N * S[3]) / (N * (N - 1.0) * (N - 2.0))
    else:
        k = (
            -6 * S[1] ** 4
            + 12 * N * S[1] ** 2 * S[2]
            - 3 * N * (N - 1.0) * S[2] ** 2
            - 4 * N * (N + 1) * S[1] * S[3]
            + N * N * (N + 1) * S[4]
        ) / (N * (N - 1.0) * (N - 2.0) * (N - 3.0))
    return float(k)


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Smirnov's two-sample KS distance sup_x |F_a(x) - F_b(x)|, bitwise
    ``scipy.stats.ks_2samp(a, b).statistic``.

    Both right-continuous empirical CDFs are evaluated at every sample point, ``KS_CHUNK``
    points at a time, keeping their difference's running max and min, which are exact; so the
    call holds the two sorted samples and a few chunks.  When both sizes are at most
    ``KS_EXACT_MAX`` the distance is rounded to its lattice 1/lcm(n_a, n_b), as ks_2samp's
    exact mode rounds it.  A NaN raises ``ValueError`` (ks_2samp returns nan); +-inf are
    points like any other.
    """
    a, b = np.sort(a), np.sort(b)
    n1, n2 = a.size, b.size
    if n1 == 0 or n2 == 0:
        raise ValueError(f"both samples must be non-empty, got {n1} and {n2} points")
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # a NaN sorts last
        raise ValueError("the samples must hold no NaN")
    hi, lo = -np.inf, np.inf
    for pts in (a, b):
        for i in range(0, pts.size, KS_CHUNK):
            diffs = np.searchsorted(a, pts[i : i + KS_CHUNK], side="right") / n1
            diffs -= np.searchsorted(b, pts[i : i + KS_CHUNK], side="right") / n2
            hi, lo = max(hi, diffs.max()), min(lo, diffs.min())
    # max keeps its first argument on a tie, as scipy keeps max(diffs): a zero distance is +0.0
    d = max(hi, np.clip(-lo, 0, 1))
    if max(n1, n2) <= KS_EXACT_MAX:
        lcm = (n1 // math.gcd(n1, n2)) * n2
        d = int(np.round(d * lcm)) * 1.0 / lcm
    return float(d)


def compare_distributions(a: np.ndarray, b: np.ndarray) -> dict:
    """Operational "equal in law": the two-sample ``ks_distance``
    (:func:`ks_statistic`), the first four k-statistics of each sample
    (``kstats_a``, ``kstats_b``) and their differences a - b
    (``cumulant_gaps``)."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if min(a.size, b.size) < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples per side")
    ka = [kstat(a, n) for n in (1, 2, 3, 4)]
    kb = [kstat(b, n) for n in (1, 2, 3, 4)]
    return {
        "ks_distance": ks_statistic(a, b),
        "cumulant_gaps": [x - y for x, y in zip(ka, kb)],
        "kstats_a": ka,
        "kstats_b": kb,
    }


def null_ks_critical(count: int) -> float:
    """Null two-sample KS critical value for two samples of ``count`` each: c * sqrt(2 / count)
    with c = 2.2, which a true null exceeds with probability about 2 exp(-2 c^2) ~ 1.25e-4."""
    return 2.2 * np.sqrt(2.0 / count)


def kstat_variances(kappas: Sequence[float], count: int) -> np.ndarray:
    """Sampling variances of k-statistics of orders 1..4.

    Classical finite-sample formulas in terms of the population cumulants;
    ``kappas`` must supply kappa_1..kappa_8 (pad with zeros if unknown —
    higher cumulants only tighten the later orders).
    """
    k = [0.0] * 9
    for i, v in enumerate(kappas[:8], start=1):
        k[i] = float(v)
    n = float(count)
    v1 = k[2] / n
    v2 = k[4] / n + 2 * k[2] ** 2 / (n - 1)
    v3 = (
        k[6] / n
        + 9 * k[2] * k[4] / (n - 1)
        + 9 * k[3] ** 2 / (n - 1)
        + 6 * n * k[2] ** 3 / ((n - 1) * (n - 2))
    )
    v4 = (
        k[8] / n
        + 16 * k[2] * k[6] / (n - 1)
        + 48 * k[3] * k[5] / (n - 1)
        + 34 * k[4] ** 2 / (n - 1)
        + 72 * n * k[2] ** 2 * k[4] / ((n - 1) * (n - 2))
        + 144 * n * k[2] * k[3] ** 2 / ((n - 1) * (n - 2))
        + 24 * n * (n + 1) * k[2] ** 4 / ((n - 1) * (n - 2) * (n - 3))
    )
    return np.array([v1, v2, v3, v4])


def law_check(
    name: str, kernel: Kernel, rho: float, count: int, seed: int, ks_tol: Optional[float] = None
) -> dict:
    """The in-law check ``name``, a key of ``LAWS``: Watson's duplication law on [0, 1]^d,
    d the dimension of the law's compensated kernel, for a ``kernel`` on d axes.  The law
    comes from the caller, never from the kernel's name, so a kernel file may be named freely.

    A Gaussian law invariant under Z2^d splits into 2^d parts, each with the law of the
    tied-down functional, so the compensated functional equals in law 4^-d times the sum of
    2^d independent tied-down ones.  The left side is :func:`pair_functional` of ``kernel`` on
    streams (0, 1).  The right side is that sum in chi^2 form, exact in law with no copies
    drawn: the list (mu / 4^d, 2^d) over the kept spectrum mu of the law's tied-down
    partner, built on ``kernel.space``, drawn by :func:`_chi2_sum` on streams 2 and 3.
    Division by a power of 2 is exact, so the ties of mu survive it.  ``name`` (else
    ``ValueError``), ``rho``, ``count`` (at least ``MIN_SAMPLES``), ``seed`` and the kernel's
    dimension (else ``KernelError``) are judged on entry.

    It passes when the KS distance is below ``ks_tol`` (by default :func:`null_ks_critical`)
    and the first three k-statistic gaps are within 5 standard deviations of both sides'
    sampling noise plus the offset between the two analytic cumulant sequences.
    """
    if name not in LAWS:
        raise ValueError(f"unknown law {name!r} (known: {', '.join(LAWS)})")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    if count < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples per side")
    _check_key(seed, 0, count - 1)
    space, dim = kernel.space, BUILTINS[LAWS[name]["kernel"]].dim
    if space.dim != dim:
        raise KernelError(f"{name} needs a {dim}-d kernel, not a {space.dim}-d one")
    # the tied-down kernel is dense; only its spectrum is read, so its matrix is not held
    tied = builtin_kernel(LAWS[name]["tied"], space)
    mu, kap_tied = _clip_spectrum(tied.eigenvalues), analytic_cumulants(tied, rho, 8)
    del tied
    copies = 2**space.dim
    lhs = pair_functional(kernel, rho, count, seed, streams=(0, 1))
    rhs = _chi2_sum(_chi2_terms(mu / copies**2, copies), rho, count, seed, (2, 3), (2, 3))
    kap_l = analytic_cumulants(kernel, rho, 8)
    # kappa_n of the scaled sum of independent copies; the factors are powers of 2, so exact
    kap_r = copies * float(copies**2) ** -np.arange(1, 9) * kap_tied
    cmp_ = compare_distributions(lhs, rhs)
    noise = 5.0 * np.sqrt(kstat_variances(kap_l, count) + kstat_variances(kap_r, count))
    tol = noise + np.abs(kap_l[:4] - kap_r[:4])
    gaps = np.abs(np.asarray(cmp_["cumulant_gaps"]))
    if ks_tol is None:
        ks_tol = null_ks_critical(count)
    passes = {"ks": bool(cmp_["ks_distance"] < ks_tol), "cumulants": bool(np.all(gaps[:3] <= tol[:3]))}
    # distinct values per axis, counted without np.unique, which imports numpy.ma
    axes = [1 + int(np.count_nonzero(np.diff(np.sort(x)))) for x in space.points.T]
    return {
        "count": count,
        "seed": seed,
        "comparison": cmp_,
        "ks_tol": float(ks_tol),
        "cumulant_orders_checked": 3,
        "cumulant_tol": [float(x) for x in tol],
        "analytic_lhs": [float(x) for x in kap_l[:4]],
        "analytic_rhs": [float(x) for x in kap_r[:4]],
        "pass": passes,
        "ok": bool(all(passes.values())),
        "check": name,
        "grid": axes[0] if space.dim == 1 else axes,
        "rho": rho,
        "mean_lhs": float(np.mean(lhs)),
        "mean_rhs": float(np.mean(rhs)),
    }


def _law_from_config(name: str, config: dict) -> dict:
    """:func:`law_check` of the law ``name`` on its compensated kernel, on an n^d interval
    grid of the law's dimension d.  ``config`` gives grid (n), samples, rho, seed (required)
    and ks_tol; the first three default to the law's ``LAWS`` record.  Any other key, no seed,
    a grid, samples or seed that is not an integer, or a rho or ks_tol that is not a number
    (``bool`` is neither) raises ``ValueError`` before a kernel is built."""
    types = {"grid": Integral, "samples": Integral, "rho": Real, "seed": Integral, "ks_tol": Real}
    problems = []
    for key, value in config.items():
        if key not in types:
            problems.append(f"unknown key {key!r}")
        elif isinstance(value, bool) or not isinstance(value, types[key]):
            kind = "an integer" if types[key] is Integral else "a number"
            problems.append(f"{key} must be {kind}, got {value!r}")
    if "seed" not in config:
        problems.append("seed is required")
    if problems:
        raise ValueError(f"{name}_check: {'; '.join(problems)} (keys: {', '.join(types)})")
    cfg = {**LAWS[name], **config}
    space = make_product_grid([make_interval_grid(int(cfg["grid"]))] * BUILTINS[cfg["kernel"]].dim)
    rho, count, seed = float(cfg["rho"]), int(cfg["samples"]), int(cfg["seed"])
    return law_check(name, builtin_kernel(cfg["kernel"], space), rho, count, seed, cfg.get("ks_tol"))


def duplication_check(config: dict) -> dict:
    """:func:`law_check` of the watson kernel on an n-point interval grid."""
    return _law_from_config("duplication", config)


def quadruplication_check(config: dict) -> dict:
    """:func:`law_check` of the sheet_compensated kernel on an n x n grid."""
    return _law_from_config("quadruplication", config)
