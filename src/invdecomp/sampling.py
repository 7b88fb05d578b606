"""Seeded Gaussian ensembles, pair functionals, and the duplication-law check.

:func:`law_check` states Watson's duplication law once for Z2^d on
[0, 1]^d and runs it on the kernel it is given; the runner passes the kernel
it built.  :func:`duplication_check` (d = 1) and
:func:`quadruplication_check` (d = 2) build that kernel from a config.

Reproducibility contract (``RNG_CONTRACT``)
-------------------------------------------
The sample axis is cut into fixed blocks of ``BLOCK`` columns.  Block b
(columns b*BLOCK, ..., b*BLOCK + BLOCK - 1) of an ensemble is drawn from
one SFC64 generator seeded by ``SeedSequence(seed, spawn_key=(stream, b))``
(:func:`_block_generator`), numpy's pattern for independent parallel
streams, in row-major order: the generator's first r normals are the block's
first column, the next r its second, and so on, r being the rank the sampler
keeps (below).  A shorter last block takes a prefix of its generator's draw,
so the normals behind the first k columns are the same in every draw of at
least k columns with the same seed and stream.  A block drawn in chunks,
read in turn from its one generator (:func:`draw_chunks`, :func:`_chi2_sum`;
about ``CHUNK`` doubles per streamed array), gets the same variates as when
it is drawn at once.  The samples agree bitwise over full blocks, and to
roundoff in a partial one, where BLAS may pick another kernel for another
column count.  ``BLOCK`` is part of the contract: changing it changes the
samples.  This is the fourth contract (``-v4``).

A column holds r normals, one per eigenvalue that :func:`_clip_spectrum`
keeps of the weighted spectrum: normal k is the coordinate on the k-th kept
eigenvalue in ascending order, the Karhunen-Loeve coordinates.  Every
sampler reads the normals this way.  The path samplers draw through
:func:`draw_chunks`, which applies an m x r factor to r x ncols normals:
``sample`` each block at once (:func:`draw_block`) with the factor of
:func:`covariance_factor`, and the streamed torus parity check
(``invdecomp.torus.torus_watson_check``, stream 0) each block in chunks with
that of ``invdecomp.torus.fourier_factor``, whose columns are the cos/sin
characters of the torus, applied axis by axis.

Both sides of a law check are weighted chi^2 sums over a kept spectrum, drawn
with no paths by one sampler, :func:`_chi2_sum`: a weight of one degree of
freedom reads normals, and a weight of two reads standard exponentials, since
chi^2_2 = 2 Exp(1), with the same per-block keying.  :func:`pair_functional`
splits the kept spectrum into runs of bitwise-equal values (never equal
within a tolerance); a run of L values lambda gives L // 2 pairs and, for odd
L, one leftover.  The leftovers, ascending, take the normals above: normal k
of a column on stream s = ``streams[0]`` (and ``streams[1]``) belongs to the
k-th leftover.  The pairs, ascending, take one exponential per column on
stream s + ``EXP_STREAM`` (2^15), row-major, so ``streams`` must lie below
2^15, and these ids never meet the streams 0 to 3 of the law check.  The
right side of :func:`law_check` has pairs only: stream 2 holds G^A and
stream 3 G^B.  A column takes h*r exponentials of its block's stream,
row-major, h = 2^(d-1) on [0, 1]^d; exponential j*r + k adds to the k-th
ascending kept eigenvalue of the tied-down kernel.  No second stream is
drawn at rho = 1.

All heavy numerics run over these blocks regardless of how many worker
threads are active.  Threads are opt-in: sampling runs in one worker unless
the ``INVDECOMP_THREADS`` environment variable holds a positive integer,
which then sets the pool size.  Workers only distribute whole blocks, so
identical (kernel, count, seed) inputs give bit-identical ensembles and
functionals under any parallelism degree.

The statistics of the in-law checks, Smirnov's two-sample KS distance
(:func:`ks_statistic`) and Fisher's k-statistics (:func:`kstat`), are
computed in numpy, term for term as scipy 1.17.1's ``ks_2samp`` and
``kstat`` compute them, so their values are bitwise scipy's.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from invdecomp.kernels import (
    BUILTINS,
    CHUNK,
    IndexSpace,
    Kernel,
    KernelError,
    builtin_kernel,
    law_kernel,
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
# the in-law checks in order of dimension, with the defaults their wrappers and the runner read
LAW_DEFAULTS = {
    "duplication": {"grid": 256, "samples": 100_000, "rho": 1.0},
    "quadruplication": {"grid": 32, "samples": 50_000, "rho": 0.5},
}
KS_EXACT_MAX = 10_000  # ks_2samp's exact mode, which snaps the distance, up to this sample size


def worker_count() -> int:
    """Worker pool size: the positive integer in INVDECOMP_THREADS, else 1.

    Unset, empty, non-integer and non-positive values all mean one worker;
    the machine's CPU count is never consulted.  The value changes speed
    only, never results.
    """
    try:
        n = int(os.environ.get("INVDECOMP_THREADS", ""))
    except ValueError:
        return 1
    return max(1, n)


def _block_generator(seed: int, stream: int, a: int) -> Generator:
    """The generator of the block that starts at column ``a``: the one keying rule.

    SFC64 seeded by ``SeedSequence(seed, spawn_key=(stream, a // BLOCK))``.
    Raises unless seed, stream id and block index fit in 64, 16 and 48 bits,
    so that no two blocks alias.
    """
    block = a // BLOCK
    if not 0 <= seed < (1 << 64):
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if not 0 <= stream < (1 << 16):
        raise ValueError(f"stream must be in [0, 2**16), got {stream}")
    if not 0 <= block < (1 << 48):
        raise ValueError("block index out of the 48-bit key range")
    return Generator(SFC64(SeedSequence(seed, spawn_key=(stream, block))))


def draw_chunks(l: np.ndarray, seed: int, stream: int, a: int, b: int, width: int):
    """Columns a, ..., b-1 of an ensemble with the m x r factor ``l``, ``width`` at a time.

    ``l`` is an array or a factor that multiplies like one (``shape`` and
    ``@``), such as ``invdecomp.torus.FourierFactor``.  ``a`` is the first
    column of a block and ``b`` at most its end.  Each
    column draws r normals, its coordinates on the r kept eigenvalues, which
    column k of ``l`` carries in ascending order.  The chunks' normals are
    read in turn from the block's one generator, so they are bitwise those of
    one fill of the whole block, and only one chunk of them is held.
    Yields (first column, m x ncols paths).  Every path sampler draws through
    here, so every ensemble follows ``RNG_CONTRACT`` and the coordinate rule.
    """
    normals = _block_generator(seed, stream, a)
    xi = np.empty((min(width, b - a), l.shape[1]))
    for c in range(a, b, width):
        chunk = xi[: min(width, b - c)]
        normals.standard_normal(out=chunk)
        yield c, l @ chunk.T


def draw_block(l: np.ndarray, seed: int, stream: int, a: int, b: int) -> np.ndarray:
    """Columns a, ..., b-1 of an ensemble with the m x r factor ``l``, as one chunk of
    :func:`draw_chunks`: one block of the contract."""
    return next(draw_chunks(l, seed, stream, a, b, b - a))[1]


def _blocks(count: int) -> list[tuple[int, int]]:
    return [(a, min(a + BLOCK, count)) for a in range(0, count, BLOCK)]


def _parallel(tasks, fn) -> None:
    workers = worker_count()
    if workers == 1 or len(tasks) <= 1:
        for t in tasks:
            fn(t)
        return
    from concurrent.futures import ThreadPoolExecutor  # here, so one-worker runs never import it
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fn, tasks))


def _clip_spectrum(evals: np.ndarray) -> np.ndarray:
    """The kept suffix of the ascending ``evals``: those at least EIG_CLIP * lambda_max.

    The one clip rule of the sampled laws, whose size r is the rank sampled:
    :func:`covariance_factor` applies it to the eigenvalues of
    ``weighted_eigh``, ``invdecomp.torus.fourier_factor`` to the DFT
    spectrum, and :func:`pair_functional` and :func:`law_check` to
    ``Kernel.eigenvalues``, so every sampler of a kernel draws a law of the
    same rank.
    """
    lmax = float(evals[-1]) if evals.size else 0.0
    if lmax <= 0.0:
        return evals[:0]
    return evals[evals.size - int(np.count_nonzero(evals >= EIG_CLIP * lmax)) :]


def covariance_factor(kernel: Kernel) -> np.ndarray:
    """The m x r Karhunen-Loeve factor L = W^-1/2 V_r diag(sqrt(lambda_r)), with L L^T = K.

    (lambda, V) = :func:`invdecomp.kernels.weighted_eigh` and W = diag(w).
    The r eigenvalues that :func:`_clip_spectrum` keeps are the last r of the
    ascending spectrum, and V_r, lambda_r are those columns and values, so
    L L^T = W^-1/2 (W^1/2 K W^1/2) W^-1/2 = K up to the clipped tail.  Column
    j of L is the j-th kept eigenfunction scaled by its sqrt(eigenvalue); a
    kernel with nothing kept gives an (m, 0) factor.  Eigendecomposition
    rather than Cholesky: discretized kernels are routinely rank-deficient.
    """
    evals, vecs = weighted_eigh(kernel)
    lam, m = _clip_spectrum(evals), kernel.size
    return vecs[:, m - lam.size :] * np.sqrt(lam) / np.sqrt(kernel.space.weights)[:, None]


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
    l = covariance_factor(kernel) if factor is None else factor
    out = np.empty((kernel.size, count))

    def run(blk):
        a, b = blk
        out[:, a:b] = draw_block(l, seed, stream, a, b)

    _parallel(_blocks(count), run)
    return PathEnsemble(space=kernel.space, samples=out, seed=seed)


def _tie_split(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pairs, single) of the ascending ``lam``, by runs of bitwise-equal values.

    A run of L equal values lambda gives L // 2 entries lambda to ``pairs``
    and, for odd L, one to ``single``; both stay ascending.  Values tie only
    when they are equal: no tolerance, which would change the law.
    """
    starts = np.flatnonzero(np.diff(lam, prepend=-np.inf))  # x - y is 0 only for x == y
    runs = np.diff(np.append(starts, lam.size))
    return np.repeat(lam[starts], runs // 2), lam[starts[runs % 2 == 1]]


def _chi2_sum(
    single: np.ndarray,
    pairs: np.ndarray,
    rho: float,
    count: int,
    seed: int,
    streams: tuple[int, int],
    exp_streams: tuple[int, int],
) -> np.ndarray:
    """``count`` draws of sum_k single_k xi_k (rho xi_k + c eta_k)
    + sum_k pairs_k [(1+rho) E^A_k - (1-rho) E^B_k], c = sqrt(1 - rho^2).

    The one sampler of the law checks' weighted chi^2 sums.  Per block, xi and
    eta are the normals of ``streams[0]`` and ``streams[1]``, a row of
    single.size per column, and E^A and E^B the standard exponentials of
    ``exp_streams[0]`` and ``exp_streams[1]``, a row of pairs.size per column.
    The exponentials are read in turn from each stream's one generator, about
    ``CHUNK`` doubles at a time, and each chunk's row GEMV is added into the
    block's output at once, so the block's whole draw of them is never held.
    The variates are bitwise those of one fill, and so is the result wherever
    BLAS computes a chunk's rows as it does in the whole block (a full block,
    on OpenBLAS).  No second stream is drawn at rho = 1.
    """
    comp = np.sqrt(max(0.0, 1.0 - rho * rho))
    # a multiple of 16 rows, so that OpenBLAS splits and unrolls each chunk's GEMV
    # as it does the whole block's
    rows = max(16, CHUNK // max(1, pairs.size) // 16 * 16)
    out = np.zeros(count)

    def run(blk):
        a, b = blk
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

    _parallel(_blocks(count), run)
    return out


def pair_functional(
    kernel: Kernel,
    rho: float,
    count: int,
    seed: int,
    streams: tuple[int, int] = (0, 1),
) -> np.ndarray:
    """Streamed J = sum_i w_i Z1[i] Z2[i] per sample, for Z2 = rho Z1 + sqrt(1-rho^2) Z1'.

    Z1 and Z1' are independent paths with covariance K.  Drawn as
    :func:`sample` draws them, Z1 = L xi and Z1' = L eta with the normals
    xi, eta of one column and the factor L of :func:`covariance_factor`, the
    functional is exactly J = sum_k lambda_k xi_k (rho xi_k + sqrt(1-rho^2) eta_k),
    since L^T W L = diag(lambda_r).  So J is drawn from the kept spectrum
    alone: O(r) per column, no paths and no eigenvectors.

    Each term xi (rho xi + c eta) has the law of ((1+rho) U^2 - (1-rho) V^2) / 2,
    so two terms with the same lambda add up, in law, to
    lambda [(1+rho) E^A - (1-rho) E^B] with standard exponentials E, since
    chi^2_2 = 2 Exp(1).  :func:`_tie_split` cuts the kept spectrum into the
    pairs of its runs of bitwise-equal values and its single leftovers, and
    :func:`_chi2_sum` draws the singles on ``streams`` and the pairs on
    ``streams`` + ``EXP_STREAM``.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    if not all(0 <= s < EXP_STREAM for s in streams):
        raise ValueError(f"streams must be in [0, {EXP_STREAM}), got {streams}")
    pairs, single = _tie_split(_clip_spectrum(kernel.eigenvalues))
    exp_streams = (streams[0] + EXP_STREAM, streams[1] + EXP_STREAM)
    return _chi2_sum(single, pairs, rho, count, seed, streams, exp_streams)


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
    """Smirnov's two-sample KS distance, sup_x |F_a(x) - F_b(x)| of the empirical CDFs.

    Both CDFs are evaluated at every sample point (right-continuous, so ties
    count fully).  When both sizes are at most ``KS_EXACT_MAX`` the distance
    is rounded to the nearest multiple of 1/lcm(n_a, n_b), the lattice it
    lives on, as the exact mode of ``scipy.stats.ks_2samp`` rounds it; so
    the value is bitwise ``ks_2samp(a, b).statistic``.
    """
    a, b = np.sort(a), np.sort(b)
    n1, n2 = a.size, b.size
    both = np.concatenate([a, b])
    diffs = np.searchsorted(a, both, side="right") / n1 - np.searchsorted(b, both, side="right") / n2
    # max keeps its first argument on a tie, as scipy keeps max(diffs): a zero distance is +0.0
    d = max(diffs.max(), np.clip(-diffs.min(), 0, 1))
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
    if min(a.size, b.size) < 1000:
        raise ValueError("need at least 1000 samples per side")
    ka = [kstat(a, n) for n in (1, 2, 3, 4)]
    kb = [kstat(b, n) for n in (1, 2, 3, 4)]
    return {
        "ks_distance": ks_statistic(a, b),
        "cumulant_gaps": [x - y for x, y in zip(ka, kb)],
        "kstats_a": ka,
        "kstats_b": kb,
    }


def null_ks_critical(count: int) -> float:
    """Null two-sample KS critical value for two samples of ``count`` each:
    c * sqrt(2 / count) with c = 2.2, the asymptotic Kolmogorov point with
    tail 2 exp(-2 c^2) ~ 1.25e-4, so a true null exceeds it with probability
    about 1.25e-4 (the 99.9% point would be c ~ 1.95)."""
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
    kernel: Kernel, rho: float, count: int, seed: int, ks_tol: Optional[float] = None
) -> dict:
    """Watson's duplication law on [0, 1]^d, for a compensated ``kernel``.

    A Gaussian law invariant under Z2^d splits into 2^d parts, each with the
    law of the tied-down functional, so the compensated functional equals in
    law 4^-d times the sum of 2^d independent tied-down ones: duplication in
    1-d, quadruplication on the square.  The tied-down partner that the
    kernel's ``BUILTINS`` record names is built on ``kernel.space``.  The
    left side is :func:`pair_functional` of ``kernel`` on streams (0, 1).

    The right side is drawn from its chi^2 form, exactly in law and without
    drawing the copies.  Over the copies the U^2 and the V^2 of
    ((1+rho) U^2 - (1-rho) V^2) / 2 add up to chi^2 variates with 2^d degrees
    of freedom, so the sum is sum_k mu_k [(1+rho) G^A_k - (1-rho) G^B_k] on
    the tied-down kept spectrum mu, each G_k the sum of h = 2^(d-1) standard
    exponentials: :func:`_chi2_sum` of h tiled copies of mu on streams 2
    and 3.  Its weights take the factor 4^-d, a power of 2, so exactly.

    The two sides pass when their KS distance is below ``ks_tol`` (by default
    :func:`null_ks_critical`) and their first three k-statistic gaps are within
    5 standard deviations of the sampling noise of both sides, plus the
    systematic offset between the two discrete analytic cumulant sequences.
    """
    partner = getattr(BUILTINS.get(kernel.name), "tied", None)
    if partner is None:
        known = sorted(name for name, b in BUILTINS.items() if b.tied)
        raise KernelError(f"no duplication law for kernel {kernel.name!r} (known: {known})")
    space = kernel.space
    tied = builtin_kernel(partner, space)
    copies = 2**space.dim
    lhs = pair_functional(kernel, rho, count, seed, streams=(0, 1))
    mu = _clip_spectrum(tied.eigenvalues)
    rhs = _chi2_sum(mu[:0], np.tile(mu, copies // 2) / copies**2, rho, count, seed, (2, 3), (2, 3))
    kap_l = analytic_cumulants(kernel, rho, 8)
    # kappa_n of the scaled sum of independent copies; the factors are powers of 2, so exact
    kap_r = copies * float(copies**2) ** -np.arange(1, 9) * analytic_cumulants(tied, rho, 8)
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
        "check": list(LAW_DEFAULTS)[space.dim - 1],
        "grid": axes[0] if space.dim == 1 else axes,
        "rho": rho,
        "mean_lhs": float(np.mean(lhs)),
        "mean_rhs": float(np.mean(rhs)),
    }


def _law_from_config(name: str, config: dict) -> dict:
    """:func:`law_check` on an n^d interval grid, d = 1 for duplication and 2 for
    quadruplication.  ``config`` gives grid (n), samples, rho, seed (required)
    and ks_tol; the first three default to ``LAW_DEFAULTS[name]``."""
    defaults = LAW_DEFAULTS[name]
    dim = list(LAW_DEFAULTS).index(name) + 1
    space = make_product_grid([make_interval_grid(int(config.get("grid", defaults["grid"])))] * dim)
    return law_check(
        builtin_kernel(law_kernel(dim), space),
        float(config.get("rho", defaults["rho"])),
        int(config.get("samples", defaults["samples"])),
        int(config["seed"]),
        config.get("ks_tol"),
    )


def duplication_check(config: dict) -> dict:
    """:func:`law_check` of the watson kernel on an n-point interval grid."""
    return _law_from_config("duplication", config)


def quadruplication_check(config: dict) -> dict:
    """:func:`law_check` of the sheet_compensated kernel on an n x n grid."""
    return _law_from_config("quadruplication", config)
