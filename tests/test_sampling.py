"""Deterministic Gaussian sampling, pair functionals, and law comparisons."""

import hashlib
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import SFC64, Generator, Philox, SeedSequence
from scipy.stats import ks_2samp, kstat

from invdecomp import sampling
from invdecomp.cumulants import analytic_cumulants
from invdecomp.groups import character_table, project_path
from invdecomp.io import load_kernel
from invdecomp.kernels import (
    BUILTINS,
    CHUNK,
    IndexSpace,
    builtin_kernel,
    decompose_kernel,
    make_interval_grid,
    make_product_grid,
    weighted_eigh,
)
from invdecomp.sampling import (
    BLOCK,
    EXP_STREAM,
    KS_EXACT_MAX,
    RNG_CONTRACT,
    _chi2_sum,
    _chi2_terms,
    _clip_spectrum,
    _block_generator,
    compare_distributions,
    covariance_factor,
    draw_block,
    draw_chunks,
    duplication_check,
    ks_statistic,
    kstat as np_kstat,
    kstat_variances,
    law_check,
    null_ks_critical,
    pair_functional,
    quadruplication_check,
    sample,
    worker_count,
)
from invdecomp.torus import (
    Lattice,
    _chunk_width,
    fourier_factor,
    torus_grid,
    torus_watson,
    torus_watson_check,
)


def _fill_normals(out, seed, stream, a):
    """The normals of columns a, a+1, ... into the (ncols, r) ``out``, row-major, as every
    sampler reads them: through ``sampling._block_generator``, which ``_v3`` patches."""
    sampling._block_generator(seed, stream, a).standard_normal(out=out)


@pytest.fixture(scope="module")
def watson32():
    return builtin_kernel("watson", make_interval_grid(32))


# ------------------------------------------------------------- determinism


def test_same_seed_is_bitwise_reproducible(watson32):
    a = sample(watson32, 200, seed=9)
    b = sample(watson32, 200, seed=9)
    assert np.array_equal(a.samples, b.samples)
    assert a.seed == 9


def test_seed_and_stream_change_output(watson32):
    base = sample(watson32, 50, seed=9).samples
    assert not np.array_equal(base, sample(watson32, 50, seed=10).samples)
    assert not np.array_equal(base, sample(watson32, 50, seed=9, stream=1).samples)


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("INVDECOMP_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("INVDECOMP_THREADS", "not-a-number")
    assert worker_count() == 1
    monkeypatch.delenv("INVDECOMP_THREADS")
    assert worker_count() == 1


def test_worker_count_edge_values_and_machine_independence(monkeypatch):
    """Threads are opt-in: only a positive integer enlarges the pool."""
    for raw in ("", "0", "-2"):
        monkeypatch.setenv("INVDECOMP_THREADS", raw)
        assert worker_count() == 1, raw
    monkeypatch.delenv("INVDECOMP_THREADS")
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    assert worker_count() == 1


def test_thread_count_never_changes_samples(watson32, monkeypatch):
    """Worker parallelism distributes whole blocks, so the draw is identical."""
    out = {}
    for threads in ("1", "3", "8"):
        monkeypatch.setenv("INVDECOMP_THREADS", threads)
        out[threads] = sample(watson32, 5000, seed=4).samples
    assert np.array_equal(out["1"], out["3"])
    assert np.array_equal(out["1"], out["8"])


def test_block_boundary_is_seamless(watson32):
    """Draw counts straddling the internal block size agree sample-for-sample."""
    small = sample(watson32, 4096, seed=12).samples
    large = sample(watson32, 4100, seed=12).samples
    assert np.array_equal(large[:, :4096], small)


# --------------------------------------------- RNG keying (RNG_CONTRACT)

# few, reproducible examples: each one draws up to a few blocks
FEW = settings(derandomize=True, max_examples=4, deadline=None)
# roundoff of the 32-point factor apply, set from the dtype: BLAS may pick a
# different kernel for a different column count, so only the normals and
# the full blocks are bitwise prefix-stable
APPLY_TOL = 8 * 32 * np.finfo(float).eps


def test_rng_contract_golden_digest():
    """Pins the keying rule: one SFC64 generator per (seed, stream, block), seeded by
    SeedSequence(seed, spawn_key=(stream, block)), row-major."""
    assert RNG_CONTRACT == f"sfc64-block-{BLOCK}-rowmajor-v4" == "sfc64-block-4096-rowmajor-v4"
    buf = np.empty((4, 8))
    _fill_normals(buf, 1961, 3, 5 * BLOCK)
    want = Generator(SFC64(SeedSequence(1961, spawn_key=(3, 5)))).standard_normal(32).reshape(4, 8)
    assert np.array_equal(buf, want)
    digest = hashlib.sha256(buf.astype("<f8").tobytes()).hexdigest()
    assert digest == "de42614bfb32d2862ac8d9a2a07517be2a88b4784de7fad14126de4fd2487dba"


@pytest.mark.parametrize(
    "seed, stream, block",
    [(-1, 0, 0), (1 << 64, 0, 0), (0, -1, 0), (0, 1 << 16, 0), (0, 0, -1), (0, 0, 1 << 48)],
)
def test_key_rejects_aliasing_values(seed, stream, block):
    with pytest.raises(ValueError):
        _block_generator(seed, stream, block * BLOCK)


def test_key_accepts_its_extremes(watson32):
    top = (1 << 64) - 1
    assert isinstance(_block_generator(top, 0xFFFF, ((1 << 48) - 1) * BLOCK), Generator)
    assert isinstance(_block_generator(0, 1, 0), Generator)
    assert sample(watson32, 3, seed=top).samples.shape == (32, 3)
    with pytest.raises(ValueError, match="seed"):
        sample(watson32, 3, seed=1 << 64)
    with pytest.raises(ValueError, match="stream"):
        sample(watson32, 3, seed=1, stream=1 << 16)


def _torus_check(seed):
    grid = torus_grid(Lattice(np.eye(1)), 8)
    return torus_watson_check(torus_watson(grid), 10, seed=seed)


@pytest.mark.parametrize(
    "expensive, run",
    [
        ("invdecomp.sampling.covariance_factor", lambda k, seed: sample(k, 3, seed=seed)),
        ("invdecomp.sampling._chi2_terms", lambda k, seed: pair_functional(k, 0.5, 3, seed=seed)),
        ("invdecomp.sampling.builtin_kernel", lambda k, seed: law_check(k, 0.5, 1000, seed=seed)),
        ("invdecomp.torus.fourier_factor", lambda k, seed: _torus_check(seed)),
    ],
    ids=["sample", "pair_functional", "law_check", "torus_watson_check"],
)
def test_a_sampler_refuses_an_out_of_range_seed_before_its_first_step(watson32, expensive, run):
    """The key is judged on entry, so a seed that no block can take costs no eigh, kernel
    build or factor first."""
    with mock.patch(expensive, side_effect=AssertionError("ran before the key check")):
        with pytest.raises(ValueError, match=r"^seed must be in \[0, 2\*\*64\), got 18446744073709551616$"):
            run(watson32, 1 << 64)


@pytest.mark.parametrize(
    "rho, count, message",
    [(1.5, 1000, r"^rho must be in \[0, 1\], got 1.5$"), (0.5, 999, r"^need at least 1000 samples per side$")],
    ids=["rho", "count"],
)
def test_law_check_refuses_bad_input_before_its_first_step(watson32, rho, count, message):
    """rho and the sample floor are judged on entry, so a run that must fail builds no dense
    tied-down kernel and draws no sample first."""
    with mock.patch("invdecomp.sampling.builtin_kernel", side_effect=AssertionError("ran before the check")):
        with pytest.raises(ValueError, match=message):
            law_check(watson32, rho, count, seed=1)


@FEW
@given(
    block=st.integers(0, (1 << 48) - 1),
    k=st.integers(1, 40),
    extra=st.integers(0, 40),
    m=st.integers(1, 16),
)
def test_normals_prefix_is_bitwise(block, k, extra, m):
    short, long_ = np.empty((k, m)), np.empty((k + extra, m))
    _fill_normals(short, 7, 3, block * BLOCK)
    _fill_normals(long_, 7, 3, block * BLOCK)
    assert np.array_equal(short, long_[:k])


@FEW
@given(k=st.integers(1, 2 * BLOCK + 8), extra=st.integers(0, BLOCK + 8))
@example(k=BLOCK - 1, extra=2)
@example(k=BLOCK + 3, extra=BLOCK)
def test_sample_prefix_is_stable(watson32, k, extra):
    """sample(k) is the first k columns of sample(k + extra)."""
    small = sample(watson32, k, seed=31).samples
    large = sample(watson32, k + extra, seed=31).samples[:, :k]
    full = k // BLOCK * BLOCK
    assert np.array_equal(small[:, :full], large[:, :full])
    np.testing.assert_allclose(small, large, rtol=0, atol=APPLY_TOL)


@FEW
@given(count=st.integers(1, 2 * BLOCK + 8), rho=st.sampled_from([0.0, 0.5, 1.0]))
@example(count=BLOCK + 4, rho=1.0)
def test_worker_count_invariance(watson32, count, rho):
    seen = []
    for threads in ("1", "2", "3"):
        with mock.patch.dict(os.environ, {"INVDECOMP_THREADS": threads}):
            seen.append(
                (
                    sample(watson32, count, seed=2).samples,
                    pair_functional(watson32, rho, count, seed=2),
                )
            )
    for ens, j in seen[1:]:
        assert np.array_equal(ens, seen[0][0])
        assert np.array_equal(j, seen[0][1])


# ------------------------------------------------------ spectral pair functional


def _rank_deficient():
    # the reversal-even block of the watson kernel: half of its spectrum is 0
    k = builtin_kernel("watson", make_interval_grid(16))
    return decompose_kernel(k)["triv"]


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
@pytest.mark.parametrize(
    "make_kernel",
    [
        lambda: builtin_kernel("bridge", make_interval_grid(24)),
        # 6 x 5: a square sheet_tied has the Kronecker ties lambda_i lambda_j = lambda_j lambda_i
        lambda: builtin_kernel(
            "sheet_tied", make_product_grid([make_interval_grid(n) for n in (6, 5)])
        ),
        _rank_deficient,
    ],
    ids=["interval24", "sheet6x5", "rank_deficient"],
)
def test_pair_functional_is_the_dense_pair_functional_exactly(make_kernel, rho):
    """For the normals x, y that pair_functional draws (streams 0 and 1, seed 5,
    two blocks), sum_i w (L x)(L (rho x + c y)) with the factor L of sample
    is pair_functional's own output, up to the roundoff of L^T W L = Lambda_r:
    both samplers draw r normals per column and read normal k as the
    coordinate on the k-th kept eigenvalue.  This holds for a tie-free kept
    spectrum, which draws only normals; the kernels here are not stationary.
    """
    assert np.all(_chi2_terms(_clip_spectrum(make_kernel().eigenvalues), 1)[1] == 1)
    kernel = make_kernel()
    count = BLOCK + 4  # straddles a block edge
    l = covariance_factor(kernel)
    r = l.shape[1]
    x, y = np.empty((count, r)), np.empty((count, r))
    for a in (0, BLOCK):
        _fill_normals(x[a : a + BLOCK], 5, 0, a)
        _fill_normals(y[a : a + BLOCK], 5, 1, a)
    xi, eta = x.T, y.T
    comp = np.sqrt(1.0 - rho * rho)
    dense = kernel.space.weights @ ((l @ xi) * (l @ (rho * xi + comp * eta)))
    j = pair_functional(kernel, rho, count, seed=5)
    assert np.max(np.abs(j - dense)) <= 1e-12 * np.max(np.abs(dense))


def _small_kernels():
    interval = st.builds(
        lambda name, n: builtin_kernel(name, make_interval_grid(n)),
        st.sampled_from(["watson", "bridge"]),
        st.integers(2, 12),
    )
    sheet = st.builds(
        lambda name, n: builtin_kernel(name, make_product_grid([make_interval_grid(n)] * 2)),
        st.sampled_from(["sheet_compensated", "sheet_tied"]),
        st.integers(2, 4),
    )
    return st.one_of(interval, sheet)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(kernel=_small_kernels(), rho=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_pair_functional_has_the_law_of_the_dense_pair(kernel, rho, seed):
    """In law, J equals sum_i w Z1 Z2 of paths drawn through the factor L."""
    count = 5000
    j = pair_functional(kernel, rho, count, seed)
    z1 = sample(kernel, count, seed, stream=2).samples
    z2 = rho * z1 + np.sqrt(1.0 - rho * rho) * sample(kernel, count, seed, stream=3).samples
    dense = kernel.space.weights @ (z1 * z2)
    assert ks_2samp(j, dense).statistic < null_ks_critical(count)


# ------------------------------------------ exact ties drawn as exponentials


def _all_normal_pair(kernel, rho, count, seed, streams=(0, 1)):
    """The draw of versions up to 0.6.0: one normal per kept eigenvalue, tied or not."""
    lam = _clip_spectrum(kernel.eigenvalues)
    comp = np.sqrt(max(0.0, 1.0 - rho * rho))
    out = np.empty(count)
    for a in range(0, count, BLOCK):
        b = min(a + BLOCK, count)
        xi = np.empty((b - a, lam.size))
        _fill_normals(xi, seed, streams[0], a)
        j = np.einsum("ck,ck,k->c", xi, xi, lam)
        if comp > 0.0:
            eta = np.empty_like(xi)
            _fill_normals(eta, seed, streams[1], a)
            j = rho * j + comp * np.einsum("ck,ck,k->c", xi, eta, lam)
        out[a:b] = j
    return out


def _tied_kernels():
    """Bitwise circulant kernels, whose DFT spectra tie every +-frequency pair."""
    watson = st.builds(
        lambda k: builtin_kernel("watson", make_interval_grid(2**k)), st.integers(3, 6)
    )
    sheet = st.builds(_sheet_compensated, st.sampled_from([4, 8]))
    return st.one_of(watson, sheet)


def _sheet_compensated(n):
    return builtin_kernel("sheet_compensated", make_product_grid([make_interval_grid(n)] * 2))


def _expand(lam):
    """(pairs, single) of the ascending ``lam``, as ``_chi2_sum`` expands the list (lam, 1):
    run-major, nu // 2 exponential weights per entry and one normal weight per odd nu."""
    c, nu = _chi2_terms(lam, 1)
    return np.repeat(c, nu // 2), c[nu % 2 == 1]


def test_chi2_terms_takes_runs_of_bitwise_equal_values():
    lam = np.array([1.0, 2.0, 2.0, 3.0, 3.0, 3.0, np.nextafter(3.0, 4.0), 5.0, 5.0, 5.0, 5.0])
    for nu in (1, 4):
        c, dof = _chi2_terms(lam, nu)
        assert c.tolist() == [1.0, 2.0, 3.0, np.nextafter(3.0, 4.0), 5.0]
        assert dof.tolist() == [nu, 2 * nu, 3 * nu, nu, 4 * nu]
        assert dof.sum() == nu * lam.size
    assert [x.size for x in _chi2_terms(lam[:0], 1)] == [0, 0]
    pairs, single = _expand(lam)
    assert pairs.tolist() == [2.0, 3.0, 5.0, 5.0]
    assert single.tolist() == [1.0, 3.0, np.nextafter(3.0, 4.0)]


@settings(derandomize=True, max_examples=6, deadline=None)
@given(kernel=_tied_kernels(), rho=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**32))
@example(kernel=builtin_kernel("watson", make_interval_grid(32)), rho=1.0, seed=7)
@example(kernel=_sheet_compensated(8), rho=0.5, seed=7)
def test_tied_pair_functional_has_the_law_of_the_all_normal_draw(kernel, rho, seed):
    """Exponential pairs against the 0.6.0 draw of two normals per pair."""
    count = 5000
    assert np.any(_chi2_terms(_clip_spectrum(kernel.eigenvalues), 1)[1] > 1)
    j = pair_functional(kernel, rho, count, seed)
    ref = _all_normal_pair(kernel, rho, count, seed + 1)
    assert ks_statistic(j, ref) < null_ks_critical(count)


@settings(derandomize=True, max_examples=4, deadline=None)
@given(
    kernel=_tied_kernels(),
    count=st.integers(1, 2 * BLOCK + 8),
    rho=st.sampled_from([0.0, 0.5, 1.0]),
)
@example(kernel=builtin_kernel("watson", make_interval_grid(32)), count=BLOCK + 4, rho=0.5)
def test_tied_pair_functional_is_worker_count_invariant(kernel, count, rho):
    seen = []
    for threads in ("1", "2", "3"):
        with mock.patch.dict(os.environ, {"INVDECOMP_THREADS": threads}):
            seen.append(pair_functional(kernel, rho, count, seed=2))
    for j in seen[1:]:
        assert np.array_equal(j, seen[0])


@settings(derandomize=True, max_examples=4, deadline=None)
@given(kernel=_tied_kernels(), k=st.integers(1, 2 * BLOCK + 8), extra=st.integers(0, BLOCK + 8))
@example(kernel=builtin_kernel("watson", make_interval_grid(32)), k=BLOCK + 3, extra=BLOCK)
@example(kernel=_sheet_compensated(4), k=BLOCK - 1, extra=2)
def test_tied_pair_functional_prefix_is_stable_across_a_block_edge(kernel, k, extra):
    """pair_functional(k) is the first k values of pair_functional(k + extra): bitwise
    over full blocks, and to the roundoff of the GEMV in a partial one."""
    for rho in (0.5, 1.0):
        small = pair_functional(kernel, rho, k, seed=31)
        large = pair_functional(kernel, rho, k + extra, seed=31)[:k]
        full = k // BLOCK * BLOCK
        assert np.array_equal(small[:full], large[:full])
        tol = 4 * kernel.size * np.finfo(float).eps * np.abs(large).max()
        np.testing.assert_allclose(small, large, rtol=0, atol=tol)


def test_tied_pair_functional_golden_digest():
    """Pins the v3 layout under the v4 keying: on watson[8] the kept spectrum is 3
    tied pairs and 2 singles.  Per block, the singles read 2 normals per column on
    streams 0, 1, and the pairs 3 exponentials per column on streams 2^15 and
    2^15 + 1, one SFC64 generator per (seed, stream, block), row-major, ascending."""
    kernel = builtin_kernel("watson", make_interval_grid(8))
    pairs, single = _expand(_clip_spectrum(kernel.eigenvalues))
    assert (pairs.size, single.size) == (3, 2)
    rho, count, seed = 0.5, BLOCK + 4, 1961
    j = pair_functional(kernel, rho, count, seed)
    draw = lambda s, kind, n: getattr(
        Generator(SFC64(SeedSequence(seed, spawn_key=(s, 1)))), f"standard_{kind}"
    )(n).reshape(4, -1)
    xi, eta = draw(0, "normal", 8), draw(1, "normal", 8)
    ea, eb = draw(EXP_STREAM, "exponential", 12), draw(EXP_STREAM + 1, "exponential", 12)
    digest = hashlib.sha256(np.concatenate([ea, eb]).astype("<f8").tobytes()).hexdigest()
    assert digest == "5251305a0140257284e1e8361f4bb5fa7ead9036c27e4e0ea85c8118809f346a"
    c = np.sqrt(1.0 - rho * rho)
    terms = [xi * (rho * xi + c * eta) * single, ((1 + rho) * ea - (1 - rho) * eb) * pairs]
    want = sum(t.sum(axis=1) for t in terms)
    scale = sum(np.abs(t).sum(axis=1) for t in terms)
    assert np.all(np.abs(j[BLOCK:] - want) <= 8 * np.finfo(float).eps * scale)


def test_watson_1000_pair_functional_golden_digest():
    """Pins the samples of a grid whose size is not a power of two: watson[1000], built
    from its lag column, is exactly circulant, so its DFT spectrum has 499 tied pairs and
    2 singles, and the pairs draw exponentials."""
    kernel = builtin_kernel("watson", make_interval_grid(1000))
    pairs, single = _expand(_clip_spectrum(kernel.eigenvalues))
    assert (pairs.size, single.size) == (499, 2)
    j = pair_functional(kernel, 0.5, 5000, 1000)
    digest = hashlib.sha256(j.astype("<f8").tobytes()).hexdigest()
    assert digest == "150239e4714835a0f6d2d4ef45fb7d933376d97e5ab4efccb4b660cbed8f6ffa"


@settings(derandomize=True, max_examples=8, deadline=None)
@given(
    kernel=st.one_of(
        st.builds(lambda n: builtin_kernel("bridge", make_interval_grid(n)), st.integers(2, 40)),
        st.just(_rank_deficient()),
    ),
    rho=st.sampled_from([0.0, 0.5, 1.0]),
    count=st.integers(1, BLOCK + 8),
)
def test_tie_free_pair_functional_is_the_all_normal_draw_bitwise(kernel, rho, count):
    assert np.all(_chi2_terms(_clip_spectrum(kernel.eigenvalues), 1)[1] == 1)
    j = pair_functional(kernel, rho, count, 9)
    assert np.array_equal(j, _all_normal_pair(kernel, rho, count, 9))


def test_pair_functional_streams_leave_room_for_the_exponentials(watson32):
    with pytest.raises(ValueError, match="streams"):
        pair_functional(watson32, 1.0, 10, seed=1, streams=(0, EXP_STREAM))


@pytest.mark.parametrize("count", [0, -1])
def test_pair_functional_rejects_a_count_below_1(watson32, count):
    """As ``sample`` and ``torus_watson_check`` do, before any allocation."""
    with pytest.raises(ValueError, match="count must be >= 1"):
        pair_functional(watson32, 0.5, count, seed=1)


# ------------------------------------------- chi^2 right side of the law check


def _law_rhs(kernel, rho, count, seed):
    """The right side of ``law_check(kernel, rho, count, seed)``, as law_check draws it:
    the sum of 2^d copies of the tied-down partner's pair functional, over 4^d:
    its ``_chi2_sum`` draw on streams (2, 3)."""
    draws = {}

    def chi2_sum(*args):
        draws[args[5]] = out = _chi2_sum(*args)
        return out

    with mock.patch("invdecomp.sampling._chi2_sum", chi2_sum):
        law_check(kernel, rho, count, seed)
    return draws[(2, 3)]


def test_copies_sum_golden_digest():
    """Pins the right side's exponential streams: one SFC64 generator per (seed, block)
    on stream 2 (G^A) and 3 (G^B), h*m exponentials per column in row-major
    order, run-major: exponential k*h + j added to the k-th ascending eigenvalue."""
    tied = builtin_kernel("sheet_tied", make_product_grid([make_interval_grid(3)] * 2))
    m, h, rho = tied.size, 2, 0.5
    rhs = _law_rhs(_sheet_compensated(3), rho, BLOCK + 4, seed=1961)
    e = {
        s: Generator(SFC64(SeedSequence(1961, spawn_key=(s, 1)))).standard_exponential(4 * h * m)
        for s in (2, 3)
    }
    digest = hashlib.sha256(e[2].astype("<f8").tobytes()).hexdigest()
    assert digest == "c8a7a1d941600ef6fe0f59dbb659c365f8bb519ce4bacea476f538080bbbd94e"
    g = {s: e[s].reshape(4, m, h).sum(axis=2) for s in e}
    mu = _clip_spectrum(tied.eigenvalues)
    want = ((1 + rho) * g[2] - (1 - rho) * g[3]) @ mu / 16
    # roundoff of an h*m-term dot product, against the sum of its absolute terms
    scale = ((1 + rho) * g[2] + (1 - rho) * g[3]) @ mu / 16
    assert np.all(np.abs(rhs[BLOCK:] - want) <= 4 * h * m * np.finfo(float).eps * scale)


# compensated kernels of the law check; the test ids name the tied-down partners,
# whose copies the right side sums
LAW_KERNELS = [builtin_kernel("watson", make_interval_grid(32)), _sheet_compensated(4)]


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kernel", LAW_KERNELS, ids=["bridge32", "sheet4x4"])
def test_copies_sum_is_worker_and_prefix_stable(kernel, rho):
    """Bitwise equal at 1, 2 and 3 workers, and over full blocks at fewer columns."""
    copies, count = 2**kernel.space.dim, 2 * BLOCK + 8
    seen = []
    for threads in ("1", "2", "3"):
        with mock.patch.dict(os.environ, {"INVDECOMP_THREADS": threads}):
            seen.append(_law_rhs(kernel, rho, count, seed=2))
    for rhs in seen[1:]:
        assert np.array_equal(rhs, seen[0])
    full = seen[0]
    assert np.array_equal(_law_rhs(kernel, rho, 2 * BLOCK, seed=2), full[: 2 * BLOCK])
    part = _law_rhs(kernel, rho, BLOCK + 3, seed=2)
    assert np.array_equal(part[:BLOCK], full[:BLOCK])
    # roundoff of an h*m-term dot product, h = copies / 2
    tol = 4 * (copies // 2) * kernel.size * np.finfo(float).eps * np.abs(full).max()
    np.testing.assert_allclose(part, full[: BLOCK + 3], rtol=0, atol=tol)


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kernel", LAW_KERNELS, ids=["bridge32", "sheet4x4"])
def test_law_rhs_is_the_copies_gemv_of_one_fill_bitwise(kernel, rho):
    """On full blocks the right side is ((1+rho) E^A @ mu - (1-rho) E^B @ mu) / copies^2,
    E^A and E^B one fill of each block's stream 2 and 3, mu the tied-down kept
    spectrum with each value repeated h = copies / 2 times, run-major."""
    tied = builtin_kernel(BUILTINS[kernel.name].tied, kernel.space)
    copies = 2**kernel.space.dim
    mu = np.repeat(_clip_spectrum(tied.eigenvalues), copies // 2)
    rhs = _law_rhs(kernel, rho, 2 * BLOCK, seed=5)
    for a in (0, BLOCK):
        e = {s: np.empty((BLOCK, mu.size)) for s in (2, 3)}
        for s in e:
            _block_generator(5, s, a).standard_exponential(out=e[s])
        want = ((1 + rho) * (e[2] @ mu) - (1 - rho) * (e[3] @ mu)) / copies**2
        assert np.array_equal(rhs[a : a + BLOCK], want)


@pytest.mark.parametrize("rho", [0.5, 1.0])
@pytest.mark.parametrize("width", [100, 510, 1500])
@pytest.mark.parametrize("a, b", [(0, BLOCK), (BLOCK, BLOCK + 1000)], ids=["full", "partial"])
def test_streamed_exponential_gemv_is_one_fill_bitwise(a, b, width, rho):
    """The law checks draw and reduce their exponentials about CHUNK doubles at a
    time; the result is bitwise that of one fill of the block and one GEMV per side,
    the last chunk partial included."""
    weights = np.random.default_rng(width).random(width)
    got = _chi2_sum((weights, np.full(width, 2)), rho, b, 13, (0, 1), (2, 3))[a:]
    e = np.empty((b - a, width))
    _block_generator(13, 2, a).standard_exponential(out=e)
    want = (1.0 + rho) * (e @ weights)
    if rho < 1.0:
        _block_generator(13, 3, a).standard_exponential(out=e)
        want -= (1.0 - rho) * (e @ weights)
    assert np.array_equal(got, want)


def _tiled_law_rhs(kernel, rho, count, seed):
    """The right side of versions up to 0.8.20: the tied-down kept spectrum mu tiled
    h = copies / 2 times, copy-major, over copies^2, drawn as exponential pairs on streams
    (2, 3)."""
    tied = builtin_kernel(BUILTINS[kernel.name].tied, kernel.space)
    copies = 2**kernel.space.dim
    weights = np.tile(_clip_spectrum(tied.eigenvalues), copies // 2) / copies**2
    return _chi2_sum((weights, np.full(weights.size, 2)), rho, count, seed, (2, 3), (2, 3))


@settings(derandomize=True, max_examples=6, deadline=None)
@given(
    n=st.sampled_from([4, 8]), rho=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**32)
)
@example(n=8, rho=0.5, seed=7)
def test_run_major_law_rhs_has_the_law_of_the_tiled_draw(n, rho, seed):
    """The right side's exponentials moved from copy-major to run-major; the law did not."""
    count, kernel = 5000, _sheet_compensated(n)
    rhs = _law_rhs(kernel, rho, count, seed)
    ref = _tiled_law_rhs(kernel, rho, count, seed + 1)
    assert ks_statistic(rhs, ref) < null_ks_critical(count)


class _CountedGenerator:
    """A block generator that tallies the normals and exponentials drawn on its stream."""

    def __init__(self, tally, seed, stream, a):
        self.tally, self.stream = tally, stream
        self.gen = _block_generator(seed, stream, a)

    def standard_normal(self, out):
        self.tally[self.stream, "normal"] += out.size
        return self.gen.standard_normal(out=out)

    def standard_exponential(self, out):
        self.tally[self.stream, "exponential"] += out.size
        return self.gen.standard_exponential(out=out)


@pytest.mark.parametrize(
    "check, want",
    [
        # rho = 1: one stream per side; 127 tied pairs and 2 singles on the left
        (duplication_check, {(0, "normal"): 2, (EXP_STREAM, "exponential"): 127, (2, "exponential"): 256}),
        # rho = 0.5: two streams per side; 510 tied pairs and 4 singles on the left
        (
            quadruplication_check,
            {
                (0, "normal"): 4,
                (1, "normal"): 4,
                (EXP_STREAM, "exponential"): 510,
                (EXP_STREAM + 1, "exponential"): 510,
                (2, "exponential"): 2048,
                (3, "exponential"): 2048,
            },
        ),
    ],
    ids=["watson-duplication", "quadruplication"],
)
def test_law_checks_draw_their_variates_per_column(check, want):
    """The variates per column, stream and kind of the preset grids and rhos: the one
    run-major expansion draws as many as the two expansions it replaced."""
    tally, count = {key: 0 for key in want}, 1000
    counted = lambda seed, stream, a: _CountedGenerator(tally, seed, stream, a)
    with mock.patch("invdecomp.sampling._block_generator", counted):
        check({"seed": 3, "samples": count})
    assert tally == {key: n * count for key, n in want.items()}


def _compensated_kernels():
    watson = st.builds(lambda n: builtin_kernel("watson", make_interval_grid(n)), st.integers(8, 32))
    return st.one_of(watson, st.builds(_sheet_compensated, st.integers(4, 8)))


@settings(derandomize=True, max_examples=6, deadline=None)
@given(
    kernel=_compensated_kernels(),
    rho=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32),
)
@example(kernel=builtin_kernel("watson", make_interval_grid(32)), rho=1.0, seed=7)
@example(kernel=_sheet_compensated(8), rho=1.0, seed=7)
@example(kernel=_sheet_compensated(4), rho=0.0, seed=7)
def test_copies_sum_has_the_law_of_the_sum_of_copies(kernel, rho, seed):
    """The chi^2 right side equals in law 4^-d times the sum of 2^d independent
    pair functionals of the tied-down partner, drawn one copy at a time."""
    count = 5000
    tied = builtin_kernel(BUILTINS[kernel.name].tied, kernel.space)
    copies = 2**kernel.space.dim
    rhs = _law_rhs(kernel, rho, count, seed)
    # seed + 1: streams 2 and 3 of the same seed share the exponentials' Philox keys
    ref = sum(
        pair_functional(tied, rho, count, seed + 1, streams=(2 + 2 * i, 3 + 2 * i))
        for i in range(copies)
    ) / copies**2
    assert ks_2samp(rhs, ref).statistic < null_ks_critical(count)
    kappa = copies * float(copies**2) ** -np.arange(1, 9) * analytic_cumulants(tied, rho, 8)
    sd = np.sqrt(kstat_variances(kappa, count))
    for draw in (rhs, ref):
        k = np.array([kstat(draw, n) for n in (1, 2, 3, 4)])
        assert np.all(np.abs(k - kappa[:4]) <= 5 * sd)


# ------------------------------------- v4 against v3: the keying moved, the laws did not

LAW_COUNT = 20_000  # draws per side of each law test below


def _philox_block_generator(seed, stream, a):
    """The v3 keying rule (versions 0.7.0 to 0.7.4), kept here as the law tests'
    reference: one counter-based Philox stream per block, keyed by 64 bits of seed,
    16 of stream id and 48 of block index, packed into two 64-bit words."""
    return Generator(Philox(key=np.array([seed, (stream << 48) | a // BLOCK], dtype=np.uint64)))


def _v3(draw, *args, **kwargs):
    """``draw(*args, **kwargs)`` with every block keyed by the v3 rule."""
    with mock.patch("invdecomp.sampling._block_generator", _philox_block_generator):
        return draw(*args, **kwargs)


def test_v3_reference_is_the_philox_keying():
    """The reference draws the v3 golden normals: the patch reaches every sampler."""
    buf = np.empty((4, 8))
    _v3(_fill_normals, buf, 1961, 3, 5 * BLOCK)
    digest = hashlib.sha256(buf.astype("<f8").tobytes()).hexdigest()
    assert digest == "747e271c5ad795c8213dbf10a0826dd0436a6e39cc8bf3a3eb80087d1c37c143"


@settings(derandomize=True, max_examples=4, deadline=None)
@given(kernel=_small_kernels(), seed=st.integers(0, 2**32))
@example(kernel=builtin_kernel("watson", make_interval_grid(12)), seed=7)
def test_sample_has_the_law_of_the_v3_sample(kernel, seed):
    """Paths of v4 against v3: the weighted energy and the first point's value."""
    new = sample(kernel, LAW_COUNT, seed).samples
    old = _v3(sample, kernel, LAW_COUNT, seed).samples
    w = kernel.space.weights
    assert ks_statistic(w @ new**2, w @ old**2) < null_ks_critical(LAW_COUNT)
    assert ks_statistic(new[0], old[0]) < null_ks_critical(LAW_COUNT)


@settings(derandomize=True, max_examples=6, deadline=None)
@given(
    kernel=st.one_of(
        _tied_kernels(),
        st.builds(lambda n: builtin_kernel("bridge", make_interval_grid(n)), st.integers(2, 40)),
    ),
    rho=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32),
)
@example(kernel=builtin_kernel("watson", make_interval_grid(32)), rho=0.5, seed=7)
@example(kernel=_sheet_compensated(8), rho=0.0, seed=7)
@example(kernel=builtin_kernel("bridge", make_interval_grid(24)), rho=1.0, seed=7)
def test_pair_functional_has_the_law_of_the_v3_draw(kernel, rho, seed):
    """Tied spectra (normals and exponentials) and tie-free ones (normals only)."""
    j = pair_functional(kernel, rho, LAW_COUNT, seed)
    ref = _v3(pair_functional, kernel, rho, LAW_COUNT, seed)
    assert ks_statistic(j, ref) < null_ks_critical(LAW_COUNT)


@settings(derandomize=True, max_examples=4, deadline=None)
@given(
    kernel=st.one_of(
        st.builds(lambda n: builtin_kernel("watson", make_interval_grid(n)), st.integers(8, 32)),
        st.builds(_sheet_compensated, st.integers(3, 6)),
    ),
    rho=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32),
)
@example(kernel=_sheet_compensated(4), rho=0.5, seed=7)
def test_copies_sum_has_the_law_of_the_v3_draw(kernel, rho, seed):
    """The right side of law_check against the same draw keyed by the v3 rule."""
    rhs = _law_rhs(kernel, rho, LAW_COUNT, seed)
    ref = _v3(_law_rhs, kernel, rho, LAW_COUNT, seed)
    assert ks_statistic(rhs, ref) < null_ks_critical(LAW_COUNT)


# ------------------------------------------------------------ factor


def test_covariance_factor_reproduces_kernel_on_nonuniform_weights():
    x, w = np.polynomial.legendre.leggauss(40)
    space = IndexSpace((x + 1) / 2, w / 2, name="gauss-legendre[40]")
    k = builtin_kernel("bridge", space)
    l = covariance_factor(k)
    assert l.shape == (k.size, k.size)
    assert np.abs(l @ l.T - k.matrix).max() < 1e-14


@pytest.mark.parametrize(
    "make_kernel",
    [
        lambda: builtin_kernel("watson", make_interval_grid(16)),
        lambda: builtin_kernel("watson", make_interval_grid(64)),
        lambda: builtin_kernel("sheet_compensated", make_product_grid([make_interval_grid(8)] * 2)),
        _rank_deficient,
    ],
    ids=["interval16", "interval64", "sheet8x8", "rank_deficient"],
)
def test_covariance_factor_is_the_kl_factor(make_kernel):
    """L is bitwise W^-1/2 V_r sqrt(Lambda_r) on the r kept, largest, eigenpairs."""
    k = make_kernel()
    evals, vecs = weighted_eigh(k)
    m, r = k.size, _clip_spectrum(evals).size
    l = covariance_factor(k)
    assert l.shape == (m, r)
    want = vecs[:, m - r :] * np.sqrt(evals[m - r :]) / np.sqrt(k.space.weights)[:, None]
    assert np.array_equal(l, want)
    assert np.abs(l @ l.T - k.matrix).max() < 1e-14


def test_draw_block_reads_r_normals_per_column():
    """A rank-r factor takes r normals per column of its block's stream, row-major."""
    l = np.random.default_rng(0).standard_normal((9, 4))  # m = 9, r = 4
    got = draw_block(l, 3, 1, BLOCK, BLOCK + 10)
    xi = Generator(SFC64(SeedSequence(3, spawn_key=(1, 1)))).standard_normal((10, 4))
    assert np.array_equal(got, l @ xi.T)


@pytest.mark.parametrize("width", [1, 7, 256, 1000])
@pytest.mark.parametrize(
    "a, b", [(2 * BLOCK, 3 * BLOCK), (BLOCK, BLOCK + 1500)], ids=["full", "partial"]
)
def test_block_generator_pulled_in_chunks_gives_the_normals_of_one_fill(width, a, b):
    """A block's normals do not depend on how many columns are pulled from its generator at once."""
    want = np.empty((b - a, 5))
    _fill_normals(want, 11, 2, a)
    normals, got = _block_generator(11, 2, a), np.empty_like(want)
    for c in range(0, b - a, width):
        normals.standard_normal(out=got[c : c + width])
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "make_factor",
    [
        lambda: fourier_factor(torus_watson(torus_grid(Lattice(np.eye(2)), 32))),
        lambda: fourier_factor(torus_watson(torus_grid(Lattice(np.eye(1)), 256))),
        lambda: covariance_factor(builtin_kernel("bridge", make_interval_grid(256))),
    ],
    ids=["fourier32x32", "fourier256", "dense_bridge256"],
)
@pytest.mark.parametrize("a, b", [(0, BLOCK), (BLOCK, BLOCK + 1000)], ids=["full", "partial"])
def test_chunked_draw_is_draw_block_bitwise(make_factor, a, b):
    """The torus check draws _chunk_width(m) columns at a time; its paths are bitwise
    those of the whole block, the last chunk partial included."""
    l = make_factor()
    width = _chunk_width(l.shape[0])
    chunks = list(draw_chunks(l, 13, 0, a, b, width))
    assert [c for c, _, _ in chunks] == list(range(a, b, width))
    assert chunks[-1][1].shape == (l.shape[0], (b - a) % width or width)
    assert np.array_equal(np.hstack([x for _, x, _ in chunks]), draw_block(l, 13, 0, a, b))


@pytest.mark.parametrize("a, b", [(0, BLOCK), (BLOCK, BLOCK + 1000)], ids=["full", "partial"])
def test_chunked_draw_yields_the_normals_of_each_chunk(a, b):
    """Each chunk comes with its normals, the rows of the block's one fill in turn,
    and its paths are the factor times their transpose."""
    l = fourier_factor(torus_watson(torus_grid(Lattice(np.eye(2)), 32)))
    want = np.empty((b - a, l.shape[1]))
    _fill_normals(want, 13, 0, a)
    for c, x, xi in draw_chunks(l, 13, 0, a, b, _chunk_width(l.shape[0])):
        assert np.array_equal(xi, want[c - a : c - a + x.shape[1]])
        assert np.array_equal(x, l @ xi.T)


def test_chunked_draw_of_a_partial_block_is_draw_block_to_roundoff():
    """BLAS may compute the columns of a short last chunk with another kernel than in
    the whole block (OpenBLAS does when its width is not a multiple of 8): the full
    chunks stay bitwise and the last agrees to roundoff, as the contract allows."""
    l = fourier_factor(torus_watson(torus_grid(Lattice(np.eye(2)), 32)))
    width = _chunk_width(l.shape[0])
    a, b = BLOCK, BLOCK + 2 * width + 3
    got = np.hstack([x for _, x, _ in draw_chunks(l, 13, 0, a, b, width)])
    want = draw_block(l, 13, 0, a, b)
    assert np.array_equal(got[:, : 2 * width], want[:, : 2 * width])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


def test_zero_kernel_has_an_empty_factor_and_zero_paths(kernel_file):
    k = load_kernel(kernel_file(np.zeros((8, 8))))
    assert covariance_factor(k).shape == (8, 0)
    ens = sample(k, BLOCK + 3, seed=1)
    assert np.array_equal(ens.samples, np.zeros((8, BLOCK + 3)))


# ------------------------------------------------------------------ moments


def test_empirical_covariance(watson32):
    ens = sample(watson32, 20000, seed=101)
    assert ens.samples.shape == (32, 20000)
    emp = ens.samples @ ens.samples.T / 20000
    assert np.abs(emp - watson32.matrix).max() < 5e-3  # measured 1.9e-3


# -------------------------------------------------------------- functionals


def test_pair_functional_is_weighted_dot():
    """At rho = 1, J is the dot of the squared stream-0 normals with the ascending
    spectrum, for a tie-free one (the bridge's, from the dense eigvalsh)."""
    bridge32 = builtin_kernel("bridge", make_interval_grid(32))
    xi = np.empty((100, 32))
    _fill_normals(xi, 5, 0, 0)
    manual = np.einsum("sk,k,sk->s", xi, bridge32.eigenvalues, xi)
    j = pair_functional(bridge32, 1.0, 100, seed=5)
    assert np.allclose(j, manual, rtol=1e-14)
    # the second stream is never drawn
    assert np.array_equal(j, pair_functional(bridge32, 1.0, 100, seed=5, streams=(0, 9)))


def test_functional_mean_matches_first_cumulant(watson32):
    from invdecomp.cumulants import analytic_cumulants

    j = pair_functional(watson32, 1.0, 50000, seed=30)
    want = analytic_cumulants(watson32, 1.0, 2)
    assert j.mean() == pytest.approx(want[0], abs=4 * np.sqrt(want[1] / 50000))


# ------------------------------------------------------------ decomposition


def _parts(kernel, count, seed):
    """A sampled ensemble and its character projections, by irrep label."""
    ens = sample(kernel, count, seed=seed)
    action = kernel.space.action
    table = character_table(action.group)
    return ens, {p.label: project_path(ens.samples, action, p) for p in table}


def test_ensemble_decomposition_recovers_paths(watson32):
    ens, parts = _parts(watson32, 300, 8)
    assert set(parts) == {"triv", "sign"}
    total = sum(parts.values())
    assert np.abs(total - ens.samples).max() < 1e-14


def test_ensemble_parts_have_exact_symmetry(watson32):
    _, parts = _parts(watson32, 64, 8)
    rev = watson32.space.action.perm[1]
    assert np.array_equal(parts["triv"][rev], parts["triv"])
    assert np.array_equal(parts["sign"][rev], -parts["sign"])


def test_ensemble_parts_are_orthogonal(watson32):
    """Pathwise Parseval: weighted energies of the parts sum to the total."""
    ens, parts = _parts(watson32, 500, 14)
    w = watson32.space.weights
    cross = np.einsum("is,i,is->s", parts["triv"], w, parts["sign"])
    assert np.abs(cross).max() < 1e-15
    total = np.einsum("is,i,is->s", ens.samples, w, ens.samples)
    split = sum(np.einsum("is,i,is->s", p, w, p) for p in parts.values())
    assert np.allclose(split, total, rtol=1e-12)


# ------------------------------------------------------------- law checking


def test_compare_distributions_same_law(watson32):
    a = pair_functional(watson32, 1.0, 5000, seed=5)
    b = pair_functional(watson32, 1.0, 5000, seed=7)
    cmp_ = compare_distributions(a, b)
    assert cmp_["ks_distance"] < 2.2 * np.sqrt(2.0 / 5000)
    assert abs(cmp_["cumulant_gaps"][0]) < 5e-3


def test_compare_distributions_different_law(watson32):
    bridge = builtin_kernel("bridge", make_interval_grid(32))
    a = pair_functional(watson32, 1.0, 5000, seed=5)
    b = pair_functional(bridge, 1.0, 5000, seed=6)
    assert compare_distributions(a, b)["ks_distance"] > 0.1  # measured 0.30


def test_compare_distributions_sample_floor():
    with pytest.raises(ValueError, match="1000"):
        compare_distributions(np.zeros(500), np.zeros(500))


def _two_samples(n1, n2, kind, seed=11):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(n1) ** 3, 1.1 * rng.standard_normal(n2)
    if kind == "ties":
        a, b = np.round(a, 1), np.round(b, 1)
    elif kind == "integers":
        a, b = rng.integers(0, 5, n1).astype(float), rng.integers(0, 5, n2).astype(float)
    elif kind == "same":
        b = a[:n2].copy()
    return a, b


@pytest.mark.parametrize(
    "n1, n2, kind",
    [
        (1000, 1000, "continuous"),  # the floor of compare_distributions
        (KS_EXACT_MAX, KS_EXACT_MAX, "continuous"),  # the largest size scipy snaps
        (KS_EXACT_MAX + 1, KS_EXACT_MAX + 1, "continuous"),  # the smallest it does not
        (100_000, 100_000, "continuous"),  # the law checks' default
        (1000, 1500, "continuous"),
        (3000, 4500, "ties"),
        (KS_EXACT_MAX, KS_EXACT_MAX + 1, "continuous"),
        (2000, 700, "integers"),
        (20_000, 20_000, "ties"),
        (20_000, 20_000, "same"),  # distance zero, unsnapped: its sign must be +
        (2 * CHUNK + 3, CHUNK - 1, "ties"),  # unequal sizes on both sides of CHUNK
        (150_000, 150_000, "integers"),  # tie runs of about 30k straddle the chunk edges
        (CHUNK + 1, CHUNK + 1, "same"),  # distance zero over two chunks: its sign must be +
    ],
)
def test_statistics_are_bitwise_scipys(n1, n2, kind):
    """The numpy KS distance and k-statistics equal scipy's exactly, no tolerance."""
    a, b = _two_samples(n1, n2, kind)
    d = ks_statistic(a, b)
    assert d == ks_2samp(a, b).statistic
    assert np.copysign(1.0, d) == 1.0
    for x in (a, b):
        for n in (1, 2, 3, 4):
            assert np_kstat(x, n) == kstat(x, n)
    if min(n1, n2) >= 1000:
        cmp_ = compare_distributions(a, b)
        assert cmp_["ks_distance"] == ks_2samp(a, b).statistic
        assert cmp_["kstats_a"] == [kstat(a, n) for n in (1, 2, 3, 4)]
        assert cmp_["kstats_b"] == [kstat(b, n) for n in (1, 2, 3, 4)]


@pytest.mark.parametrize("empty_first", [True, False])
def test_ks_statistic_refuses_an_empty_sample(empty_first):
    pair = (np.array([]), np.ones(20_000))
    with pytest.raises(ValueError, match="both samples must be non-empty"):
        ks_statistic(*(pair if empty_first else pair[::-1]))


def test_ks_statistic_holds_its_sorted_copies_and_a_few_chunks():
    """On 100,000 points a side the KS distance peaks within its two sorted
    copies, 8 (n1 + n2) bytes, and 4 x ``CHUNK`` doubles (3.53 MiB) above its
    entry: it evaluates the CDFs ``CHUNK`` points at a time."""
    a, b = _two_samples(100_000, 100_000, "continuous")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ks_statistic(a, b)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (a.size + b.size) + 4 * 8 * CHUNK


def test_kstat_takes_orders_one_to_four():
    with pytest.raises(ValueError, match="1 to 4"):
        np_kstat(np.zeros(10), 5)


def test_kstat_variances_gaussian_closed_forms():
    """Sampling variances of k-statistics for N(0, 2), n = 100."""
    n, k2 = 100, 2.0
    var = kstat_variances((0, k2, 0, 0, 0, 0, 0, 0), n)
    assert var[0] == pytest.approx(k2 / n)
    assert var[1] == pytest.approx(2 * k2**2 / (n - 1))
    assert var[2] == pytest.approx(6 * n * k2**3 / ((n - 1) * (n - 2)))
    assert var[3] == pytest.approx(24 * n * (n + 1) * k2**4 / ((n - 1) * (n - 2) * (n - 3)))


# ----------------------------------------------------------- bundled checks


def test_duplication_check_small():
    rep = duplication_check({"grid": 64, "samples": 4000, "rho": 1.0, "seed": 1961})
    assert rep["ok"]
    assert rep["check"] == "duplication"
    assert rep["comparison"]["ks_distance"] < rep["ks_tol"]
    assert rep["mean_lhs"] == pytest.approx(1.0 / 12, rel=0.05)
    assert rep["pass"]["ks"] and rep["pass"]["cumulants"]


def test_quadruplication_check_small():
    rep = quadruplication_check({"grid": 12, "samples": 3000, "rho": 0.5, "seed": 4104})
    assert rep["ok"]
    assert rep["check"] == "quadruplication"
    assert len(rep["analytic_lhs"]) == len(rep["analytic_rhs"])


@pytest.mark.parametrize("check", [duplication_check, quadruplication_check])
@pytest.mark.parametrize(
    "config, message",
    [
        ({"seed": 1, "sample": 5000}, "unknown key 'sample'"),
        ({"grid": 8, "samples": 2000}, "seed is required"),
        ({"n": 8, "tol": 0.1}, "unknown key 'n'; unknown key 'tol'; seed is required"),
    ],
    ids=["misspelt-samples", "no-seed", "both"],
)
def test_law_wrappers_refuse_keys_they_do_not_read(check, config, message, monkeypatch):
    """A key the wrapper does not read, or no seed, raises before any kernel is built."""
    monkeypatch.setattr("invdecomp.sampling.builtin_kernel", lambda *a: pytest.fail("kernel built"))
    with pytest.raises(ValueError, match=f"_check: {message} \\(keys: grid, samples, rho, seed, ks_tol\\)"):
        check(config)


def test_duplication_check_is_deterministic():
    cfg = {"grid": 32, "samples": 2000, "rho": 1.0, "seed": 3}
    assert duplication_check(cfg) == duplication_check(cfg)
