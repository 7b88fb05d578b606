"""Weighted eigendecompositions, degeneracy clusters, and canonical splits.

The interval kernels have known continuum spectra: sin(k pi t) eigenfunctions
with lambda_k = 1/(pi^2 k^2) for the tied-down kernel, and doubly degenerate
lambda_k = 1/(4 pi^2 k^2) for the compensated one.  The midpoint-rule
discretization converges at rate k^2/n^2, which the tests pin down.
"""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import _z3_rotation

from invdecomp import spectral
from invdecomp.cli import CHECKS, DEFAULT_TOLERANCES
from invdecomp.groups import character_table, group_from_dict, project_path
from invdecomp.kernels import (
    IndexSpace,
    Kernel,
    builtin_kernel,
    make_interval_grid,
    make_product_grid,
)
from invdecomp.spectral import (
    DecompositionError,
    canonical_decomposition,
    check_eigenspace_invariance,
    eigendecompose,
    spectrum_to_csv,
)


@pytest.fixture(scope="module")
def bridge512():
    return eigendecompose(builtin_kernel("bridge", make_interval_grid(512)))


@pytest.fixture(scope="module")
def watson512():
    return eigendecompose(builtin_kernel("watson", make_interval_grid(512)))


@pytest.fixture(scope="module")
def table512():
    return character_table(make_interval_grid(2).action.group)


# ------------------------------------------------------------ eigenvalues


def test_bridge_spectrum_oracle(bridge512):
    k = np.arange(1, 9)
    want = 1.0 / (np.pi**2 * k**2)
    rel = np.abs(bridge512.eigenvalues[:8] / want - 1)
    assert rel.max() < 2.1e-4  # measured 2.0e-4 at k=8, ~k^2/n^2
    assert rel[0] < 4e-6


def test_watson_spectrum_is_doubly_degenerate(watson512):
    lam = watson512.eigenvalues
    k = np.arange(1, 4)
    want = 1.0 / (4 * np.pi**2 * k**2)
    assert np.abs(lam[[0, 2, 4]] / want - 1).max() < 1.2e-4
    # pairs agree to machine precision relative to their size
    assert np.abs(lam[1::2][:10] / lam[0::2][:10] - 1).max() < 1e-10


def test_eigenvalues_sorted_and_nonnegative(watson512):
    lam = watson512.eigenvalues
    assert np.all(np.diff(lam) <= 0)
    assert lam.min() > 0


def test_basis_is_weighted_orthonormal(watson512):
    w = watson512.space.weights
    gram = watson512.basis.T @ (w[:, None] * watson512.basis)
    assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-12


def test_basis_reconstructs_kernel(watson512):
    k = builtin_kernel("watson", make_interval_grid(512))
    rec = (watson512.basis * watson512.eigenvalues) @ watson512.basis.T
    assert np.abs(rec - k.matrix).max() < 1e-12


# --------------------------------------------------------------- clusters


def test_bridge_clusters_are_simple(bridge512):
    sizes = {b - a for a, b in bridge512.clusters[:100]}
    assert sizes == {1}


def test_watson_clusters_are_pairs(watson512):
    sizes = [b - a for a, b in watson512.clusters[:50]]
    assert sizes == [2] * 50


def test_clusters_partition_spectrum(watson512):
    edges = [0]
    for a, b in watson512.clusters:
        assert a == edges[-1]
        edges.append(b)
    assert edges[-1] == 512


def _cluster_loop(evals):
    """The clusters of a descending spectrum, one gap at a time (the 0.8.10 loop)."""
    lmax = max(float(evals[0]), 0.0)
    clusters, start = [], 0
    for i in range(len(evals) - 1):
        gap = evals[i] - evals[i + 1]
        scale = max(abs(float(evals[i])), lmax * 1e-15, np.finfo(float).tiny)
        if gap / scale > spectral.CLUSTER_REL_TOL:
            clusters.append((start, i + 1))
            start = i + 1
    clusters.append((start, len(evals)))
    return tuple(clusters)


def _at_the_tolerance():
    """[1, c] for the 13 floats c nearest 1 - CLUSTER_REL_TOL: relative gaps within a
    few ulps of the tolerance, on both sides of it."""
    c = 1.0 - spectral.CLUSTER_REL_TOL
    for _ in range(6):
        c = np.nextafter(c, 2.0)
    out = []
    for _ in range(13):
        out.append([1.0, c])
        c = np.nextafter(c, 0.0)
    return out


@pytest.mark.parametrize(
    "evals",
    [
        [0.5],
        [3.0, 3.0, 3.0, 2.0, 2.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
        [2.0, 1.0, 1e-17, 0.0, -1e-17, -3e-17, -3e-17],
        [-1e-17, -2e-17, -2e-17],
        [1.0, 1e-15, 0.9e-15, 1e-16, 1e-300, 0.0],
        *_at_the_tolerance(),
    ],
)
def test_vectorized_clusters_are_the_gap_loops(evals):
    evals = np.array(evals)
    got = spectral._clusters(evals)
    assert got == _cluster_loop(evals)
    assert all(type(i) is int for c in got for i in c)


def test_tolerance_cases_fall_on_both_sides_of_the_gap():
    cuts = [len(spectral._clusters(np.array(e))) for e in _at_the_tolerance()]
    assert cuts[0] == 1 and cuts[-1] == 2


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(-1e-12, 1e3, allow_nan=False),
            st.sampled_from([0.0, -0.0, 1.0, 1.0 - 1e-6, 1e-300, -1e-17]),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_vectorized_clusters_are_the_gap_loops_on_any_descending_spectrum(values):
    evals = np.sort(np.array(values))[::-1]
    assert spectral._clusters(evals) == _cluster_loop(evals)


# -------------------------------------------------------------- invariance


def test_eigenspace_invariance(watson512):
    rep = check_eigenspace_invariance(watson512)
    assert rep["ok"]
    assert rep["max_residual"] < 1e-8
    assert len(rep["per_cluster"]) == len(watson512.clusters)


def test_eigenspace_invariance_needs_action():
    k = builtin_kernel("watson", replace(make_interval_grid(32), action=None))
    with pytest.raises(Exception):
        check_eigenspace_invariance(eigendecompose(k))


# --------------------------------------------------------- canonical split


def test_watson_canonical_split(watson512):
    splits = canonical_decomposition(watson512)
    # every degenerate pair carries one even and one odd direction
    for s in splits[:50]:
        assert s.dims == {"triv": 1, "sign": 1}
    assert sum(sum(s.dims.values()) for s in splits) == 512


def test_bridge_parity_alternates(bridge512):
    """sin(k pi t) is even about t=1/2 for odd k and odd for even k, so the
    simple clusters alternate between the two characters."""
    splits = canonical_decomposition(bridge512, tol=1e-6)
    got = []
    for s in splits[:12]:
        (label,) = [l for l, d in s.dims.items() if d == 1]
        got.append(label)
    assert got == ["triv", "sign"] * 6


def test_canonical_split_bases_have_symmetry(watson512, table512):
    """Each watson cluster holds one even and one odd eigenfunction: the
    character projections of its basis columns are reversal-even and -odd,
    and each spans one mu-unit direction (weighted singular values 1 and 0)."""
    splits = canonical_decomposition(watson512)
    action, sw = watson512.space.action, np.sqrt(watson512.space.weights)
    rev = np.arange(512)[::-1]
    for s in splits[:5]:
        a, b = s.index_range
        block = watson512.basis[:, a:b]
        parts = {p.label: project_path(block, action, p) for p in table512}
        even, odd = parts["triv"], parts["sign"]
        assert np.abs(even[rev] - even).max() < 1e-10
        assert np.abs(odd[rev] + odd).max() < 1e-10
        for img in (even, odd):
            sv = np.linalg.svd(sw[:, None] * img, compute_uv=False)
            assert np.abs(sv - [1.0, 0.0]).max() < 1e-10


def test_deep_spectrum_needs_looser_tol(bridge512):
    """Near the bottom of the spectrum neighboring eigenvalues are split by
    ~1e-9, so float64 eigenvectors mix and the per-cluster residual exceeds
    1e-8.  The library reports this as a decomposition failure rather than
    silently mislabeling; dimensions still sum exactly at a realistic tol."""
    with pytest.raises(DecompositionError):
        canonical_decomposition(bridge512, tol=1e-9)
    splits = canonical_decomposition(bridge512, tol=1e-5)
    assert sum(sum(s.dims.values()) for s in splits) == 512
    assert max(s.max_residual for s in splits[:20]) < 1e-12


# --------------------------------------------------------------------- csv


def test_spectrum_csv_layout(watson512):
    splits = canonical_decomposition(watson512)
    text = spectrum_to_csv(watson512, splits)
    lines = text.strip().splitlines()
    assert lines[0] == "k,lambda,cluster_id,irrep_label"
    assert len(lines) == 513
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == pytest.approx(watson512.eigenvalues[0])
    # degenerate clusters carry the joined label of their components
    top_labels = {line.split(",")[3] for line in lines[1:21]}
    assert top_labels == {"sign+triv"}
    assert {line.split(",")[3] for line in lines[1:]} <= {"triv", "sign", "sign+triv"}


def test_spectrum_csv_simple_clusters_alternate(bridge512):
    splits = canonical_decomposition(bridge512, tol=1e-5)
    lines = spectrum_to_csv(bridge512, splits).strip().splitlines()
    assert [line.split(",")[3] for line in lines[1:7]] == [
        "triv", "sign", "triv", "sign", "triv", "sign",
    ]


def test_spectrum_csv_without_splits(bridge512):
    lines = spectrum_to_csv(bridge512).strip().splitlines()
    assert lines[0] == "k,lambda,cluster_id,irrep_label"
    assert lines[1].endswith(",")  # label column empty when no split given


# ------------------------------------------- slabs against per-cluster loops


def _mu_coords(basis, w, vecs):
    return np.conj(basis).T @ (w[:, None] * vecs)


def _mu_norms(vecs, w):
    return np.sqrt(np.abs(np.sum(np.conj(vecs) * vecs * w[:, None], axis=0)).real)


def _reference_invariance(spectrum):
    """Worst residual per cluster, one cluster and one group element at a time,
    the identity included (the 0.7.2 loop)."""
    action = spectrum.space.action
    w = spectrum.space.weights
    inv_perm = action.perm[action.group.inv]
    per_cluster = []
    for a, b in spectrum.clusters:
        block = spectrum.basis[:, a:b]
        res = 0.0
        for g in range(action.group.order):
            moved = block[inv_perm[g]]
            proj = block @ _mu_coords(block, w, moved)
            res = max(res, float(np.max(_mu_norms(moved - proj, w))))
        per_cluster.append(res)
    return per_cluster


def _reference_canonical(spectrum, tol):
    """(index range, dims, residual) per cluster, one cluster at a time, each
    dimension the rank of a full SVD (singular vectors computed); raises at the
    first failing cluster (the 0.7.2 loop, less its sub-bases)."""
    action = spectrum.space.action
    w = spectrum.space.weights
    splits = []
    for a, b in spectrum.clusters:
        block = spectrum.basis[:, a:b]
        dims = {}
        residual = 0.0
        total = 0
        for p in character_table(action.group):
            img = project_path(block, action, p)
            norms = _mu_norms(img, w)
            if float(np.max(norms)) > 0:
                leak = img - block @ _mu_coords(block, w, img)
                residual = max(residual, float(np.max(_mu_norms(leak, w))))
            _, s, _ = np.linalg.svd(np.sqrt(w)[:, None] * img, full_matrices=False)
            rank = int(np.sum(s > 1e-6))
            dims[p.label] = rank
            total += rank
        if total != b - a or residual > tol:
            raise DecompositionError(
                f"cluster {a}:{b} split into {total} dims (expected {b - a}), "
                f"max residual {residual:.3e}"
            )
        splits.append(((a, b), dims, residual))
    return splits


def _interval_case(name, n):
    space = make_interval_grid(n)
    return builtin_kernel(name, space)


def _sheet_case(name, n1, n2):
    space = make_product_grid([make_interval_grid(n1), make_interval_grid(n2)])
    return builtin_kernel(name, space)


def _z3_case(k):
    """The stationary circle kernel on m = 3k points under Z3 rotation (complex characters)."""
    m = 3 * k
    _, action = group_from_dict(_z3_rotation(m))
    space = IndexSpace((np.arange(m) + 0.5) / m, np.full(m, 1.0 / m), action, f"circle[{m}]")
    u = np.arange(m) / m
    lag = np.mod(u[:, None] - u[None, :], 1.0)
    return Kernel(space, (lag - 0.5) ** 2 / 2 - 1.0 / 24, name="z3")


def _wide_case(n, seed):
    """I + v v^T with an even v: one cluster of width n - 1."""
    space = make_interval_grid(n)
    v = np.random.default_rng(seed).normal(size=n)
    v = v + v[::-1]
    return Kernel(space, np.eye(n) + np.outer(v, v), name="wide")


CASES = st.one_of(
    st.builds(_interval_case, st.sampled_from(["watson", "bridge"]), st.integers(5, 70)),
    st.builds(
        _sheet_case,
        st.sampled_from(["sheet_tied", "sheet_compensated"]),
        st.integers(2, 9),
        st.integers(2, 9),
    ),
    st.builds(_z3_case, st.integers(1, 20)),
    st.builds(_wide_case, st.integers(3, 40), st.integers(0, 2**16)),
)


def _assert_like_reference(spectrum, tol):
    want = _reference_invariance(spectrum)
    got = check_eigenspace_invariance(spectrum, tol=tol)
    assert len(got["per_cluster"]) == len(want)
    assert np.max(np.abs(np.array(got["per_cluster"]) - want)) <= 1e-14
    assert abs(got["max_residual"] - max(want)) <= 1e-14

    try:
        want = _reference_canonical(spectrum, tol)
    except DecompositionError as exc:
        with pytest.raises(DecompositionError) as got:
            canonical_decomposition(spectrum, tol=tol)
        assert str(got.value) == str(exc)
        return
    got = canonical_decomposition(spectrum, tol=tol)
    assert [s.index_range for s in got] == [r[0] for r in want]
    for split, (_, dims, residual) in zip(got, want):
        assert split.dims == dims
        assert abs(split.max_residual - residual) <= 1e-14


@settings(derandomize=True, max_examples=40, deadline=None)
@given(kernel=CASES, slab=st.sampled_from([1, 2, 3, 5, 256]), tol=st.sampled_from([1e-8, 1e-13]))
def test_slabs_match_the_per_cluster_loops(kernel, slab, tol):
    """Index ranges, dims, residuals, and the first failing cluster with its
    message, against the cluster-by-cluster loops; a small SLAB puts wide
    clusters alone in a slab wider than SLAB."""
    with mock.patch.object(spectral, "SLAB", slab):
        _assert_like_reference(eigendecompose(kernel), tol)


@pytest.mark.parametrize("slab", [3, 256])
def test_wide_cluster_matches_the_per_cluster_loops(slab):
    kernel = _wide_case(20, 0)
    spectrum = eigendecompose(kernel)
    assert max(b - a for a, b in spectrum.clusters) == 19
    with mock.patch.object(spectral, "SLAB", slab):
        _assert_like_reference(spectrum, 1e-8)


@pytest.fixture(scope="module")
def watson1024():
    return eigendecompose(builtin_kernel("watson", make_interval_grid(1024)))


def test_slabs_match_the_per_cluster_loops_at_watson1024(watson1024):
    """The runner's spectrum check at m = 1024 stops at the same cluster with
    the same message; which cluster fails depends on the BLAS behind eigh."""
    with pytest.raises(DecompositionError, match=r"split into 2 dims \(expected 2\)"):
        canonical_decomposition(watson1024)
    _assert_like_reference(watson1024, 1e-8)


@pytest.mark.parametrize("case", ["watson512", "watson1024", "sheet_compensated12x12"])
def test_singular_value_ranks_are_the_full_svd_ranks(case, request):
    """The split counts each irrep's dimension from singular values alone; the
    reference loop takes them from a full SVD.  The gate is opened (tol = inf)
    so that every cluster is compared, failing residuals included."""
    if case.startswith("sheet"):  # Z2 x Z2, four irreps
        spectrum = eigendecompose(_sheet_case("sheet_compensated", 12, 12))
    else:
        spectrum = request.getfixturevalue(case)
    got = canonical_decomposition(spectrum, tol=np.inf)
    want = _reference_canonical(spectrum, np.inf)
    assert [(s.index_range, s.dims) for s in got] == [(r, dims) for r, dims, _ in want]


def test_first_failing_cluster_at_watson1024_on_one_blas_thread(on_haswell):
    """The spectrum check's finding at m = 1024 with the bundled OpenBLAS's Haswell kernels on
    one thread, in a new interpreter so that both hold from the start."""
    code = """
from invdecomp.kernels import builtin_kernel, make_interval_grid
from invdecomp.spectral import DecompositionError, canonical_decomposition, eigendecompose
spectrum = eigendecompose(builtin_kernel("watson", make_interval_grid(1024)))
try:
    canonical_decomposition(spectrum)
except DecompositionError as exc:
    print(exc)
"""
    assert on_haswell(code).strip() == "cluster 970:972 split into 2 dims (expected 2), max residual 1.199e-08"


def _heap_peak_above_start(fn):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_spectrum_check_holds_one_slab_beyond_its_bases(watson1024):
    """At m = 1024 the split keeps no bases, so the two steps hold the slab
    work alone: within 8 blocks of SLAB = 256 columns (10.1 MiB measured,
    44 MiB for the whole basis in one slab)."""
    m = len(watson1024.eigenvalues)

    def run():
        check_eigenspace_invariance(watson1024)
        canonical_decomposition(watson1024, tol=1e-5)

    assert _heap_peak_above_start(run) <= 8 * 256 * m * 8


def test_decomposition_check_holds_one_block_at_a_time():
    """Four m x m blocks at m = 1024 (six at 0.7.2, seven with a C-ordered copy
    added alone): the sum, the C-ordered row projection, and the column
    projection's output and gathered term; the deviation is taken in place."""
    kernel = builtin_kernel("watson", make_interval_grid(1024))
    matrix = kernel.matrix  # a lag kernel's, built before the check as a dense kernel holds it
    ctx = {"kernel": kernel}
    run = lambda: CHECKS["decomposition"].run(ctx, DEFAULT_TOLERANCES, {})
    assert _heap_peak_above_start(run) <= 4 * matrix.nbytes + 2**20


def test_wrong_table_fails_like_the_per_cluster_loops():
    """A space whose group does not fix the kernel: bridge on 15 interval points with Z3
    rotating them by 5 bound in place of the reversal, so that group's table is the wrong
    one for the spectrum, and its characters are complex."""
    spectrum = eigendecompose(builtin_kernel("bridge", make_interval_grid(15)))
    _, action = group_from_dict(_z3_rotation(15))
    spectrum = replace(spectrum, space=replace(spectrum.space, action=action))
    with pytest.raises(DecompositionError):
        canonical_decomposition(spectrum)
    _assert_like_reference(spectrum, 1e-8)


def test_first_failure_is_in_cluster_order_across_widths():
    """Clusters of width 1 form the first slab, but the first failing cluster
    is the width-2 cluster 1:3 between them."""
    space = make_interval_grid(8)
    even = np.r_[1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0]
    rest = np.random.default_rng(5).normal(size=(8, 7))
    q, _ = np.linalg.qr(np.column_stack([even, rest]))
    spectrum = spectral.Spectrum(
        space=space,
        eigenvalues=np.array([5.0, 4, 4, 3, 2, 2, 1, 1]),
        basis=q * np.sqrt(8),
        clusters=((0, 1), (1, 3), (3, 4), (4, 6), (6, 8)),
    )
    with pytest.raises(DecompositionError, match=r"^cluster 1:3 "):
        canonical_decomposition(spectrum)
    _assert_like_reference(spectrum, 1e-8)
