"""Grids, built-in covariance kernels, projections, and contraction powers."""

import math
import re
import tracemalloc
from dataclasses import replace
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invdecomp import kernels
from invdecomp.groups import character_table, cyclic_group, group_from_dict
from invdecomp.kernels import (
    BUILTINS,
    TORUS_KERNEL,
    IndexSpace,
    Kernel,
    KernelError,
    builtin_kernel,
    check_invariance,
    contract_power,
    decompose_kernel,
    irrep_spectra,
    law_kernel,
    make_interval_grid,
    make_product_grid,
    project_kernel,
    weighted_symmetric,
    weighted_traces,
)
from invdecomp.sampling import LAW_DEFAULTS
from invdecomp.torus import Lattice, torus_grid, torus_watson


# ------------------------------------------------------------------- grids


def test_interval_grid_is_midpoint_rule():
    sp = make_interval_grid(4)
    assert np.array_equal(sp.points.ravel(), [0.125, 0.375, 0.625, 0.875])
    assert np.array_equal(sp.weights, np.full(4, 0.25))
    # time reversal t -> 1-t permutes midpoints exactly
    assert np.array_equal(sp.action.perm[1], [3, 2, 1, 0])


def test_interval_grid_without_action():
    sp = replace(make_interval_grid(8), action=None)
    assert sp.action is None
    assert np.array_equal(sp.points, make_interval_grid(8).points)
    assert sp.shape == (8,) and sp.name == "interval[8]"


def test_product_grid():
    sp = make_product_grid([make_interval_grid(3), make_interval_grid(2)])
    assert sp.points.shape == (6, 2)
    assert np.allclose(sp.weights, 1.0 / 6)
    assert abs(sp.weights.sum() - 1.0) < 1e-15
    assert sp.action.group.order == 4  # Z2 x Z2


# ---------------------------------------------------------------- built-ins

# frozen spot values on the 4-point midpoint grid
BRIDGE_SPOT = 0.375 - 0.375 * 0.625  # = 0.140625
WATSON_DIAG = 1.0 / 12
WATSON_HALF = -1.0 / 24  # profile at |s-t| = 1/2


def test_bridge_spot_values():
    k = builtin_kernel("bridge", make_interval_grid(4))
    assert k.matrix[1, 2] == BRIDGE_SPOT
    assert k.matrix[2, 1] == BRIDGE_SPOT


def test_watson_spot_values():
    k = builtin_kernel("watson", make_interval_grid(4))
    assert np.allclose(np.diag(k.matrix), WATSON_DIAG, atol=1e-15)
    assert abs(k.matrix[0, 2] - WATSON_HALF) < 1e-15


def test_watson_two_formulas_agree():
    # min(s,t) - (s+t)/2 + (s-t)^2/2 + 1/12  ==  (|s-t|-1/2)^2/2 - 1/24
    sp = make_interval_grid(32)
    k = builtin_kernel("watson", sp)
    t = sp.points.ravel()
    u = np.abs(t[:, None] - t[None, :])
    alt = (u - 0.5) ** 2 / 2 - 1.0 / 24
    assert np.abs(k.matrix - alt).max() < 1e-15


@pytest.mark.parametrize("n", [32, 64])
def test_watson_marginal_is_grid_constant(n):
    """The continuum marginal of K(s, .) is 0; midpoint quadrature of the
    piecewise-quadratic profile leaves exactly the constant 1/(12 n^2),
    uniform in s."""
    sp = make_interval_grid(n)
    k = builtin_kernel("watson", sp)
    marg = k.matrix @ sp.weights
    assert np.abs(marg - 1.0 / (12 * n * n)).max() < 1e-14


def test_sheet_kernels_are_products():
    sp = make_product_grid([make_interval_grid(4), make_interval_grid(4)])
    tied = builtin_kernel("sheet_tied", sp)
    comp = builtin_kernel("sheet_compensated", sp)
    b = builtin_kernel("bridge", make_interval_grid(4)).matrix
    w = builtin_kernel("watson", make_interval_grid(4)).matrix
    assert np.allclose(tied.matrix, np.kron(b, b), atol=1e-15)
    assert np.allclose(comp.matrix, np.kron(w, w), atol=1e-15)


def test_unknown_kernel_name():
    with pytest.raises(KernelError):
        builtin_kernel("brownian", make_interval_grid(4))


def test_user_matrix_is_not_a_builtin():
    """A user_matrix kernel comes from its file (``invdecomp.io.load_kernel``) only."""
    with pytest.raises(KernelError, match="unknown kernel 'user_matrix'"):
        builtin_kernel("user_matrix", make_interval_grid(4))


# each built-in kernel's closed form on one axis of [0, 1]
_CLOSED = {
    "bridge": lambda s, t: np.minimum(s, t) - s * t,
    "watson": lambda s, t: np.minimum(s, t) - (s + t) / 2 + (s - t) ** 2 / 2 + 1.0 / 12,
    "sheet_tied": lambda s, t: np.minimum(s, t) - s * t,
    "sheet_compensated": lambda s, t: np.minimum(s, t) - (s + t) / 2 + (s - t) ** 2 / 2 + 1.0 / 12,
    "torus_watson": lambda s, t: (np.mod(s - t, 1.0) - 0.5) ** 2 / 2 - 1.0 / 24,
}


@pytest.mark.parametrize("name", list(BUILTINS))
def test_builtin_is_its_closed_form_bitwise(name):
    """A registered kernel is its closed form on each axis, multiplied in axis order."""
    space = make_product_grid([make_interval_grid(n) for n in (12, 7)[: BUILTINS[name].dim]])
    x = space.points
    want = _CLOSED[name](x[:, None, :], x[None, :, :]).prod(axis=-1)
    assert np.array_equal(builtin_kernel(name, space).matrix, (want + want.T) / 2)


@pytest.mark.parametrize("name", list(BUILTINS))
def test_builtin_names_its_dimension_on_another_space(name):
    dim = BUILTINS[name].dim
    with pytest.raises(KernelError, match=f"^{name} kernel needs a {dim}-d space$"):
        builtin_kernel(name, make_product_grid([make_interval_grid(4)] * (3 - dim)))


def test_registry_invariants():
    """Each tied partner is a registered kernel of the same dimension, each
    in-law check's dimension has exactly one law kernel, oracles sit on 1-d
    kernels only, and exactly one kernel runs on torus grids."""
    for b in BUILTINS.values():
        assert b.tied is None or BUILTINS[b.tied].dim == b.dim
        assert b.oracle is None or b.dim == 1
        assert set(b.grids) <= {"interval", "torus"}
    law_dims = [b.dim for b in BUILTINS.values() if b.tied]
    assert sorted(law_dims) == list(range(1, len(LAW_DEFAULTS) + 1))
    for dim in law_dims:
        assert BUILTINS[law_kernel(dim)].dim == dim and BUILTINS[law_kernel(dim)].tied
    assert [n for n, b in BUILTINS.items() if "torus" in b.grids] == [TORUS_KERNEL]


# ---------------------------------------------------------------- validation


def test_kernel_rejects_non_psd():
    sp = make_interval_grid(4)
    with pytest.raises(KernelError, match="PSD"):
        Kernel(sp, -np.eye(4))


def test_kernel_rejects_asymmetric():
    sp = make_interval_grid(4)
    with pytest.raises(KernelError, match="symmetric"):
        Kernel(sp, np.triu(np.ones((4, 4))))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_kernel_rejects_non_finite_entries(bad):
    sp = make_interval_grid(4)
    k = np.eye(4)
    k[1, 2] = k[2, 1] = bad
    with pytest.raises(KernelError, match="non-finite"):
        Kernel(sp, k)


def test_a_bitwise_symmetric_matrix_is_kept_not_copied():
    sp = make_interval_grid(64)
    k = builtin_kernel("watson", sp).matrix.copy()
    kernel = Kernel(sp, k)
    assert np.shares_memory(kernel.matrix, k)
    assert not kernel.matrix.flags.writeable


def test_a_matrix_asymmetric_within_the_tolerance_is_stored_symmetrized():
    sp = make_interval_grid(64)
    k = builtin_kernel("watson", sp).matrix.copy()
    k[3, 5] += 1e-12
    kernel = Kernel(sp, k)
    assert not np.shares_memory(kernel.matrix, k)
    assert np.array_equal(kernel.matrix, (k + k.T) / 2)


@pytest.mark.parametrize("m, rows", [(10, 4), (37, 8), (64, 5)])
def test_chunked_asymmetry_is_the_dense_maximum(monkeypatch, m, rows):
    """Row chunks of ``rows`` rows, the last one partial and holding the largest deviation."""
    monkeypatch.setattr(kernels, "CHUNK", m * rows)
    assert 1 < m % rows
    k = np.random.default_rng(m).normal(size=(m, m))
    assert kernels._asymmetry(k) == float(np.max(np.abs(k - k.T)))
    k[m - 1, m - 2] += 100.0
    assert kernels._asymmetry(k) == float(np.max(np.abs(k - k.T)))
    k = (k + k.T) / 2
    assert kernels._asymmetry(k) == 0.0


@pytest.mark.parametrize("name", ["_asymmetry", "_lag_spread"])
def test_the_row_chunked_passes_hold_two_chunks_at_most(name):
    """At m = 1024 the asymmetry pass and the stationarity spread each peak within
    2 x ``CHUNK`` doubles (1 MiB) above their entry: each releases a row chunk before
    building the next (1.13 and 1.55 chunks; 2.13 and 2.55 holding two at once)."""
    k = builtin_kernel("watson", make_interval_grid(1024)).matrix
    args = (k,) if name == "_asymmetry" else (k, (1024,))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        getattr(kernels, name)(*args)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * kernels.CHUNK


def _nonuniform_space():
    w = np.array([0.1, 0.3, 0.05, 0.2, 0.15, 0.2])
    return IndexSpace(np.linspace(0.0, 1.0, 6), w, name="nonuniform")


def _with_spectrum(lam, seed=5):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(lam), len(lam))))
    return (q * np.asarray(lam)[None, :]) @ q.T


def test_psd_check_uses_the_weighted_spectrum():
    """PSD is decided on sqrt(w) K sqrt(w) (same inertia as K), and a
    rejection reports that matrix's smallest eigenvalue."""
    sp = _nonuniform_space()
    Kernel(sp, _with_spectrum([0.0, 0.5, 1.0, 2.0, 3.0, 4.0]))
    bad = _with_spectrum([-1e-6, 0.5, 1.0, 2.0, 3.0, 4.0])
    bad = (bad + bad.T) / 2
    rw = np.sqrt(sp.weights)
    lam_min = np.linalg.eigvalsh(rw[:, None] * bad * rw[None, :])[0]
    assert lam_min < 0
    with pytest.raises(KernelError, match=re.escape(f"min eigenvalue {lam_min:.3e}")):
        Kernel(sp, bad)


@pytest.mark.parametrize("uniform", [True, False])
def test_kernel_eigenvalues_are_the_weighted_spectrum(uniform, bridge64):
    """A kernel off the DFT gate (the bridge is not stationary, or the weights
    differ) keeps the dense eigvalsh bitwise."""
    if uniform:
        k = bridge64
    else:
        k = Kernel(_nonuniform_space(), _with_spectrum([0.0, 0.5, 1.0, 2.0, 3.0, 4.0]))
    rw = np.sqrt(k.space.weights)
    want = np.linalg.eigvalsh(rw[:, None] * k.matrix * rw[None, :])
    assert np.array_equal(k.eigenvalues, want)
    assert np.array_equal(weighted_symmetric(k), rw[:, None] * k.matrix * rw[None, :])
    with pytest.raises(ValueError):
        k.eigenvalues[0] = 1.0


@pytest.mark.parametrize("name", [n for n, b in BUILTINS.items() if b.dim == 1])
def test_builtins_invariant_under_reversal(name, grid64):
    k = builtin_kernel(name, grid64)
    ok, dev = check_invariance(k, tol=1e-12)
    assert ok, f"{name}: deviation {dev}"


def test_random_kernel_not_invariant(grid64):
    r = np.random.default_rng(3)
    a = r.normal(size=(64, 64))
    k = Kernel(grid64, a @ a.T / 64, name="random")
    ok, dev = check_invariance(k)
    assert not ok and dev > 1e-3


# ------------------------------------------------------ stationary spectrum

PROPS = settings(derandomize=True, max_examples=12, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def cyclic_shapes(draw):
    dim = draw(st.integers(1, 3))
    return tuple(draw(st.integers(1, 12 if dim == 1 else 6 if dim == 2 else 4)) for _ in range(dim))


def _grid(shape):
    """The interval grid of a 1-tuple, else the product grid of its axes."""
    return make_product_grid([make_interval_grid(n) for n in shape])


def _lag_keys(shape):
    """(m, m) flat index of the lag (s - t) mod shape, from the integer coordinates."""
    ints = np.indices(shape).reshape(len(shape), -1)
    diff = (ints[:, :, None] - ints[:, None, :]) % np.array(shape)[:, None, None]
    return np.ravel_multi_index(tuple(diff), shape)


def _circulant(shape, seed):
    """A PSD matrix that is bitwise circulant over ``shape``: its lag profile is
    the inverse DFT of a positive spectrum, averaged over +-lags."""
    axes = tuple(range(len(shape)))
    flip = lambda a: np.roll(np.flip(a), 1, axis=axes)  # a at -b
    spec = np.random.default_rng(seed).uniform(0.5, 2.0, size=shape)
    prof = np.fft.ifftn(spec + flip(spec)).real
    prof = (prof + flip(prof)) / 2.0
    return prof.ravel()[_lag_keys(shape)]


def _dense_path_raises(*args, **kwargs):
    raise AssertionError("dense eigvalsh on the DFT path")


@PROPS
@given(shape=cyclic_shapes(), seed=SEEDS)
@example(shape=(7,), seed=0)
@example(shape=(4, 6), seed=1)
def test_circulant_kernel_spectrum_is_the_dft_on_interval_and_product_grids(shape, seed):
    """A bitwise circulant kernel on equal weights runs no eigvalsh, and agrees with
    it to m eps lambda_max, the roundoff of the dense solve."""
    space = _grid(shape)
    assert space.shape == shape
    with mock.patch.object(np.linalg, "eigvalsh", _dense_path_raises):
        kernel = Kernel(space, _circulant(shape, seed))
    assert kernel.stationarity_spread == 0.0
    dense = np.linalg.eigvalsh(weighted_symmetric(kernel))
    tol = kernel.size * np.finfo(float).eps * dense[-1]
    assert np.max(np.abs(kernel.eigenvalues - dense)) <= tol


@pytest.mark.parametrize(
    "name, shape", [("watson", (32,)), ("watson", (256,)), ("sheet_compensated", (8, 8))]
)
def test_compensated_builtins_take_the_dft_spectrum_on_power_of_two_grids(name, shape):
    """On 2^k midpoints the compensated bridge is bitwise circulant: the circle process."""
    with mock.patch.object(np.linalg, "eigvalsh", _dense_path_raises):
        kernel = builtin_kernel(name, _grid(shape))
    dense = np.linalg.eigvalsh(weighted_symmetric(kernel))
    tol = kernel.size * np.finfo(float).eps * dense[-1]
    assert np.max(np.abs(kernel.eigenvalues - dense)) <= tol


@PROPS
@given(
    shape=cyclic_shapes().filter(lambda s: math.prod(s) > 1),
    seed=SEEDS,
    off=st.sampled_from(["entry", "weights"]),
)
def test_kernel_off_the_dft_gate_keeps_the_dense_spectrum_bitwise(shape, seed, off):
    """One diagonal entry one ulp up breaks circulance; one weight one ulp up breaks
    the equal weights: either kernel goes through eigvalsh, bitwise."""
    space, matrix = _grid(shape), _circulant(shape, seed)
    i = np.random.default_rng(seed).integers(space.size)
    if off == "entry":
        matrix[i, i] = np.nextafter(matrix[i, i], np.inf)
    else:
        w = np.array(space.weights)
        w[i] = np.nextafter(w[i], 1.0)
        space = IndexSpace(space.points, w, space.action, space.name, shape=space.shape)
    kernel = Kernel(space, matrix)
    assert (kernel.stationarity_spread > 0.0) == (off == "entry")
    assert np.array_equal(kernel.eigenvalues, np.linalg.eigvalsh(weighted_symmetric(kernel)))


def _sorted_spread(matrix, shape):
    key = _lag_keys(shape).ravel()
    order = np.argsort(key, kind="stable")
    sk, sv = key[order], matrix.ravel()[order]
    bounds = np.flatnonzero(np.diff(sk)) + 1
    lo, hi = np.concatenate([[0], bounds]), np.concatenate([bounds, [sk.size]])
    return max(float(sv[a:b].max() - sv[a:b].min()) for a, b in zip(lo, hi))


@PROPS
@given(shape=cyclic_shapes(), seed=SEEDS, scale=st.sampled_from([0.0, 1e-16, 1e-9, 1.0]))
@example(shape=(500,), seed=3, scale=1e-9)  # read in row chunks
@example(shape=(20, 20), seed=4, scale=1.0)
@example(shape=(9, 6, 7), seed=5, scale=1e-16)
def test_stationarity_spread_is_the_sorted_reference_bitwise(shape, seed, scale):
    """The strided, chunked spread over the index shape, against a sort by lag class."""
    m = math.prod(shape)
    a = np.random.default_rng(seed).normal(size=(m, m))
    kernel = Kernel(_grid(shape), _circulant(shape, seed) + scale * (a @ a.T) / m)
    assert kernel.stationarity_spread == _sorted_spread(kernel.matrix, shape)
    assert (kernel.stationarity_spread == 0.0) == (scale == 0.0 or m == 1)


def test_index_shape_must_count_the_points():
    pts, w = np.arange(6.0), np.full(6, 1.0 / 6)
    assert IndexSpace(pts, w).shape == (6,)
    assert IndexSpace(pts, w, shape=(2, 3)).shape == (2, 3)
    with pytest.raises(KernelError, match="shape"):
        IndexSpace(pts, w, shape=(4,))
    assert make_product_grid([make_interval_grid(n) for n in (3, 4, 5)]).shape == (3, 4, 5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0], ids=["nan", "inf", "-inf", "zero"])
def test_index_space_rejects_weights_that_are_not_finite_and_positive(bad):
    """A NaN weight passes ``w <= 0`` and an infinite one is positive; either would
    reach LAPACK in the PSD check."""
    with pytest.raises(KernelError, match="weights must be finite and strictly positive"):
        IndexSpace(np.linspace(0, 1, 4), [0.25, bad, 0.25, 0.25])


def test_index_space_rejects_an_action_that_moves_its_weights():
    """Reversal on increasing weights: the isotypic spectra would no longer add up to
    the kernel's traces (-3.4% at n = 2 for the watson matrix on 8 points)."""
    grid = make_interval_grid(8)
    with pytest.raises(KernelError, match=r"does not preserve the weights \(max deviation 1\.000e\+00\)"):
        IndexSpace(grid.points, np.linspace(1.0, 2.0, 8), grid.action)


# --------------------------------------------------------------- projection


def test_kernel_decomposition_completeness(watson64, z2_table):
    parts = decompose_kernel(watson64, z2_table)
    assert set(parts) == {"triv", "sign"}
    total = sum(p.matrix for p in parts.values())
    assert np.abs(total - watson64.matrix).max() < 1e-14
    for p in parts.values():
        ok, _ = check_invariance(p, tol=1e-10)
        assert ok
        assert np.linalg.eigvalsh(p.matrix).min() > -1e-12


def test_cross_projections_vanish(watson64, z2_table):
    triv, sign = z2_table.irreps
    cross = project_kernel(watson64, triv, sign)
    assert isinstance(cross, np.ndarray)
    assert np.abs(cross).max() < 1e-14


def test_decompose_kernel_rejects_complex_characters(watson64):
    with pytest.raises(KernelError, match="real characters"):
        decompose_kernel(watson64, character_table(cyclic_group(3)))


def test_projected_kernels_are_orthogonal(watson64, z2_table):
    """R^triv W R^sign = 0: the parts live in orthogonal subspaces."""
    parts = decompose_kernel(watson64, z2_table)
    w = watson64.space.weights
    prod = parts["triv"].matrix @ (w[:, None] * parts["sign"].matrix)
    assert np.abs(prod).max() < 1e-14


def test_decomposition_identity_all_builtins(z2_table):
    for name in ("bridge", "watson", "torus_watson"):
        k = builtin_kernel(name, make_interval_grid(48))
        parts = decompose_kernel(k, character_table(k.space.action.group))
        total = sum(p.matrix for p in parts.values())
        assert np.abs(total - k.matrix).max() < 1e-14, name


def _s3_on_three_and_six_points() -> IndexSpace:
    """S3 with its real irreps triv, sign and std (dim 2), acting on its
    natural 3-point orbit and on its regular 6-point orbit, whose points
    weigh less."""
    elems = list(permutations(range(3)))
    index = {e: i for i, e in enumerate(elems)}
    mul = [index[tuple(a[b[i]] for i in range(3))] for a in elems for b in elems]
    inv = [index[tuple(np.argsort(a))] for a in elems]
    sign = [round(np.linalg.det(np.eye(3)[list(a)])) for a in elems]
    fixed = [sum(a[i] == i for i in range(3)) for a in elems]
    perm = [list(g) + [3 + mul[6 * i + h] for h in range(6)] for i, g in enumerate(elems)]
    irreps = [
        {"label": "triv", "dim": 1, "re": [1.0] * 6},
        {"label": "sign", "dim": 1, "re": [float(s) for s in sign]},
        {"label": "std", "dim": 2, "re": [f - 1.0 for f in fixed]},
    ]
    for rec in irreps:
        rec["im"] = [0.0] * 6
    _, action = group_from_dict(
        {"order": 6, "mul": mul, "inv": inv, "perm": sum(perm, []), "npoints": 9, "irreps": irreps}
    )
    return IndexSpace(np.arange(9.0), np.repeat([0.2, 0.4 / 6], [3, 6]), action)


def _random_psd(space: IndexSpace, seed: int) -> Kernel:
    a = np.random.default_rng(seed).normal(size=(space.size, space.size))
    return Kernel(space, a @ a.T / space.size, name="random")


def _product(*ns: int) -> IndexSpace:
    return make_product_grid([make_interval_grid(n) for n in ns])


@pytest.mark.parametrize(
    "build",
    [
        lambda: builtin_kernel("watson", make_interval_grid(63)),
        lambda: builtin_kernel("watson", make_interval_grid(64)),
        lambda: builtin_kernel("sheet_compensated", _product(9, 9)),
        lambda: builtin_kernel("sheet_compensated", _product(8, 5)),
        lambda: builtin_kernel("sheet_compensated", _product(9, 5)),
        lambda: torus_watson(torus_grid(Lattice(np.eye(2)), [6, 5])),
        lambda: _random_psd(make_interval_grid(33), 11),
        lambda: _random_psd(_product(5, 4), 12),
        lambda: _random_psd(_s3_on_three_and_six_points(), 13),
    ],
    ids=[
        "z2-odd",
        "z2-even",
        "z2xz2-9x9",
        "z2xz2-8x5",
        "z2xz2-9x5",
        "torus-negation",
        "not-invariant-z2",
        "not-invariant-z2xz2",
        "s3-not-invariant",
    ],
)
def test_irrep_spectra_power_sums_are_the_block_traces(build):
    """The block spectra give decompose_kernel's per-irrep traces, also off invariance."""
    kernel = build()
    table = character_table(kernel.space.action.group)
    spectra = irrep_spectra(kernel, table)
    blocks = decompose_kernel(kernel, table)
    assert list(spectra) == table.labels
    assert sum(len(ev) for ev in spectra.values()) == kernel.size
    for label, ev in spectra.items():
        assert np.all(np.diff(ev) >= 0)
        sums = [np.sum(ev**n) for n in range(1, 7)]
        np.testing.assert_allclose(sums, weighted_traces(blocks[label], 6), rtol=1e-12, atol=0)


def test_irrep_spectra_block_sizes_count_the_isotypic_dimensions():
    """Z2 x Z2 on 3 x 2 points has orbits of size 2 and 4; S3 on 3 + 6 points
    holds std twice in the regular orbit and once in the natural one."""
    def sizes(space):
        spectra = irrep_spectra(_random_psd(space, 2), character_table(space.action.group))
        return {lab: len(ev) for lab, ev in spectra.items()}

    assert sizes(_product(3, 2)) == {"triv*triv": 2, "triv*sign": 2, "sign*triv": 1, "sign*sign": 1}
    assert sizes(_s3_on_three_and_six_points()) == {"triv": 2, "sign": 1, "std": 6}


def test_irrep_spectra_rejects_complex_characters(watson64):
    with pytest.raises(KernelError, match="real characters"):
        irrep_spectra(watson64, character_table(cyclic_group(3)))


# ---------------------------------------------------------- derived values


def _invariance_loop(kernel: Kernel) -> float:
    """max |K[p, p] - K| over the non-identity elements, one element at a time."""
    action, k, dev = kernel.space.action, kernel.matrix, 0.0
    for g in range(action.group.order):
        if g != action.group.identity:
            p = action.perm[g]
            dev = max(dev, float(np.max(np.abs(k[np.ix_(p, p)] - k))))
    return dev


@pytest.mark.parametrize(
    "build",
    [
        lambda: builtin_kernel("watson", make_interval_grid(64)),
        lambda: builtin_kernel("bridge", make_interval_grid(33)),
        lambda: builtin_kernel("sheet_compensated", _product(8, 5)),
        lambda: _random_psd(_s3_on_three_and_six_points(), 13),
    ],
    ids=["watson-dft", "bridge-dense", "z2xz2", "s3-not-invariant"],
)
def test_derived_values_are_computed_once_and_equal_their_functions(monkeypatch, build):
    """``dft``, ``invariance_dev`` and ``irrep_spectra`` are each computed at most once
    per kernel, and are bitwise what their functions give."""
    counts = {"dft": 0, "irrep_spectra": 0, "ix_": 0}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(kernels, "_dft_spectrum", counted("dft", kernels._dft_spectrum))
    monkeypatch.setattr(kernels, "irrep_spectra", counted("irrep_spectra", irrep_spectra))
    kernel = build()
    took_dft = counts["dft"]  # the PSD check's, on the circulant path
    monkeypatch.setattr(np, "ix_", counted("ix_", np.ix_))
    for _ in range(2):
        lam, spec = kernel.dft
        dev = kernel.invariance_dev
        spectra = kernel.irrep_spectra
    order = kernel.space.action.group.order
    assert counts == {"dft": 1, "irrep_spectra": 1, "ix_": order - 1}
    assert took_dft == (kernel.stationarity_spread == 0.0)
    want = kernels._dft_spectrum(kernel.matrix, kernel.space)
    assert np.array_equal(lam, want[0]) and np.array_equal(spec, want[1])
    assert dev == _invariance_loop(kernel)
    assert check_invariance(kernel, tol=dev) == (True, dev)
    table = character_table(kernel.space.action.group)
    want = irrep_spectra(kernel, table)
    assert list(spectra) == list(want)
    assert all(np.array_equal(spectra[lab], want[lab]) for lab in want)


def test_a_kernel_without_an_action_has_no_invariance_or_isotypic_spectra():
    kernel = builtin_kernel("watson", replace(make_interval_grid(16), action=None))
    for read in (
        lambda: kernel.invariance_dev,
        lambda: kernel.irrep_spectra,
        lambda: check_invariance(kernel),
    ):
        with pytest.raises(KernelError, match="space has no bound action"):
            read()


# -------------------------------------------------------------- contraction


def test_contract_power_small_case():
    sp = make_interval_grid(3)
    k = builtin_kernel("bridge", sp)
    w = np.diag(sp.weights)
    assert np.array_equal(contract_power(k, 1), k.matrix)
    expect2 = k.matrix @ w @ k.matrix
    assert np.allclose(contract_power(k, 2), expect2, atol=1e-16)
    expect4 = expect2 @ w @ expect2
    assert np.allclose(contract_power(k, 4), expect4, atol=1e-18)


def test_weighted_traces_match_eigenvalues(watson64):
    """tr_n equals the power sum of weighted eigenvalues."""
    tr = weighted_traces(watson64, 6)
    rw = np.sqrt(watson64.space.weights)
    lam = np.linalg.eigvalsh(rw[:, None] * watson64.matrix * rw[None, :])
    for n in range(1, 7):
        assert tr[n - 1] == pytest.approx(np.sum(lam**n), rel=1e-12)


def test_weighted_traces_match_contractions(bridge64):
    """tr_n = trace(D K (D K)^(n-1)), with the chain formed densely here."""
    tr = weighted_traces(bridge64, 4)
    w = bridge64.space.weights
    dk = w[:, None] * bridge64.matrix
    chain = np.eye(bridge64.size)
    for n in range(1, 5):
        chain = chain @ dk
        assert tr[n - 1] == pytest.approx(np.trace(chain), rel=1e-12)
        power = contract_power(bridge64, n)
        assert np.sum(np.diagonal(power) * w) == pytest.approx(np.trace(chain), rel=1e-12)
