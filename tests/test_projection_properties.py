"""Properties of the character projections of paths and kernels.

Three settings: Z2 reversal on interval grids, Z2 x Z2 on product sheets,
and Z3 acting by rotation on a circle grid, whose characters are complex.
Each example draws its grid size and a seed for random paths and kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invdecomp.groups import GroupAction, character_table, cyclic_group, project_path
from invdecomp.kernels import (
    IndexSpace,
    Kernel,
    builtin_kernel,
    decompose_kernel,
    make_interval_grid,
    make_product_grid,
    project_kernel,
)

PROPS = settings(derandomize=True, max_examples=6, deadline=None)
TOL = 1e-12


def _interval(n):
    space = make_interval_grid(n)
    return space, builtin_kernel("watson", space)


def _sheet(n1, n2):
    space = make_product_grid([make_interval_grid(n1), make_interval_grid(n2)])
    return space, builtin_kernel("sheet_compensated", space)


def _rotation(k):
    """Z3 rotating 3k circle points by k; the stationary kernel is invariant."""
    m = 3 * k
    perm = np.array([(np.arange(m) + g * k) % m for g in range(3)])
    action = GroupAction(cyclic_group(3), perm)
    space = IndexSpace((np.arange(m) + 0.5) / m, np.full(m, 1.0 / m), action, f"circle[{m}]")
    return space, builtin_kernel("torus_watson", space)


SETTINGS = {
    "z2-interval": st.builds(_interval, st.integers(2, 40)),
    "z2xz2-sheet": st.builds(_sheet, st.integers(2, 8), st.integers(2, 8)),
    "z3-rotation": st.builds(_rotation, st.integers(1, 12)),
}
SEEDS = st.integers(0, 2**32 - 1)
each_setting = pytest.mark.parametrize("kind", SETTINGS)


def _random_kernel(space, seed):
    a = np.random.default_rng(seed).normal(size=(space.size, space.size))
    return Kernel(space, a @ a.T / space.size, name="random")


def _double_sum(mat, action, pi, sigma):
    """R_{pi,sigma}[i, j] written out as the sum over (g1, g2)."""
    group, inv_perm = action.group, action.perm[action.group.inv]
    out = np.zeros(mat.shape, dtype=np.complex128)
    for g1 in range(group.order):
        for g2 in range(group.order):
            out += pi.values[g1] * sigma.values[g2] * mat[np.ix_(inv_perm[g1], inv_perm[g2])]
    return out * pi.dim * sigma.dim / group.order**2


@each_setting
@PROPS
@given(data=st.data(), seed=SEEDS)
def test_path_projection_is_idempotent_and_complete(kind, data, seed):
    space, _ = data.draw(SETTINGS[kind])
    z = np.random.default_rng(seed).normal(size=(space.size, 3))
    table = character_table(space.action.group)
    parts = [project_path(z, space.action, p) for p in table]
    assert np.abs(sum(parts) - z).max() < TOL
    for p, part in zip(table, parts):
        assert np.abs(project_path(part, space.action, p) - part).max() < TOL
        for q in table:
            if q is not p:
                assert np.abs(project_path(part, space.action, q)).max() < TOL


@each_setting
@PROPS
@given(data=st.data(), seed=SEEDS)
def test_kernel_projection_is_the_two_axis_path_projection(kind, data, seed):
    space, _ = data.draw(SETTINGS[kind])
    kernel = _random_kernel(space, seed)
    table = character_table(space.action.group)
    total = 0
    for p in table:
        for q in table:
            got = project_kernel(kernel, p, q)
            rows = project_path(kernel.matrix, space.action, p)
            assert np.array_equal(got, project_path(rows.T, space.action, q).T)
            assert np.abs(got - _double_sum(kernel.matrix, space.action, p, q)).max() < TOL
            total = total + got
    assert np.abs(total - kernel.matrix).max() < TOL


@each_setting
@PROPS
@given(data=st.data(), seed=SEEDS)
def test_kernel_projection_is_idempotent(kind, data, seed):
    space, _ = data.draw(SETTINGS[kind])
    kernel = _random_kernel(space, seed)
    table = character_table(space.action.group)
    for p in table:
        for q in table:
            block = project_kernel(kernel, p, q)
            # projecting a block's rows and columns again leaves it unchanged,
            # and another character on its rows annihilates it
            rows = project_path(block, space.action, p)
            assert np.abs(rows - block).max() < TOL
            cols = project_path(block.T, space.action, q).T
            assert np.abs(cols - block).max() < TOL
            for r in table:
                if r is not p:
                    assert np.abs(project_path(block, space.action, r)).max() < TOL
    if table.real_valued():
        irreps = {p.label: p for p in table}
        for label, block in decompose_kernel(kernel).items():
            p = irreps[label]
            assert np.abs(project_kernel(block, p, p) - block.matrix).max() < TOL


@each_setting
@PROPS
@given(data=st.data())
def test_cross_projections_of_an_invariant_kernel_vanish(kind, data):
    """Only (pi, conj pi) survives; for a real character that is (pi, pi)."""
    space, kernel = data.draw(SETTINGS[kind])
    table = character_table(space.action.group)
    parts = 0
    for p in table:
        for q in table:
            block = project_kernel(kernel, p, q)
            if np.allclose(q.values, np.conj(p.values)):
                parts = parts + block
            else:
                assert np.abs(block).max() < TOL
    assert np.abs(parts - kernel.matrix).max() < TOL
