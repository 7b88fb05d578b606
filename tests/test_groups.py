"""Cayley tables, characters, and path projections for small abelian groups."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invdecomp.groups import (
    FiniteGroup,
    GroupAction,
    GroupError,
    character_inner,
    character_table,
    check_action,
    cyclic_group,
    direct_product,
    group_from_dict,
    project_path,
)
from invdecomp.kernels import make_interval_grid


def all_test_groups():
    z2 = cyclic_group(2)
    z3 = cyclic_group(3)
    return [
        z2,
        z3,
        cyclic_group(4),
        direct_product(z2, z2),
        direct_product(z2, z3),
    ]


# ---------------------------------------------------------------- structure


@given(st.integers(min_value=1, max_value=12))
def test_cyclic_group_axioms(n):
    g = cyclic_group(n)
    mul, inv, e = g.mul, g.inv, g.identity
    # identity
    assert np.array_equal(mul[e], np.arange(n))
    assert np.array_equal(mul[:, e], np.arange(n))
    # inverses
    assert np.array_equal(mul[np.arange(n), inv], np.full(n, e))
    # associativity: (ab)c == a(bc) for the whole table
    abc = mul[mul][:, :, np.arange(n)]
    for a in range(n):
        for b in range(n):
            assert np.array_equal(mul[mul[a, b]], mul[a, mul[b]])


def test_direct_product_order_and_commutativity():
    g = direct_product(cyclic_group(2), cyclic_group(3))
    assert g.order == 6
    assert np.array_equal(g.mul, g.mul.T)  # abelian
    assert g.name == "Z2 x Z3"


def test_cyclic_group_rejects_bad_order():
    with pytest.raises(GroupError):
        cyclic_group(0)


# ---------------------------------------------------------------- characters


@pytest.mark.parametrize("group", all_test_groups(), ids=lambda g: g.name)
def test_character_orthogonality(group):
    """<chi_pi, chi_sigma>_G = delta_{pi sigma} to 1e-12."""
    table = character_table(group)
    assert len(table.irreps) == group.order  # abelian: all 1-dim
    for a in table.irreps:
        for b in table.irreps:
            inner = character_inner(a.values, b.values)
            want = 1.0 if a.label == b.label else 0.0
            assert abs(inner - want) < 1e-12


@pytest.mark.parametrize("group", all_test_groups(), ids=lambda g: g.name)
def test_characters_are_homomorphisms(group):
    table = character_table(group)
    for ir in table.irreps:
        chi = ir.values
        assert ir.dim == 1
        assert chi[group.identity] == 1
        # chi(gh) = chi(g) chi(h)
        assert np.allclose(chi[group.mul], np.outer(chi, chi), atol=1e-12)


def test_character_table_needs_an_attached_table():
    z2 = cyclic_group(2)
    bare = FiniteGroup(z2.mul, z2.inv, name="bare")
    with pytest.raises(GroupError, match="no character table"):
        character_table(bare)


def test_real_valuedness_flags():
    t3 = character_table(cyclic_group(3))
    flags = {ir.label: ir.real_valued for ir in t3.irreps}
    assert flags == {"triv": True, "chi1": False, "chi2": False}
    t2 = character_table(cyclic_group(2))
    assert all(ir.real_valued for ir in t2.irreps)


# ---------------------------------------------------------------- actions


def test_reversal_action_is_valid():
    sp = make_interval_grid(10)
    ok, worst = check_action(sp.action, sp.weights)
    assert ok
    assert worst == 0.0
    # non-identity element reverses the index set
    assert np.array_equal(sp.action.perm[1], np.arange(10)[::-1])


def test_action_composition_rule():
    sp = make_interval_grid(6)
    act = sp.action
    g = act.group
    for a in range(g.order):
        for b in range(g.order):
            lhs = act.perm[g.mul[a, b]]
            rhs = act.perm[a][act.perm[b]]
            assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------------- projections


def test_path_projection_completeness_and_idempotence():
    sp = make_interval_grid(17)  # odd: one fixed point
    table = character_table(sp.action.group)
    z = np.random.default_rng(5).normal(size=(17, 4))
    parts = [project_path(z, sp.action, ir) for ir in table.irreps]
    assert np.allclose(sum(parts), z, atol=1e-14)
    for ir, p in zip(table.irreps, parts):
        again = project_path(p, sp.action, ir)
        assert np.allclose(again, p, atol=1e-14)


def test_path_projection_symmetry():
    sp = make_interval_grid(8)
    table = character_table(sp.action.group)
    by_label = {ir.label: ir for ir in table.irreps}
    z = np.random.default_rng(11).normal(size=8)
    even = project_path(z, sp.action, by_label["triv"])
    odd = project_path(z, sp.action, by_label["sign"])
    rev = sp.action.perm[1]
    assert np.allclose(even[rev], even, atol=0)
    assert np.allclose(odd[rev], -odd, atol=0)


def test_complex_characters_still_sum_to_identity():
    """Z3 rotation action on 3 points: complex projections, real sum."""
    g = cyclic_group(3)
    from invdecomp.groups import GroupAction

    perm = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    act = GroupAction(g, perm)
    table = character_table(g)
    z = np.random.default_rng(2).normal(size=3)
    parts = [project_path(z, act, ir) for ir in table.irreps]
    total = sum(parts)
    assert np.allclose(total.imag, 0, atol=1e-14)
    assert np.allclose(total.real, z, atol=1e-14)


def _regular_action(group, copies):
    """``group`` acting on ``copies`` copies of itself by left multiplication."""
    k = np.arange(copies)
    return GroupAction(group, (group.mul[:, :, None] * copies + k).reshape(group.order, -1))


def _reference_projection(z, action, irrep):
    """The per-term sum: chi(g) times the gathered z(g^-1 . y), one new array per term."""
    group = action.group
    chi = irrep.values.real if irrep.real_valued else irrep.values
    if not irrep.real_valued:
        z = z.astype(np.complex128)
    inv_perm = action.perm[group.inv]
    out = chi[0] * (z if group.identity == 0 else z[inv_perm[0]])
    for g in range(1, group.order):
        out += chi[g] * (z if g == group.identity else z[inv_perm[g]])
    out *= irrep.dim / group.order
    return out


@pytest.mark.parametrize("group", all_test_groups(), ids=lambda g: f"order{g.order}")
@pytest.mark.parametrize("layout", ["C", "F", "strided", "1-d"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_path_projection_is_the_per_term_sum_bitwise(group, layout, dtype):
    """One reused gather buffer gives the per-term sum bit for bit, in any memory layout."""
    action = _regular_action(group, 5)
    rng = np.random.default_rng(group.order)
    z = rng.normal(size=(action.npoints, 12)).astype(dtype)
    if dtype is np.complex128:
        z += 1j * rng.normal(size=z.shape)
    z = {"C": z, "F": np.asfortranarray(z), "strided": z[:, ::3], "1-d": z[:, 0].copy()}[layout]
    for irrep in character_table(group):
        got, want = project_path(z, action, irrep), _reference_projection(z, action, irrep)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
def test_path_projection_holds_one_buffer_beyond_its_result(order):
    """At m = 1024 the Z2 projection of a 256-column block allocates its result and one buffer."""
    sp = make_interval_grid(1024)
    z = np.asarray(np.random.default_rng(1).normal(size=(1024, 256)), order=order)
    sign = character_table(sp.action.group).irreps[1]
    tracemalloc.start()
    try:
        project_path(z, sp.action, sign)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * z.nbytes + (1 << 20)


# ---------------------------------------------------------------- round-trip


def test_group_dict_round_trip():
    """group_from_dict rebuilds a group, its table and its action from JSON data."""
    sp = make_interval_grid(12)
    g = sp.action.group
    d = {
        "order": g.order,
        "identity": g.identity,
        "name": g.name,
        "mul": g.mul.ravel().tolist(),
        "inv": g.inv.tolist(),
        "irreps": [
            {"label": p.label, "dim": p.dim, "re": p.values.real.tolist(), "im": p.values.imag.tolist()}
            for p in g.table
        ],
        "perm": sp.action.perm.ravel().tolist(),
        "npoints": sp.action.npoints,
    }
    g2, act2 = group_from_dict(json.loads(json.dumps(d)))
    assert np.array_equal(g.mul, g2.mul)
    assert np.array_equal(g.inv, g2.inv)
    assert g2.identity == g.identity
    assert np.array_equal(act2.perm, sp.action.perm)
    labels = [ir.label for ir in character_table(g2).irreps]
    assert labels == ["triv", "sign"]
