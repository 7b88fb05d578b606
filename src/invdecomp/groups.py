"""Finite groups, character tables, and projection of sampled paths.

The central operation is the character projection of a path sampled on a
finite index set: for an irreducible character ``chi`` of a group acting by
permutations on the grid,

    (P_chi z)(y_i) = (dim / |G|) * sum_g chi(g) * z(g^{-1} . y_i),

and the projections over the full dual sum back to ``z`` exactly.  Groups are
stored as explicit Cayley tables, which keeps everything checkable: closure,
associativity, measure preservation of actions, and character orthogonality
are all verified with plain array arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "GroupError",
    "FiniteGroup",
    "Irrep",
    "CharacterTable",
    "GroupAction",
    "cyclic_group",
    "direct_product",
    "character_table",
    "character_inner",
    "project_path",
    "check_action",
    "group_from_dict",
]

DEFAULT_TOL = 1e-10  # of the character table's identities and of check_action's weights


class GroupError(ValueError):
    """Raised when group data violates a structural invariant."""


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its Cayley table.

    Parameters
    ----------
    mul : (n, n) int array
        ``mul[a, b]`` is the product ``a * b``.
    inv : (n,) int array
        ``inv[a]`` is the inverse of ``a``.
    identity : int
        Index of the identity element.
    name : str
        Display name, e.g. ``"Z2"`` or ``"Z2 x Z3"``.
    table : CharacterTable, optional
        Attached by the built-in constructors and by :func:`group_from_dict`
        when the data lists its irreps; ``character_table`` reads it.
    """

    mul: np.ndarray
    inv: np.ndarray
    identity: int = 0
    name: str = ""
    table: Optional["CharacterTable"] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        mul = _as_readonly(np.asarray(self.mul, dtype=np.intp))
        inv = _as_readonly(np.asarray(self.inv, dtype=np.intp))
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "inv", inv)
        n = mul.shape[0]
        if mul.shape != (n, n):
            raise GroupError(f"mul must be square, got {mul.shape}")
        if inv.shape != (n,):
            raise GroupError(f"inv must have shape ({n},), got {inv.shape}")
        if mul.min() < 0 or mul.max() >= n:
            raise GroupError("mul entries must index group elements")
        e = self.identity
        if not (0 <= e < n):
            raise GroupError(f"identity index {e} out of range")
        if not (np.all(mul[e] == np.arange(n)) and np.all(mul[:, e] == np.arange(n))):
            raise GroupError("identity law fails")
        if not (np.all(mul[np.arange(n), inv] == e) and np.all(mul[inv, np.arange(n)] == e)):
            raise GroupError("inverse law fails")
        # associativity: (ab)c == a(bc) for every triple
        if not np.array_equal(mul[mul], mul[:, mul]):
            raise GroupError("associativity fails")

    @property
    def order(self) -> int:
        return self.mul.shape[0]

    def __repr__(self) -> str:  # keep array dumps out of test output
        return f"FiniteGroup(name={self.name!r}, order={self.order})"


@dataclass(frozen=True, eq=False)
class Irrep:
    """Character of one irreducible representation."""

    label: str
    dim: int
    values: np.ndarray  # (|G|,) complex character values
    real_valued: bool = False

    def __post_init__(self) -> None:
        vals = _as_readonly(np.asarray(self.values, dtype=np.complex128))
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "real_valued", bool(np.max(np.abs(vals.imag)) <= 1e-12))

    def __repr__(self) -> str:
        return f"Irrep({self.label!r}, dim={self.dim})"


def character_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product <a, b> = (1/|G|) sum_g a(g) conj(b(g))."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    return complex(np.mean(a * np.conj(b)))


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Validated character table of a finite group.

    Rows are irreducible characters; validation checks orthonormality under
    the normalized counting measure, ``chi(e) = dim``, the Burnside sum
    ``sum dim^2 = |G|``, and the class-function property, each to ``DEFAULT_TOL``.
    """

    group: FiniteGroup
    irreps: tuple[Irrep, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "irreps", tuple(self.irreps))
        g, tol = self.group, DEFAULT_TOL
        n = g.order
        labels = [p.label for p in self.irreps]
        if len(set(labels)) != len(labels):
            raise GroupError(f"duplicate irrep labels: {labels}")
        dimsq = 0
        for p in self.irreps:
            if p.values.shape != (n,):
                raise GroupError(f"{p.label}: expected {n} character values")
            if abs(p.values[g.identity] - p.dim) > tol:
                raise GroupError(f"{p.label}: chi(e) != dim")
            dimsq += p.dim**2
        if dimsq != n:
            raise GroupError(f"sum of dim^2 is {dimsq}, expected {n}")
        for i, p in enumerate(self.irreps):
            # chi(ab) == chi(ba) is centrality in Cayley-table form
            vals_ab = p.values[g.mul]
            if np.max(np.abs(vals_ab - vals_ab.T)) > tol:
                raise GroupError(f"{p.label}: not a class function")
            for q in self.irreps[: i + 1]:
                ip = character_inner(p.values, q.values)
                want = 1.0 if q is p else 0.0
                if abs(ip - want) > tol:
                    raise GroupError(
                        f"<{p.label},{q.label}> = {ip:.3e}, expected {want}"
                    )

    def __iter__(self) -> Iterator[Irrep]:
        return iter(self.irreps)

    def __len__(self) -> int:
        return len(self.irreps)

    def real_valued(self) -> bool:
        """True when every character in the table is real."""
        return all(p.real_valued for p in self.irreps)


def _attach_table(group: FiniteGroup, irreps: Sequence[Irrep]) -> FiniteGroup:
    table = CharacterTable(group, tuple(irreps))
    object.__setattr__(group, "table", table)
    return group


def _snap_root_of_unity(z: complex, n: int) -> complex:
    """Round z (|z| ~ 1) to the nearest n-th root of unity."""
    k = int(round(np.angle(z) * n / (2 * np.pi))) % n
    return complex(np.exp(2j * np.pi * k / n))


def cyclic_group(n: int) -> FiniteGroup:
    """Cyclic group Z/nZ with its character table attached.

    Characters are ``chi_j(a) = exp(2*pi*i*j*a/n)``; for n <= 2 all of them
    are real, so downstream independence claims apply.
    """
    if n < 1:
        raise GroupError(f"order must be positive, got {n}")
    a = np.arange(n)
    mul = (a[:, None] + a[None, :]) % n
    inv = (-a) % n
    g = FiniteGroup(mul, inv, identity=0, name=f"Z{n}")
    irreps = []
    for j in range(n):
        vals = np.exp(2j * np.pi * j * a / n)
        # snap exact values for tiny angles so orthogonality is exact-ish
        vals = np.array([_snap_root_of_unity(v, n) for v in vals])
        if n == 2 and j == 1:
            label = "sign"
        elif j == 0:
            label = "triv"
        else:
            label = f"chi{j}"
        irreps.append(Irrep(label, 1, vals))
    return _attach_table(g, irreps)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product; element (a, b) is encoded as a * |g2| + b.

    Character tables of the factors, when attached, tensor into the table of
    the product with labels ``"<l1>*<l2>"``.
    """
    n1, n2 = g1.order, g2.order
    a1, b1 = np.divmod(np.arange(n1 * n2)[:, None], n2)
    a2, b2 = np.divmod(np.arange(n1 * n2)[None, :], n2)
    mul = g1.mul[a1, a2] * n2 + g2.mul[b1, b2]
    ia, ib = np.divmod(np.arange(n1 * n2), n2)
    inv = g1.inv[ia] * n2 + g2.inv[ib]
    name = f"{g1.name or 'G1'} x {g2.name or 'G2'}"
    g = FiniteGroup(mul, inv, identity=g1.identity * n2 + g2.identity, name=name)
    if g1.table is not None and g2.table is not None:
        irreps = [
            Irrep(
                f"{p.label}*{q.label}",
                p.dim * q.dim,
                np.kron(p.values, q.values),
            )
            for p in g1.table
            for q in g2.table
        ]
        _attach_table(g, irreps)
    return g


def character_table(group: FiniteGroup) -> CharacterTable:
    """The character table attached to ``group``.

    The built-in constructors attach a validated table, and
    :func:`group_from_dict` attaches the one its data lists.  A group without
    one raises :class:`GroupError`; no table is derived from the Cayley data.
    """
    if group.table is None:
        raise GroupError(f"group {group.name or '?'} has no character table (irreps)")
    return group.table


@dataclass(frozen=True, eq=False)
class GroupAction:
    """Permutation action of a group on a finite index set.

    ``perm[g, i]`` is the index of ``g . y_i``.  Validation checks that each
    row is a permutation, the identity acts trivially, and the rows compose
    like the group (``perm[g h] = perm[g] o perm[h]``).
    """

    group: FiniteGroup
    perm: np.ndarray

    def __post_init__(self) -> None:
        perm = _as_readonly(np.asarray(self.perm, dtype=np.intp))
        object.__setattr__(self, "perm", perm)
        n, m = self.group.order, perm.shape[-1]
        if perm.shape != (n, m):
            raise GroupError(f"perm must have shape ({n}, m)")
        ident = np.arange(m)
        for g in range(n):
            if not np.array_equal(np.sort(perm[g]), ident):
                raise GroupError(f"row {g} is not a permutation")
        if not np.array_equal(perm[self.group.identity], ident):
            raise GroupError("identity must act trivially")
        # g.(h.y) == (gh).y
        for g in range(n):
            for h in range(n):
                if not np.array_equal(perm[self.group.mul[g, h]], perm[g][perm[h]]):
                    raise GroupError(f"action is not a homomorphism at ({g}, {h})")

    @property
    def npoints(self) -> int:
        return self.perm.shape[1]

    def __repr__(self) -> str:
        return f"GroupAction(group={self.group.name!r}, npoints={self.npoints})"


def check_action(action: GroupAction, weights: np.ndarray) -> tuple[bool, float]:
    """Verify that ``weights`` is invariant under the action.

    The structural permutation/homomorphism checks already ran at
    construction; this adds the measure-preservation check mu(g.A) = mu(A),
    i.e. weights[perm[g]] == weights for every g.  Returns ``(ok,
    max_weight_violation)``: the largest |weights[perm[g]] - weights| and
    whether it is at most ``DEFAULT_TOL``.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (action.npoints,):
        raise GroupError(f"weights must have shape ({action.npoints},)")
    worst = max(float(np.max(np.abs(w[perm] - w))) for perm in action.perm)
    return worst <= DEFAULT_TOL, worst


def project_path(z: np.ndarray, action: GroupAction, irrep: Irrep) -> np.ndarray:
    """Character projection of a sampled path (or a stack of them).

    Parameters
    ----------
    z : (m,) or (m, s) array
        Path values on the index set; columns are independent samples.
    action : GroupAction
    irrep : Irrep

    Returns
    -------
    array of the same shape.  Real when both the input and the character are
    real; complex otherwise.  The projections over a full character table
    sum back to ``z`` exactly, and repeating a projection is a no-op.
    """
    z = np.asarray(z)
    if z.shape[0] != action.npoints:
        raise GroupError(f"path has {z.shape[0]} points, action expects {action.npoints}")
    group = action.group
    chi = irrep.values.real if irrep.real_valued else irrep.values
    z = z.astype(np.result_type(chi, z), copy=False)
    inv_perm = action.perm[group.inv]
    # the identity acts trivially: its term reads z itself, not a gathered copy
    out = chi[0] * (z if group.identity == 0 else z[inv_perm[0]])
    # the other terms share one buffer; np.take fills it in place in C order only, hence .T
    buf = np.empty_like(out)
    flip = z.flags.f_contiguous and not z.flags.c_contiguous
    src, dst = (z.T, buf.T) if flip else (np.ascontiguousarray(z), buf)
    for g in range(1, group.order):
        np.take(src, inv_perm[g], axis=-1 if flip else 0, out=dst, mode="clip")
        np.multiply(chi[g], buf, out=buf)
        out += buf
    out *= irrep.dim / group.order
    return out


def group_from_dict(d: dict) -> tuple[FiniteGroup, Optional[GroupAction]]:
    """Group (and optional action) from JSON-ready Cayley data.

    Keys: ``order``, ``mul`` (row-major Cayley table), ``inv``, optional
    ``identity`` and ``name``, ``irreps`` (each ``label``, ``dim``, ``re``,
    ``im``), and ``perm`` with ``npoints`` for an action.  Everything is
    revalidated on load.
    """
    n = int(d["order"])
    mul = np.asarray(d["mul"], dtype=np.intp).reshape(n, n)
    inv = np.asarray(d["inv"], dtype=np.intp)
    group = FiniteGroup(mul, inv, identity=int(d.get("identity", 0)), name=d.get("name", ""))
    if "irreps" in d:
        irreps = tuple(
            Irrep(
                rec["label"],
                int(rec["dim"]),
                np.asarray(rec["re"], dtype=float) + 1j * np.asarray(rec["im"], dtype=float),
            )
            for rec in d["irreps"]
        )
        _attach_table(group, irreps)
    action = None
    if "perm" in d:
        perm = np.asarray(d["perm"], dtype=np.intp).reshape(n, int(d["npoints"]))
        action = GroupAction(group, perm)
    return group, action
