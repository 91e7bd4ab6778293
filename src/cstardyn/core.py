"""Finite groups, finite spaces, permutation actions and systems.

Conventions used throughout the package:

* group elements are dense indices ``0 .. order-1``;
* a group action is stored as one permutation of the base points per group
  element, so applying the action never introduces rounding;
* complex scalars are numpy ``complex128``; the default tolerance for every
  numerical check is ``DEFAULT_TOL``;
* the algebra ``A = C(Omega)`` of an ``n``-point space is the vector space
  ``C^n`` with entrywise product, and ``(alpha_g a)_x = a_{g^{-1} x}``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-9

# Table validation gathers at most this many entries at a time, so that
# checking a group of order |G| needs O(|G|^2) memory and not O(|G|^3).
_BLOCK_ELEMENTS = 2**18


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its multiplication table.

    ``mult[g, h]`` is the index of the product g*h.  The identity index and
    the inverse table are derived (and validated) at construction time, as
    is ``generators``, the generating set that validation works on.
    """

    order: int
    mult: np.ndarray
    identity: int = field(init=False)
    inverse: np.ndarray = field(init=False)
    generators: np.ndarray = field(init=False, repr=False)

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, FiniteGroup)
            and self.order == other.order
            and np.array_equal(self.mult, other.mult)
        )

    def __post_init__(self):
        mult = np.asarray(self.mult, dtype=np.intp)
        if self.order < 1:
            raise ValueError("group order must be >= 1")
        if mult.shape != (self.order, self.order):
            raise ValueError(f"mult table must be {self.order}x{self.order}")
        # negative entries read as unsigned exceed any order
        if mult.view(np.uintp).max() >= self.order:
            raise ValueError("mult table entries out of range")
        object.__setattr__(self, "mult", _freeze(mult))

        # a left and a right identity coincide, so only the first left
        # identity can be a two-sided one
        elements = np.arange(self.order)
        units = np.flatnonzero((mult == elements).all(axis=1))
        if not units.size or not (mult[:, units[0]] == elements).all():
            raise ValueError("table has no two-sided identity")
        identity = int(units[0])
        object.__setattr__(self, "identity", identity)

        # every element has a two-sided inverse iff right[g, h] (gh = e) is a
        # symmetric permutation matrix
        right = mult == identity
        if not ((right.sum(axis=1) == 1).all() and (right == right.T).all()):
            left = right.T
            bad = (left.sum(axis=1) != 1) | (right.sum(axis=1) != 1) | (right.argmax(axis=1) != left.argmax(axis=1))
            raise ValueError(f"element {bad.argmax()} has no two-sided inverse")
        object.__setattr__(self, "inverse", _freeze(right.argmax(axis=1)))

        # Light's test: the elements a with (xa)y == x(ay) for all x, y are
        # closed under products, so checking a generating set proves the
        # table associative; in blocks of generators a
        gens = _freeze(np.array(_generating_set(mult, identity), dtype=np.intp))
        object.__setattr__(self, "generators", gens)
        step = max(1, _BLOCK_ELEMENTS // (self.order * self.order))
        for lo in range(0, len(gens), step):
            a = gens[lo : lo + step]
            if not (mult[mult[:, a]] == mult[:, mult[a]]).all():
                raise ValueError("multiplication table is not associative")

    def mul(self, g: int, h: int) -> int:
        return int(self.mult[g, h])

    def elements(self) -> range:
        return range(self.order)


def _generating_set(mult: np.ndarray, identity: int) -> list[int]:
    """A greedy generating set of a table with a two-sided identity: the
    first element not yet reached joins it, where the reached elements are
    the right-closure of the identity under the generators so far.  Each
    generator at least doubles the subgroup reached, so a group of order
    |G| needs at most log2 |G|."""
    order = len(mult)
    reached = bytearray(order)
    reached[identity] = 1
    members = [identity]
    gens: list[int] = []
    cols: list[list[int]] = []  # cols[i][x] = x a_i
    first = 0
    while len(members) < order:
        first = reached.index(0, first)
        gens.append(first)
        cols.append(mult[:, first].tolist())
        frontier = members  # every member times the new generator
        while frontier:
            new = []
            for col in cols:
                for x in frontier:
                    y = col[x]
                    if not reached[y]:
                        reached[y] = 1
                        new.append(y)
            members = members + new
            frontier = new
    return gens


def cyclic_group(n: int) -> FiniteGroup:
    """Z_n with addition mod n; identity is 0."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    idx = np.arange(n)
    return FiniteGroup(n, (idx[:, None] + idx[None, :]) % n)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n as a multiplication table; see :func:`symmetric_action`."""
    return symmetric_action(n).group


@dataclass(frozen=True)
class FiniteSpace:
    """A finite base space of n points; its function algebra is C^n."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("space must have at least one point")

    def points(self) -> range:
        return range(self.size)


@dataclass(frozen=True, eq=False)
class GroupAction:
    """An action of a finite group on a finite space by permutations.

    ``perm[g, x]`` is the point g.x; the map g -> perm[g] must be a
    homomorphism into the symmetric group of the space.  The derived table
    ``src[g, x]`` is the point g^{-1}.x, whose fiber v(g) moves into fiber x.
    """

    group: FiniteGroup
    space: FiniteSpace
    perm: np.ndarray
    src: np.ndarray = field(init=False, repr=False)

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, GroupAction)
            and self.group == other.group
            and self.space == other.space
            and np.array_equal(self.perm, other.perm)
        )

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.intp)
        n = self.space.size
        order = self.group.order
        if perm.shape != (order, n):
            raise ValueError(f"perm must have shape ({order}, {n})")
        bad = np.flatnonzero((np.sort(perm, axis=1) != np.arange(n)).any(axis=1))
        if bad.size:
            raise ValueError(f"perm[{bad[0]}] is not a permutation")
        if not np.array_equal(perm[self.group.identity], np.arange(n)):
            raise ValueError("identity does not act trivially")
        # perm[ga] == perm[g][perm[a]] for every g and generator a proves
        # perm[gh] == perm[g][perm[h]] for all (g, h), by induction on the
        # length of h as a word in the generators; only a failure scans all
        # pairs, in blocks of rows g, to name the first failing one
        gens = self.group.generators
        if not (perm[self.group.mult[:, gens]] == perm[:, perm[gens]]).all():
            rows = max(1, _BLOCK_ELEMENTS // (order * n))
            for lo in range(0, order, rows):
                lhs = perm[self.group.mult[lo : lo + rows]]
                rhs = np.take_along_axis(perm[lo : lo + rows, None, :], perm[None, :, :], axis=2)
                bad = np.argwhere((lhs != rhs).any(axis=2))
                if bad.size:
                    raise ValueError(f"perm is not a homomorphism at ({lo + bad[0][0]}, {bad[0][1]})")
        object.__setattr__(self, "perm", _freeze(perm))
        object.__setattr__(self, "src", _freeze(perm[self.group.inverse]))

    def apply(self, g: int, x: int) -> int:
        """The point g.x."""
        return int(self.perm[g, x])

    def apply_inv(self, g: int, x: int) -> int:
        """The point g^{-1}.x."""
        return int(self.src[g, x])


def _orbit_tables(action: GroupAction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The orbit representatives r, each the smallest point of its orbit, in
    increasing order; ``rep_of[x]``, the representative of x's orbit; and the
    carrier ``carrier[x]``, the smallest g with g.rep_of[x] = x."""
    perm = action.perm
    rep_of = perm.min(axis=0)
    points = np.arange(action.space.size)
    return np.flatnonzero(rep_of == points), rep_of, (perm[:, rep_of] == points).argmax(axis=0)


@dataclass(frozen=True, eq=False)
class System:
    """A finite C*-dynamical system: C^n with a finite group acting by
    the automorphisms induced from a point permutation action."""

    action: GroupAction

    def __eq__(self, other) -> bool:
        return other is self or (isinstance(other, System) and self.action == other.action)

    @property
    def group(self) -> FiniteGroup:
        return self.action.group

    @property
    def space(self) -> FiniteSpace:
        return self.action.space

    @property
    def n_points(self) -> int:
        return self.action.space.size


def trivial_action(group: FiniteGroup, n: int) -> GroupAction:
    space = FiniteSpace(n)
    perm = np.tile(np.arange(n), (group.order, 1))
    return GroupAction(group, space, perm)


def cyclic_shift_action(n: int) -> GroupAction:
    """Z_n acting on n points by g.x = x + g mod n."""
    group = cyclic_group(n)
    idx = np.arange(n)
    perm = (idx[None, :] + idx[:, None]) % n
    return GroupAction(group, FiniteSpace(n), perm)


def symmetric_action(m: int) -> GroupAction:
    """S_m on its m letters: element i acts as the i-th permutation in
    lexicographic order, so element 0 is the identity, and (p*q)(x) =
    p(q(x)).  Intended for small m (the table is m! x m!)."""
    if m < 1:
        raise ValueError(f"S_m needs m >= 1, got {m}")
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.intp)
    order = len(perms)
    # base-m keys increase strictly along the lexicographic order
    weights = m ** np.arange(m - 1, -1, -1)
    keys = perms @ weights
    mult = np.empty((order, order), dtype=np.intp)
    rows = max(1, _BLOCK_ELEMENTS // (order * m))
    for lo in range(0, order, rows):  # perms[lo:][:, perms][i, j, x] = p_i(p_j(x))
        mult[lo : lo + rows] = np.searchsorted(keys, perms[lo : lo + rows][:, perms] @ weights)
    return GroupAction(FiniteGroup(order, mult), FiniteSpace(m), perms)

