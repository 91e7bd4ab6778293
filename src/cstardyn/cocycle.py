"""Cocycle representations of finite transformation groups on Hilbert bundles.

The group part of an equivariant representation over C(Omega) always has the
normal form (v(g) xi)(x) = u(x, g) xi(g^{-1} x) with unitary fiber matrices
u(x, g): H_{g^{-1}x} -> H_x satisfying the cocycle identity
u(x, gh) = u(x, g) u(g^{-1}x, h).  Both store u(x, g) as the same padded
stack, so the group part of ``rep`` is read as the cocycle
``CocycleRep(rep.system.action, rep.module, rep.v_stack)``, which holds
that stack itself.  This module verifies the normal form, decides
equivalence, builds full representations from equivariant base maps, and
extracts (point map, fiber unitaries) from surjective isometries of the
section space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import fibers
from .core import DEFAULT_TOL, GroupAction, System, _orbit_tables
from .equivrep import EquivariantRep
from .hilbmod import SectionalModule, banach_stone_operator
from .numutil import max_abs, nearest_unitary, scale
from .reporting import CheckReport


# the seed of cocycle_equivalent's draws, and its draws per orbit representative
_SEED = 13
_ATTEMPTS = 8


class NotBanachStoneError(ValueError):
    """The map is not a surjective isometry of the required block form."""


@dataclass(frozen=True, eq=False, init=False)
class CocycleRep:
    """A cocycle stored as the zero-padded stack ``u_stack`` (see
    :mod:`.fibers`): ``u_stack[g, x]`` holds the unitary from fiber g^{-1}x
    into fiber x in the top-left corner of a d_max x d_max slot.  ``u`` may
    be given as nested per-(g, x) sequences or as the padded stack; the stack
    is the only store, and ``u[g][x]`` are read-only views of it, built on
    first read and kept."""

    action: GroupAction
    module: SectionalModule
    u_stack: np.ndarray = field(repr=False)

    def __init__(self, action: GroupAction, module: SectionalModule, u):
        if module.space != action.space:
            raise ValueError("bundle base and action space disagree")
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "u_stack", fibers.stack(u, module.fiber_dims, np.take(module.fiber_dims, action.src)))

    @cached_property
    def u(self) -> tuple[tuple[np.ndarray, ...], ...]:
        return fibers.fiber_views(self.action, self.module.fiber_dims, self.u_stack)


@dataclass(frozen=True, eq=False)
class EquivariantMap:
    """A base-point map commuting with the action: sigma(g.x) = g.sigma(x)."""

    action: GroupAction
    sigma: tuple[int, ...]

    def __post_init__(self):
        n = self.action.space.size
        sigma = tuple(int(s) for s in self.sigma)
        if len(sigma) != n or any(not 0 <= s < n for s in sigma):
            raise ValueError("sigma must map base points to base points")
        perm, image = self.action.perm, np.asarray(sigma)
        bad = np.argwhere(image[perm] != perm[:, image])
        if bad.size:
            raise ValueError(
                f"map is not equivariant: sigma(g.x) != g.sigma(x) at (g, x) = ({bad[0][0]}, {bad[0][1]})"
            )
        object.__setattr__(self, "sigma", sigma)


def _map_choices(action: GroupAction) -> tuple[np.ndarray, list[list[int]]]:
    """The orbit representatives r, each the smallest point of its orbit,
    and for each the targets y with Stab(r) in Stab(y), both increasing.  An
    equivariant map sets sigma(g.r) = g.y for one target y per r.  Every
    point below a representative lies in the orbit of a smaller one, so the
    lexicographic order of the choices is that of the maps."""
    perm, points = action.perm, np.arange(action.space.size)
    reps = _orbit_tables(action)[0]
    return reps, [np.flatnonzero((perm[perm[:, r] == r] == points).all(axis=0)).tolist() for r in reps]


def _equivariant_map(action: GroupAction, reps: np.ndarray, targets) -> EquivariantMap:
    sigma = np.empty(action.space.size, dtype=np.intp)
    sigma[action.perm[:, reps]] = action.perm[:, targets]
    return EquivariantMap(action, tuple(sigma.tolist()))


def equivariant_maps(action: GroupAction) -> list[EquivariantMap]:
    """All equivariant self-maps of the base, in lexicographic order of
    sigma (see :func:`_map_choices`)."""
    reps, choices = _map_choices(action)
    return [_equivariant_map(action, reps, ys) for ys in itertools.product(*choices)]


def _decode_map(action: GroupAction, index: int) -> EquivariantMap:
    """``equivariant_maps(action)[index]``, without listing the maps: index
    in mixed radix, the first representative's choice most significant."""
    reps, choices = _map_choices(action)
    digits = np.unravel_index(index, [len(c) for c in choices])
    return _equivariant_map(action, reps, [c[int(i)] for c, i in zip(choices, digits)])


def verify_cocycle(c: CocycleRep, tol: float = DEFAULT_TOL) -> CheckReport:
    """Residuals of unitarity, the cocycle identity and u(x, e) = id, with
    the location of the largest unitarity and cocycle-identity residuals;
    each check's bound is ``tol`` times the :func:`.numutil.scale` of u."""
    report = CheckReport()
    bound = tol * scale(c.u_stack)
    unitary, cocycle, identity = fibers.group_law(c.action, c.module.fiber_dims, c.u_stack)
    report.add("unitarity", unitary[0], bound, unitary[1])
    report.add("cocycle identity", cocycle[0], bound, cocycle[1])
    report.add("identity element", identity, bound)
    return report


def _require_cocycle(c: CocycleRep) -> CocycleRep:
    """``c`` itself, once :func:`verify_cocycle` passes it; raises otherwise."""
    report = verify_cocycle(c)
    if not report.passed:
        worst = report.worst()
        raise ValueError(f"not a cocycle: {worst.name} residual {worst.residual:.3e}")
    return c


def cocycle_equivalent(c1: CocycleRep, c2: CocycleRep) -> Optional[list[np.ndarray]]:
    """Per-fiber unitaries U(x) with U(x) u1(x, g) U(g^{-1}x)* = u2(x, g), or None.

    Decided orbit by orbit (Mackey): on its representative r (see
    :func:`.core._orbit_tables`), s -> u(r, s) is a unitary representation
    of the stabilizer of r, and the cocycles are equivalent exactly when
    these representations are, that is when their characters agree within
    d times the bound, since a trace sums d entries.  Then U(r) is the polar
    factor of the stabilizer average sum_s u2(r, s) R u1(r, s)* of a complex
    Gaussian R from seed ``_SEED``, drawn again up to ``_ATTEMPTS`` times
    while that average is singular, and U is carried along the orbit as
    U(x) = u2(x, c_x) U(r) u1(x, c_x)*, c_x the carrier of x.  The family is
    returned if it satisfies the defining equation within the bound,
    ``DEFAULT_TOL`` times the :func:`.numutil.scale` of both stacks.
    """
    if c1.action != c2.action or c1.module.fiber_dims != c2.module.fiber_dims:
        return None
    action, dims = c1.action, np.asarray(c1.module.fiber_dims)
    u1, u2 = c1.u_stack, c2.u_stack
    bound = DEFAULT_TOL * scale(u1, u2)
    reps, rep_of, carrier = _orbit_tables(action)
    rng = np.random.default_rng(_SEED)
    at_rep = np.zeros(u1.shape[1:], dtype=complex)  # U(r) in slot r
    for r in reps[dims[reps] > 0]:
        d, stab = dims[r], np.flatnonzero(action.perm[:, r] == r)
        a, b = u1[stab, r, :d, :d], u2[stab, r, :d, :d]
        if not max_abs(np.trace(a - b, axis1=1, axis2=2)) <= bound * d:
            return None
        for _ in range(_ATTEMPTS):
            noise = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            unitary = nearest_unitary((b @ noise @ a.conj().swapaxes(-1, -2)).sum(axis=0))
            if unitary is not None:
                at_rep[r, :d, :d] = unitary
                break
        else:
            return None
    points = np.arange(len(dims))
    w = u2[carrier, points] @ at_rep[rep_of] @ u1[carrier, points].conj().swapaxes(-1, -2)
    if not fibers.intertwining_residual(w, u1, u2, action.src).max(initial=0.0) <= bound:
        return None
    return [w[x, :d, :d] for x, d in enumerate(dims)]


def rho_from_sigma(sigma: EquivariantMap, c: CocycleRep) -> EquivariantRep:
    """The equivariant representation with algebra part pulled back along an
    equivariant base map: rho(e_k) projects onto the fibers sigma maps to k,
    and the group part is the cocycle's homomorphism."""
    if sigma.action != c.action:
        raise ValueError("base map and cocycle live over different actions")
    return _pullback_rep(sigma, _require_cocycle(c))


def _pullback_rep(sigma: EquivariantMap, c: CocycleRep) -> EquivariantRep:
    """:func:`rho_from_sigma` on a cocycle that :func:`verify_cocycle`
    passed: both stacks are written whole, v's is the cocycle's."""
    dims = c.module.fiber_dims
    onto = np.asarray(sigma.sigma) == np.arange(len(dims))[:, None]  # [k, x]: sigma(x) = k
    rho = onto[:, :, None, None] * fibers.padded_identity(dims)
    return EquivariantRep(System(c.action), c.module, rho, c.u_stack)


def banach_stone_extract(v: np.ndarray, module: SectionalModule) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """Recover the point bijection and fiber unitaries of a surjective
    isometry of the section space.

    Applies the map to the basis sections of each fiber; every image must be
    supported at a single point with a unitary block there, and the induced
    point map must be a bijection.  Smeared support, non-square or
    non-unitary blocks are rejected as not of the required form, within
    ``DEFAULT_TOL`` times the :func:`.numutil.scale` of ``v``.
    """
    dims = module.fiber_dims
    off = module.offsets()
    total = module.total_dim
    v = np.asarray(v, dtype=complex).reshape(total, total)
    bound = DEFAULT_TOL * scale(v)
    n = module.n_points

    sigma = [-1] * n
    u_mats: list[np.ndarray] = [np.zeros((0, 0), dtype=complex)] * n
    taken = [False] * n
    for y in module.space.points():
        if dims[y] == 0:
            continue
        col = v[:, off[y] : off[y] + dims[y]]
        supported = [
            x
            for x in module.space.points()
            if dims[x] and max_abs(col[off[x] : off[x] + dims[x], :]) > bound
        ]
        if len(supported) != 1:
            raise NotBanachStoneError(
                f"sections at point {y} map to support {supported}, not a single point"
            )
        p = supported[0]
        if taken[p]:
            raise NotBanachStoneError(f"two points map onto point {p}; no bijection exists")
        if dims[p] != dims[y]:
            raise NotBanachStoneError(
                f"fiber dimensions {dims[p]} and {dims[y]} differ; no unitary identification"
            )
        block = col[off[p] : off[p] + dims[p], :]
        if max_abs(block.conj().T @ block - np.eye(dims[y])) > bound:
            raise NotBanachStoneError(
                f"block from point {y} to point {p} is not unitary; the map is not an isometry"
            )
        taken[p] = True
        sigma[p] = y
        u_mats[p] = block

    # zero-dimensional fibers pair up among themselves (empty unitaries)
    free_targets = [y for y in module.space.points() if dims[y] == 0]
    for p in module.space.points():
        if sigma[p] == -1:
            if dims[p] != 0 or not free_targets:
                raise NotBanachStoneError("point map is not a bijection")
            sigma[p] = free_targets.pop(0)
            u_mats[p] = np.zeros((0, 0), dtype=complex)

    rebuilt = banach_stone_operator(module, sigma, u_mats)
    if max_abs(rebuilt - v) > bound:
        raise NotBanachStoneError("map carries weight outside its block structure")
    return tuple(sigma), u_mats
