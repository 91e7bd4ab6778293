"""Cocycle representations of finite transformation groups on Hilbert bundles.

The group part of an equivariant representation over C(Omega) always has the
normal form (v(g) xi)(x) = u(x, g) xi(g^{-1} x) with unitary fiber matrices
u(x, g): H_{g^{-1}x} -> H_x satisfying the cocycle identity
u(x, gh) = u(x, g) u(g^{-1}x, h).  This module verifies that normal form,
converts both ways, decides equivalence, builds full representations from
equivariant base maps, and extracts (point map, fiber unitaries) from
surjective isometries of the section space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import fibers
from .core import DEFAULT_TOL, GroupAction, System
from .equivrep import EquivariantRep
from .hilbmod import SectionalModule, banach_stone_operator
from .numutil import max_abs, max_abs_over, nearest_unitary, null_space
from .reporting import CheckReport


class CocycleCompatibilityError(ValueError):
    """A group part that is not of cocycle normal form; names the violated relation."""

    def __init__(self, relation: str, detail: str):
        self.relation = relation
        super().__init__(f"{relation}: {detail}")


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
        object.__setattr__(self, "u_stack", fibers.stack_fibers(action, module.fiber_dims, u))

    @cached_property
    def u(self) -> tuple[tuple[np.ndarray, ...], ...]:
        return fibers.fiber_views(self.action, self.module.fiber_dims, self.u_stack)


@dataclass(frozen=True, eq=False)
class GroupPart:
    """Raw data of an invertible group action on a sectional module: for each
    group element a base permutation (``src_perm[g][x]`` is the point whose
    fiber feeds fiber x) and the per-point matrices."""

    action: GroupAction
    module: SectionalModule
    src_perm: np.ndarray
    mats: tuple[tuple[np.ndarray, ...], ...]


def group_part(rep: EquivariantRep) -> GroupPart:
    """The v-part of an equivariant representation, with its base permutations
    made explicit."""
    action = rep.system.action
    return GroupPart(action, rep.module, action.src, rep.v_mats)


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
        for g in range(self.action.group.order):
            for x in range(n):
                if sigma[self.action.apply(g, x)] != self.action.apply(g, sigma[x]):
                    raise ValueError(
                        f"map is not equivariant: sigma(g.x) != g.sigma(x) at (g, x) = ({g}, {x})"
                    )
        object.__setattr__(self, "sigma", sigma)


def equivariant_maps(action: GroupAction) -> list[EquivariantMap]:
    """All equivariant self-maps of the base (brute-force enumeration)."""
    import itertools

    n = action.space.size
    out = []
    for sigma in itertools.product(range(n), repeat=n):
        try:
            out.append(EquivariantMap(action, sigma))
        except ValueError:
            continue
    return out


def verify_cocycle(c: CocycleRep, tol: float = DEFAULT_TOL) -> CheckReport:
    """Residuals of unitarity, the cocycle identity and u(x, e) = id, with
    the location of the largest unitarity and cocycle-identity residuals."""
    report = CheckReport()
    unitary, cocycle, identity = fibers.group_law(c.action, c.module.fiber_dims, c.u_stack)
    report.add("unitarity", unitary[0], tol, unitary[1])
    report.add("cocycle identity", cocycle[0], tol, cocycle[1])
    report.add("identity element", identity, tol)
    return report


def v_to_cocycle(part: GroupPart, tol: float = DEFAULT_TOL) -> CocycleRep:
    """Extract the cocycle underlying a group part.

    The base permutation must agree with the action (x -> g^{-1}x) and every
    matrix must be unitary; both are forced for genuine group parts of
    equivariant representations and violations are reported as the
    corresponding relation.
    """
    action = part.action
    n = action.space.size
    dims = part.module.fiber_dims
    for g in range(action.group.order):
        for x in range(n):
            expected = action.apply_inv(g, x)
            if int(part.src_perm[g][x]) != expected:
                raise CocycleCompatibilityError(
                    "relation (iii) violation",
                    f"base permutation of element {g} sends fiber {part.src_perm[g][x]} "
                    f"to {x}, the action requires {expected}",
                )
    for g in range(action.group.order):
        for x in range(n):
            u = np.asarray(part.mats[g][x], dtype=complex)
            src = action.apply_inv(g, x)
            res = max_abs_over((u.conj().T @ u - np.eye(dims[src]), u @ u.conj().T - np.eye(dims[x])))
            if not res <= tol * (1.0 + max_abs(u)):
                raise CocycleCompatibilityError(
                    "relation (ii) violation",
                    f"matrix of element {g} at point {x} is not unitary (residual {res:.3e})",
                )
    c = CocycleRep(action, part.module, part.mats)
    report = verify_cocycle(c, tol)
    if not report.passed:
        worst = report.worst()
        raise ValueError(
            f"group part is not a cocycle: {worst.name} residual {worst.residual:.3e}"
        )
    return c


def cocycle_to_v(c: CocycleRep, tol: float = DEFAULT_TOL) -> GroupPart:
    """The group homomorphism induced by a cocycle, in normal form.

    Inverse to :func:`v_to_cocycle` on valid inputs, bit-for-bit on the
    stored matrices.
    """
    _require_cocycle(c, tol)
    return GroupPart(c.action, c.module, c.action.src, c.u)


def _require_cocycle(c: CocycleRep, tol: float = DEFAULT_TOL) -> CocycleRep:
    """``c`` itself, once :func:`verify_cocycle` passes it; raises otherwise."""
    report = verify_cocycle(c, tol)
    if not report.passed:
        worst = report.worst()
        raise ValueError(f"not a cocycle: {worst.name} residual {worst.residual:.3e}")
    return c


def cocycle_equivalent(
    c1: CocycleRep,
    c2: CocycleRep,
    tol: float = DEFAULT_TOL,
    attempts: int = 8,
    seed: int = 13,
) -> Optional[list[np.ndarray]]:
    """Per-fiber unitaries U(x) with U(x) u1(x, g) U(g^{-1}x)* = u2(x, g), or None.

    Solves the linear intertwiner system exactly, then projects random null
    space elements to the nearest per-fiber unitaries and keeps a family that
    satisfies the defining equation within tolerance.
    """
    if c1.action != c2.action or c1.module.fiber_dims != c2.module.fiber_dims:
        return None
    action = c1.action
    n = action.space.size
    dims = c1.module.fiber_dims
    var_off = [0]
    for d in dims:
        var_off.append(var_off[-1] + d * d)
    nvars = var_off[-1]
    if nvars == 0:
        return [np.zeros((0, 0), dtype=complex) for _ in range(n)]

    rows = []
    for g in range(action.group.order):
        for x in range(n):
            y = action.apply_inv(g, x)
            dx, dy = dims[x], dims[y]
            if dx * dy == 0:
                continue
            block = np.zeros((dx * dy, nvars), dtype=complex)
            block[:, var_off[x] : var_off[x + 1]] += np.kron(np.eye(dx), c1.u[g][x].T)
            block[:, var_off[y] : var_off[y + 1]] -= np.kron(c2.u[g][x], np.eye(dy))
            rows.append(block)
    m = np.concatenate(rows, axis=0) if rows else np.zeros((0, nvars))
    basis = null_space(m, tol)
    if basis.shape[1] == 0:
        return None

    scale = 1.0 + max(
        (max_abs(u) for c in (c1, c2) for fam in c.u for u in fam), default=0.0
    )
    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        coeffs = rng.normal(size=basis.shape[1]) + 1j * rng.normal(size=basis.shape[1])
        w = basis @ coeffs
        mats, ok = [], True
        for x in range(n):
            d = dims[x]
            cand = nearest_unitary(w[var_off[x] : var_off[x + 1]].reshape(d, d))
            if cand is None:
                ok = False
                break
            mats.append(cand)
        if not ok:
            continue
        res = max_abs_over(
            mats[x] @ c1.u[g][x] - c2.u[g][x] @ mats[action.src[g, x]]
            for g in range(action.group.order)
            for x in range(n)
        )
        if res <= tol * scale:
            return mats
    return None


def rho_from_sigma(sigma: EquivariantMap, c: CocycleRep, tol: float = DEFAULT_TOL) -> EquivariantRep:
    """The equivariant representation with algebra part pulled back along an
    equivariant base map: rho(e_k) projects onto the fibers sigma maps to k,
    and the group part is the cocycle's homomorphism."""
    if sigma.action != c.action:
        raise ValueError("base map and cocycle live over different actions")
    return _pullback_rep(sigma, _require_cocycle(c, tol))


def _pullback_rep(sigma: EquivariantMap, c: CocycleRep) -> EquivariantRep:
    """:func:`rho_from_sigma` on a cocycle that :func:`verify_cocycle`
    passed: both stacks are written whole, v's is the cocycle's."""
    dims = c.module.fiber_dims
    onto = np.asarray(sigma.sigma) == np.arange(len(dims))[:, None]  # [k, x]: sigma(x) = k
    rho = onto[:, :, None, None] * fibers.padded_identity(dims)
    return EquivariantRep(System(c.action), c.module, rho, c.u_stack)


def banach_stone_extract(
    v: np.ndarray, module: SectionalModule, tol: float = DEFAULT_TOL
) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """Recover the point bijection and fiber unitaries of a surjective
    isometry of the section space.

    Applies the map to the basis sections of each fiber; every image must be
    supported at a single point with a unitary block there, and the induced
    point map must be a bijection.  Smeared support, non-square or
    non-unitary blocks are rejected as not of the required form.
    """
    dims = module.fiber_dims
    off = module.offsets()
    total = module.total_dim
    v = np.asarray(v, dtype=complex).reshape(total, total)
    scale = 1.0 + max_abs(v)
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
            if dims[x] and max_abs(col[off[x] : off[x] + dims[x], :]) > tol * scale
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
        if max_abs(block.conj().T @ block - np.eye(dims[y])) > tol * scale:
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
    if max_abs(rebuilt - v) > tol * scale:
        raise NotBanachStoneError("map carries weight outside its block structure")
    return tuple(sigma), u_mats
