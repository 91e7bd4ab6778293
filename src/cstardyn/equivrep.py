"""Equivariant representations of finite commutative C*-dynamical systems.

A representation is a pair (rho, v) on a sectional module: rho is a unital
*-representation of C^n by fiber-preserving operators, and v(g) moves fiber
g^{-1}x to fiber x through a matrix u[g][x] of shape (d_x, d_{g^{-1}x}).
Storing v in this normal form bakes in relation (iii) of the definition; the
remaining relations are verified numerically by :func:`verify_equivariant`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import fibers
from .core import DEFAULT_TOL, System
from .hilbmod import (
    ModuleOperator,
    ModuleVector,
    SectionalModule,
    _block_diag,
    banach_stone_operator,
    canonical_rep,
    internal_tensor,
    module_action,
    trivial_module,
)
from .numutil import matrix_rank, max_abs, max_abs_over, nearest_unitary, null_space
from .reporting import CheckReport


class NotPositiveDefiniteError(ValueError):
    """Raised when a construction requires a positive definite multiplier."""

    def __init__(self, certificate):
        self.certificate = certificate
        super().__init__(f"multiplier is not positive definite: {certificate}")


@dataclass(frozen=True, eq=False, init=False)
class EquivariantRep:
    """Representation data, stored as two zero-padded stacks (see
    :mod:`.fibers`): ``rho_stack[k, x]`` holds the block at fiber x of the
    generator rho(e_k), and ``v_stack[g, x]`` the matrix of v(g) from fiber
    g^{-1}x into fiber x, each in the top-left corner of a d_max x d_max
    slot.  ``regular_base`` is set when the module is a direct sum of
    group-indexed copies of a base module (slot h occupies rows
    [h*d_x, (h+1)*d_x) of fiber x).

    ``rho`` may be given as one :class:`ModuleOperator` per point or as the
    padded stack, and ``v_mats`` as nested per-(g, x) sequences or as the
    padded stack.  The stacks are the only store of the matrices:
    ``v_mats[g][x]`` are read-only views of ``v_stack``, built on first read
    and kept, and so are the operators ``rho`` when they were not given.
    """

    system: System
    module: SectionalModule
    rho_stack: np.ndarray = field(repr=False)
    v_stack: np.ndarray = field(repr=False)
    regular_base: Optional[SectionalModule] = None

    def __init__(self, system: System, module: SectionalModule, rho, v_mats, regular_base=None):
        n = module.n_points
        if system.n_points != n:
            raise ValueError("module base and system space disagree")
        if len(rho) != n:
            raise ValueError("rho needs one generator per point")
        if len(v_mats) != system.group.order:
            raise ValueError("v needs one family of matrices per group element")
        dims = module.fiber_dims
        if not isinstance(rho, np.ndarray):
            object.__setattr__(self, "rho", tuple(rho))  # given operators fill the cache
            rho = [gen.blocks for gen in rho]
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "rho_stack", fibers.stack_blocks(rho, dims))
        object.__setattr__(self, "v_stack", fibers.stack_fibers(system.action, dims, v_mats))
        object.__setattr__(self, "regular_base", regular_base)

    @cached_property
    def rho(self) -> tuple[ModuleOperator, ...]:
        dims = self.module.fiber_dims
        return tuple(
            ModuleOperator(self.module, tuple(blocks[x, :d, :d] for x, d in enumerate(dims)))
            for blocks in self.rho_stack
        )

    @cached_property
    def v_mats(self) -> tuple[tuple[np.ndarray, ...], ...]:
        return fibers.fiber_views(self.system.action, self.module.fiber_dims, self.v_stack)

    def rho_operator(self, a: np.ndarray) -> ModuleOperator:
        a = np.asarray(a, dtype=complex).reshape(self.module.n_points)
        blocks = []
        for x, d in enumerate(self.module.fiber_dims):
            acc = np.zeros((d, d), dtype=complex)
            for k, gen in enumerate(self.rho):
                acc = acc + a[k] * gen.blocks[x]
            blocks.append(acc)
        return ModuleOperator(self.module, tuple(blocks))

    def apply_rho(self, a: np.ndarray, vec: ModuleVector) -> ModuleVector:
        return self.rho_operator(a).apply(vec)

    def apply_v(self, g: int, vec: ModuleVector) -> ModuleVector:
        if vec.module != self.module:
            raise ValueError("vector lives on a different module")
        comps = []
        for x in self.module.space.points():
            src = self.system.action.apply_inv(g, x)
            comps.append(self.v_mats[g][x] @ vec.components[src])
        return ModuleVector(self.module, tuple(comps))

    def v_full_matrix(self, g: int) -> np.ndarray:
        """v(g) as one total_dim x total_dim matrix in fiber-block coordinates."""
        return banach_stone_operator(self.module, self.system.action.src[g], self.v_mats[g])

    def rho_full_matrix(self, a: np.ndarray) -> np.ndarray:
        return _block_diag(self.rho_operator(a).blocks)


@dataclass(frozen=True, eq=False)
class CyclicVector:
    rep: EquivariantRep
    vector: ModuleVector

    def __post_init__(self):
        if self.vector.module != self.rep.module:
            raise ValueError("vector lives on a different module")


@np.errstate(over="ignore", invalid="ignore")
def verify_equivariant(rep: EquivariantRep, tol: float = DEFAULT_TOL) -> CheckReport:
    """Residual report for the representation and equivariance laws.

    Checks: rho unital / multiplicative / self-adjoint on generators, the
    three defining relations, v(e) = id, v a homomorphism, and the isometry
    consequence on the basis sections.  Each residual is the max |entry| of
    the relation's difference over all group elements, points and basis
    indices, computed on the padded stacks in blocks (see :mod:`.fibers`);
    relation (i), relation (ii) and the homomorphism also report where their
    largest residual sits.  Relation (iii) is exact in the stored normal
    form, so its residual is 0 for a finite v and NaN (reported as inf)
    otherwise.  Failures are reported, never raised: entries large enough to
    overflow give inf residuals, which fail, and no warning.
    """
    report = CheckReport()
    action = rep.system.action
    n, order = rep.module.n_points, action.group.order
    dims = rep.module.fiber_dims
    src, points = action.src, np.arange(n)
    v, r = rep.v_stack, rep.rho_stack
    d = v.shape[-1]
    eye = fibers.padded_identity(dims)

    report.add("rho unital", float(fibers.entry_max(r.sum(axis=0) - eye).max()), tol)

    worst = fibers.Worst()
    for lo, hi in fibers.blocks(n, n * n * d * d):
        prod = r[lo:hi, None] @ r[None]  # rho(e_k) rho(e_l) per fiber
        prod[np.arange(hi - lo), np.arange(lo, hi)] -= r[lo:hi]
        worst.update(fibers.entry_max(prod), lo)
    report.add("rho multiplicative", worst.residual, tol)

    report.add("rho self-adjoint", float(fibers.entry_max(r - r.conj().swapaxes(-1, -2)).max()), tol)

    # relation (i): rho(alpha_g(e_k)) v(g) = v(g) rho(e_k), per fiber
    worst = fibers.Worst()
    for lo, hi in fibers.blocks(order, n * n * d * d):
        gs = np.arange(lo, hi)
        vg = v[gs][:, None]
        lhs = r[action.perm[gs]] @ vg
        rhs = vg @ r[points[None, :, None], src[gs][:, None, :]]
        worst.update(fibers.entry_max(lhs - rhs), lo)
    report.add("relation (i) covariance", worst.residual, tol, worst.where("g", "k", "x"))

    # relation (ii) is equivalent to every matrix of v being unitary
    unitary, hom, identity = fibers.group_law(action, dims, v)
    report.add("relation (ii) inner products", unitary[0], tol, unitary[1])

    # relation (iii), v(g)(xi . a) = (v(g) xi) . alpha_g(a), holds exactly
    # for v in normal form: both sides move the component at g^{-1}x to x.
    # Only a non-finite entry of v breaks it, through 0 * inf or inf - inf
    report.add("relation (iii) module action", 0.0 if np.isfinite(v).all() else np.nan, tol)

    report.add("v(e) identity", identity, tol)
    report.add("v homomorphism", hom[0], tol, hom[1])

    # |v(g) e_(y,i)| = 1: the norm of column i of v[g][x] for real columns of
    # fiber g^{-1}x = y
    norms = np.sqrt((np.abs(v) ** 2).sum(axis=-2))
    real = fibers.fiber_mask(dims)[src]
    report.add("v isometric", float(np.where(real, np.abs(norms - 1.0), 0.0).max(initial=0.0)), tol)
    return report


def trivial_rep(system: System) -> EquivariantRep:
    """(multiplication, alpha) on C^n over itself: every fiber is a line and
    v permutes the lines according to the action."""
    mod = trivial_module(system.space)
    rho = tuple(canonical_rep(mod))
    one = np.ones((1, 1), dtype=complex)
    v_mats = tuple(
        tuple(one.copy() for _ in range(system.n_points)) for _ in range(system.group.order)
    )
    return EquivariantRep(system, mod, rho, v_mats)


def regular_rep(rep: EquivariantRep) -> EquivariantRep:
    """The group-indexed amplification: module = direct sum of one copy of the
    original module per group element, rho acting slotwise and
    (v(g) xi)(h) = v(g) xi(g^{-1}h)."""
    sys_ = rep.system
    order = sys_.group.order
    base = rep.module
    dims = tuple(order * d for d in base.fiber_dims)
    mod = SectionalModule(base.space, dims)

    rho = []
    for k in range(base.n_points):
        blocks = [np.kron(np.eye(order), rep.rho[k].blocks[x]) for x in base.space.points()]
        rho.append(ModuleOperator(mod, tuple(blocks)))

    v_mats = []
    for g in range(order):
        slot_perm = np.zeros((order, order))
        for h in range(order):
            slot_perm[h, sys_.group.mul(sys_.group.inv(g), h)] = 1.0
        per_point = tuple(np.kron(slot_perm, rep.v_mats[g][x]) for x in base.space.points())
        v_mats.append(per_point)
    return EquivariantRep(sys_, mod, tuple(rho), tuple(v_mats), regular_base=base)


def slot_embed(regular: EquivariantRep, h: int, vec: ModuleVector) -> ModuleVector:
    """Place a base-module vector into slot h of a regular-type module."""
    base = regular.regular_base
    if base is None:
        raise ValueError("representation does not carry a slot structure")
    if vec.module != base:
        raise ValueError("vector must live on the base module")
    order = regular.system.group.order
    comps = []
    for x, d in enumerate(base.fiber_dims):
        c = np.zeros(order * d, dtype=complex)
        c[h * d : (h + 1) * d] = vec.components[x]
        comps.append(c)
    return ModuleVector(regular.module, tuple(comps))


def slot_restrict(regular: EquivariantRep, vec: ModuleVector, slots: Sequence[int]) -> ModuleVector:
    """Zero every group-indexed slot outside ``slots``."""
    base = regular.regular_base
    if base is None:
        raise ValueError("representation does not carry a slot structure")
    order = regular.system.group.order
    keep = set(int(s) for s in slots)
    comps = []
    for x, d in enumerate(base.fiber_dims):
        c = vec.components[x].copy()
        for h in range(order):
            if h not in keep:
                c[h * d : (h + 1) * d] = 0.0
        comps.append(c)
    return ModuleVector(regular.module, tuple(comps))


def direct_sum_reps(reps: Sequence[EquivariantRep]) -> EquivariantRep:
    if not reps:
        raise ValueError("direct sum of an empty family is not defined")
    sys_ = reps[0].system
    if any(r.system != sys_ for r in reps):
        raise ValueError("summands must share the system")
    n = sys_.n_points
    dims = tuple(sum(r.module.fiber_dims[x] for r in reps) for x in range(n))
    mod = SectionalModule(sys_.space, dims)

    rho = tuple(
        ModuleOperator(
            mod, tuple(_block_diag([r.rho[k].blocks[x] for r in reps]) for x in range(n))
        )
        for k in range(n)
    )
    v_mats = tuple(
        tuple(_block_diag([r.v_mats[g][x] for r in reps]) for x in range(n))
        for g in range(sys_.group.order)
    )
    return EquivariantRep(sys_, mod, rho, v_mats)


def tensor_rep(r1: EquivariantRep, r2: EquivariantRep, tol: float = DEFAULT_TOL):
    """The tensor product representation on the internal tensor product of the
    modules: rho acts on the left factor, v acts diagonally.

    Returns ``(rep, tensor_product)`` so callers can embed simple tensors.
    """
    if r1.system != r2.system:
        raise ValueError("tensor factors must share the system")
    sys_ = r1.system
    tp = internal_tensor(r1.module, r2.rho, r2.module, tol)
    mod = tp.module
    n = mod.n_points

    rho = []
    for k in range(n):
        big = r1.rho_full_matrix(np.eye(n)[k])
        blocks = []
        for m in range(n):
            d2 = r2.module.fiber_dims[m]
            op = np.kron(big, np.eye(d2))
            blocks.append(tp.coord[m] @ op @ tp.coord_pinv[m])
        rho.append(ModuleOperator(mod, tuple(blocks)))

    v_mats = []
    for g in range(sys_.group.order):
        big1 = r1.v_full_matrix(g)
        per_point = []
        for x in range(n):
            src = sys_.action.apply_inv(g, x)
            op = np.kron(big1, r2.v_mats[g][x])
            per_point.append(tp.coord[x] @ op @ tp.coord_pinv[src])
        v_mats.append(tuple(per_point))
    rep = EquivariantRep(sys_, mod, tuple(rho), tuple(v_mats))
    return rep, tp


def fell_absorption_unitary(rep: EquivariantRep, tol: float = DEFAULT_TOL):
    """The absorption unitary W from (module tensor group-amplified algebra)
    onto the group-amplified module, W(x (x) xi)(g) = x . xi(g).

    Returns ``(w_blocks, report, tensor_rep_pair, regular)`` where
    ``w_blocks[x]`` maps tensor fiber x onto the amplified fiber x.  The
    report covers isometry, surjectivity, linearity over the algebra and both
    intertwining relations.
    """
    sys_ = rep.system
    n = rep.module.n_points
    order = sys_.group.order
    areg = regular_rep(trivial_rep(sys_))
    trep, tp = tensor_rep(rep, areg, tol)
    reg = regular_rep(rep)

    fiber_of = [p for p in rep.module.space.points() for _ in range(rep.module.fiber_dims[p])]
    idx_in_fiber = [i for p in rep.module.space.points() for i in range(rep.module.fiber_dims[p])]
    D1 = rep.module.total_dim

    w_blocks = []
    for p in range(n):
        d_p = rep.module.fiber_dims[p]
        S = np.zeros((order * d_p, D1 * order), dtype=complex)
        for i in range(D1):
            if fiber_of[i] != p:
                continue
            for a in range(order):
                S[a * d_p + idx_in_fiber[i], i * order + a] = 1.0
        w_blocks.append(S @ tp.coord_pinv[p])

    report = CheckReport()
    report.add("isometry", max_abs_over(w.conj().T @ w - np.eye(w.shape[1]) for w in w_blocks), tol)
    report.add("surjectivity", max_abs_over(w @ w.conj().T - np.eye(w.shape[0]) for w in w_blocks), tol)

    dim_t = trep.module.total_dim
    dim_r = reg.module.total_dim
    report.add("dimension match", float(abs(dim_t - dim_r)), 0.5)

    res = max_abs_over(
        w_blocks[p] @ trep.rho[k].blocks[p] - reg.rho[k].blocks[p] @ w_blocks[p]
        for k in range(n)
        for p in range(n)
    )
    report.add("intertwines rho", res, tol)

    src = sys_.action.src
    res = max_abs_over(
        w_blocks[p] @ trep.v_mats[g][p] - reg.v_mats[g][p] @ w_blocks[src[g, p]]
        for g in range(order)
        for p in range(n)
    )
    report.add("intertwines v", res, tol)

    # A-linearity of W on a seeded spanning sample of simple tensors
    rng = np.random.default_rng(7)
    diffs = []
    for _ in range(4):
        x1 = _random_vector(rep.module, rng)
        x2 = _random_vector(areg.module, rng)
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        z = tp.embed(x1, module_action(x2, a))
        lhs = _apply_blocks(w_blocks, reg.module, z)
        rhs = module_action(_apply_blocks(w_blocks, reg.module, tp.embed(x1, x2)), a)
        diffs.append(lhs.flat() - rhs.flat())
    report.add("algebra linearity", max_abs_over(diffs), tol)
    return w_blocks, report, (trep, tp), reg


def _apply_blocks(blocks: Sequence[np.ndarray], target: SectionalModule, vec: ModuleVector) -> ModuleVector:
    return ModuleVector(target, tuple(blocks[x] @ vec.components[x] for x in target.space.points()))


def _random_vector(module: SectionalModule, rng) -> ModuleVector:
    return ModuleVector(
        module,
        tuple(rng.normal(size=d) + 1j * rng.normal(size=d) for d in module.fiber_dims),
    )


def is_cyclic(rep: EquivariantRep, vec: ModuleVector, tol: float = DEFAULT_TOL) -> bool:
    """Whether span{(rho(a) v(g) vec) . b} over the algebra basis and group
    exhausts the module (exact integer rank per fiber)."""
    n = rep.module.n_points
    order = rep.system.group.order
    translates = [rep.apply_v(g, vec) for g in range(order)]
    for p in range(n):
        d = rep.module.fiber_dims[p]
        if d == 0:
            continue
        cols = []
        for g in range(order):
            for k in range(n):
                cols.append(rep.rho[k].blocks[p] @ translates[g].components[p])
        if matrix_rank(np.stack(cols, axis=1), tol) < d:
            return False
    return True


def gns_from_pd(multiplier, tol: float = DEFAULT_TOL):
    """Reconstruct an equivariant representation with a cyclic vector whose
    diagonal coefficient reproduces a positive definite multiplier.

    The module is spanned by symbols [g, e_j, e_m] (the would-be vectors
    rho(e_j) v(g) xi . e_m) with gram
    ``<[g,a,b],[g',a',b']> = b* alpha_g(T_{g^{-1}g'}(alpha_g^{-1}(a* a'))) b'``,
    which the equivariance relations force for any realization.  Fiber m
    keeps the symbols with right label e_m; null directions are cut off at
    ``tol * (1 + lambda_max)``.  The construction is validated against the
    coefficient it produces; a residual beyond tolerance raises rather than
    being patched over.
    """
    from .multiplier import coefficient, is_positive_definite, multiplier_distance, pd_criterion_matrix

    cert = is_positive_definite(multiplier, tol)
    if not cert.verdict:
        raise NotPositiveDefiniteError(cert)

    sys_ = multiplier.system
    n = sys_.n_points
    order = sys_.group.order
    act = sys_.action
    S = order * n  # symbols (g, j) per fiber

    def sym(g: int, j: int) -> int:
        return g * n + j

    # fiber-p gram over symbols: delta_{jj'} [alpha_g(T_{g^{-1}g'}(e_{g^{-1}j}))]_p,
    # which is the criterion's kernel matrix at (p, j) on the (g, g') block
    coord, pinv, dims = [], [], []
    for p in range(n):
        G = np.zeros((order, n, order, n), dtype=complex)
        for j in range(n):
            G[:, j, :, j] = pd_criterion_matrix(multiplier, p, j)
        G = G.reshape(S, S)
        G = (G + G.conj().T) / 2
        lam, V = np.linalg.eigh(G)
        cutoff = tol * (1.0 + max(lam.max(), 0.0))
        keep = lam > cutoff
        lk, Vk = lam[keep], V[:, keep]
        dims.append(int(keep.sum()))
        coord.append(np.sqrt(lk)[:, None] * Vk.conj().T)
        pinv.append(Vk / np.sqrt(lk)[None, :])

    mod = SectionalModule(sys_.space, tuple(dims))

    rho = []
    for c in range(n):
        proj = np.zeros(S)
        for g in range(order):
            proj[sym(g, c)] = 1.0
        blocks = tuple(coord[p] @ (proj[:, None] * pinv[p]) for p in range(n))
        rho.append(ModuleOperator(mod, blocks))

    v_mats = []
    for h in range(order):
        P = np.zeros((S, S))
        for g in range(order):
            for j in range(n):
                P[sym(sys_.group.mul(h, g), act.apply(h, j)), sym(g, j)] = 1.0
        per_point = []
        for x in range(n):
            src = act.apply_inv(h, x)
            per_point.append(coord[x] @ P @ pinv[src])
        v_mats.append(tuple(per_point))

    rep = EquivariantRep(sys_, mod, tuple(rho), tuple(v_mats))

    e = sys_.group.identity
    c0 = np.zeros(S, dtype=complex)
    for j in range(n):
        c0[sym(e, j)] = 1.0
    xi = ModuleVector(mod, tuple(coord[p] @ c0 for p in range(n)))

    realized = coefficient(rep, xi, xi)
    gap = multiplier_distance(realized, multiplier)
    scale = 1.0 + max_abs(multiplier.stack)
    # cutting a null direction perturbs the coefficient by at most the
    # cutoff times the symbol count, so allow that much slack over tol
    if gap > S * tol * scale:
        raise ArithmeticError(
            f"reconstruction does not reproduce the multiplier (residual {gap:.3e}); "
            "refusing to return an unvalidated representation"
        )
    return rep, CyclicVector(rep, xi)


def unitarily_equivalent(
    r1: EquivariantRep,
    r2: EquivariantRep,
    tol: float = DEFAULT_TOL,
    attempts: int = 8,
    seed: int = 11,
) -> Optional[list[np.ndarray]]:
    """Per-fiber unitaries intertwining two representations, or None.

    Solves the linear intertwiner equations on the generators of rho and v,
    then projects random null-space elements to the nearest per-fiber unitary
    and keeps a solution that satisfies the equations within tolerance.
    """
    if r1.system != r2.system or r1.module.fiber_dims != r2.module.fiber_dims:
        return None
    sys_ = r1.system
    n = r1.module.n_points
    dims = r1.module.fiber_dims
    var_off = [0]
    for d in dims:
        var_off.append(var_off[-1] + d * d)
    nvars = var_off[-1]
    if nvars == 0:
        return [np.zeros((0, 0), dtype=complex) for _ in range(n)]

    rows = []
    for x in range(n):
        d = dims[x]
        if d == 0:
            continue
        for k in range(n):
            # W_x A - B W_x = 0
            A = r1.rho[k].blocks[x]
            B = r2.rho[k].blocks[x]
            block = np.zeros((d * d, nvars), dtype=complex)
            block[:, var_off[x] : var_off[x + 1]] = np.kron(np.eye(d), A.T) - np.kron(B, np.eye(d))
            rows.append(block)
    for g in range(sys_.group.order):
        for x in range(n):
            y = sys_.action.apply_inv(g, x)
            dx, dy = dims[x], dims[y]
            if dx * dy == 0:
                continue
            U1 = r1.v_mats[g][x]
            U2 = r2.v_mats[g][x]
            block = np.zeros((dx * dy, nvars), dtype=complex)
            block[:, var_off[x] : var_off[x + 1]] += np.kron(np.eye(dx), U1.T)
            block[:, var_off[y] : var_off[y + 1]] -= np.kron(U2, np.eye(dy))
            rows.append(block)
    M = np.concatenate(rows, axis=0) if rows else np.zeros((0, nvars))
    basis = null_space(M, tol)
    if basis.shape[1] == 0:
        return None

    scale = 1.0 + max(
        [max_abs(b) for r in (r1, r2) for op in r.rho for b in op.blocks]
        + [max_abs(u) for r in (r1, r2) for fam in r.v_mats for u in fam],
    )
    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        c = rng.normal(size=basis.shape[1]) + 1j * rng.normal(size=basis.shape[1])
        w = basis @ c
        mats, ok = [], True
        for x in range(n):
            d = dims[x]
            W = w[var_off[x] : var_off[x + 1]].reshape(d, d)
            U = nearest_unitary(W)
            if U is None:
                ok = False
                break
            mats.append(U)
        if not ok:
            continue
        if _intertwiner_residual(r1, r2, mats) <= tol * scale:
            return mats
    return None


def _intertwiner_residual(r1: EquivariantRep, r2: EquivariantRep, mats: Sequence[np.ndarray]) -> float:
    sys_ = r1.system
    n = r1.module.n_points
    src = sys_.action.src
    return max_abs_over(
        [mats[x] @ r1.rho[k].blocks[x] - r2.rho[k].blocks[x] @ mats[x] for x in range(n) for k in range(n)]
        + [
            mats[x] @ r1.v_mats[g][x] - r2.v_mats[g][x] @ mats[src[g, x]]
            for g in range(sys_.group.order)
            for x in range(n)
        ]
    )
