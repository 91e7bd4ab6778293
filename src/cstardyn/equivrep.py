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
from .core import DEFAULT_TOL, FiniteSpace, GroupAction, System, _freeze
from .hilbmod import (
    ModuleVector,
    SectionalModule,
    _check_projection_rep,
    direct_sum,
    internal_tensor,
    module_action,
    random_vector,
    trivial_module,
)
from .numutil import gram_quotient, matrix_rank, scale
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

    ``rho`` may be given as nested per-(k, x) blocks or as the padded stack,
    and ``v_mats`` as nested per-(g, x) sequences or as the padded stack.
    The stacks are the only store of the matrices: ``v_mats[g][x]`` are
    read-only views of ``v_stack``, built on first read and kept.
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
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "rho_stack", fibers.stack(rho, dims, np.broadcast_to(dims, (n, n))))
        object.__setattr__(self, "v_stack", fibers.stack(v_mats, dims, np.take(dims, system.action.src)))
        object.__setattr__(self, "regular_base", regular_base)

    @cached_property
    def v_mats(self) -> tuple[tuple[np.ndarray, ...], ...]:
        return fibers.fiber_views(self.system.action, self.module.fiber_dims, self.v_stack)

    def apply_v(self, g: int, vec: ModuleVector) -> ModuleVector:
        if vec.module != self.module:
            raise ValueError("vector lives on a different module")
        moved = (self.v_stack[g] @ vec.stack[self.system.action.src[g], :, None])[..., 0]
        # rows past a fiber are zero rows of v times the vector: NaN where it is not finite
        return ModuleVector(self.module, _freeze(np.where(fibers.fiber_mask(self.module.fiber_dims), moved, 0)))


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
    indices, computed on the padded stacks in blocks (see :mod:`.fibers`),
    against the bound ``tol * scale(rho_stack, v_stack)``; every check but
    relation (iii) and v(e) = id also reports where its largest residual
    sits.  Relation (iii) is exact in the stored normal form, so its
    residual is 0 for a finite v and NaN (reported as inf) otherwise.
    Failures are reported, never raised: entries large enough to overflow
    give inf residuals, which fail, and no warning.
    """
    report = CheckReport()
    action = rep.system.action
    n, order = rep.module.n_points, action.group.order
    dims = rep.module.fiber_dims
    src, points = action.src, np.arange(n)
    v, r = rep.v_stack, rep.rho_stack
    d = v.shape[-1]
    eye = fibers.padded_identity(dims)
    bound = tol * scale(r, v)

    worst = fibers.Worst()
    worst.update(fibers.entry_max(r.sum(axis=0) - eye))
    report.add("rho unital", worst.residual, bound, worst.where("x"))

    worst = fibers.Worst()
    for lo, hi in fibers.blocks(n, n * n * d * d):
        prod = r[lo:hi, None] @ r[None]  # rho(e_k) rho(e_l) per fiber
        prod[np.arange(hi - lo), np.arange(lo, hi)] -= r[lo:hi]
        worst.update_max(np.abs(prod), lo)
    report.add("rho multiplicative", worst.residual, bound, worst.where("k", "l", "x"))

    worst = fibers.Worst()
    worst.update(fibers.entry_max(r - r.conj().swapaxes(-1, -2)))
    report.add("rho self-adjoint", worst.residual, bound, worst.where("k", "x"))

    # relation (i): rho(alpha_g(e_k)) v(g) = v(g) rho(e_k), per fiber
    worst = fibers.Worst()
    for lo, hi in fibers.blocks(order, n * n * d * d):
        gs = np.arange(lo, hi)
        vg = v[gs][:, None]
        lhs = r[action.perm[gs]] @ vg
        rhs = vg @ r[points[None, :, None], src[gs][:, None, :]]
        worst.update_max(np.abs(lhs - rhs), lo)
    report.add("relation (i) covariance", worst.residual, bound, worst.where("g", "k", "x"))

    # relation (ii) is equivalent to every matrix of v being unitary
    unitary, hom, identity = fibers.group_law(action, dims, v)
    report.add("relation (ii) inner products", unitary[0], bound, unitary[1])

    # relation (iii), v(g)(xi . a) = (v(g) xi) . alpha_g(a), holds exactly
    # for v in normal form: both sides move the component at g^{-1}x to x.
    # Only a non-finite entry of v breaks it, through 0 * inf or inf - inf
    report.add("relation (iii) module action", 0.0 if np.isfinite(v).all() else np.nan, bound)

    report.add("v(e) identity", identity, bound)
    report.add("v homomorphism", hom[0], bound, hom[1])

    # |v(g) e_(y,i)| = 1: the norm of column i of v[g][x] for real columns of
    # fiber g^{-1}x = y
    norms = np.sqrt((np.abs(v) ** 2).sum(axis=-2))
    worst = fibers.Worst()
    worst.update(np.where(fibers.fiber_mask(dims)[src], np.abs(norms - 1.0), 0.0))
    report.add("v isometric", worst.residual, bound, worst.where("g", "x", "i"))
    return report


def trivial_rep(system: System) -> EquivariantRep:
    """(multiplication, alpha) on C^n over itself: every fiber is a line and
    v permutes the lines according to the action."""
    n = system.n_points
    rho = np.eye(n, dtype=complex)[:, :, None, None]  # rho(e_k) is 1 on the line at k
    return EquivariantRep(system, trivial_module(system.space), rho, np.ones((system.group.order, n, 1, 1)))


def regular_rep(rep: EquivariantRep) -> EquivariantRep:
    """The group-indexed amplification: module = direct sum of one copy of the
    original module per group element, rho acting slotwise and
    (v(g) xi)(h) = v(g) xi(g^{-1}h)."""
    sys_ = rep.system
    group, n = sys_.group, sys_.n_points
    rows, dims = _slot_rows(rep.module.fiber_dims, group.order)
    dmax = max(dims)
    k, x = np.arange(n)[:, None, None, None, None], np.arange(n)[:, None, None, None]
    rho = fibers.scatter((n, n, dmax, dmax), [((k, x, rows[..., None], rows[..., None, :]), rep.rho_stack[:, :, None])])
    # v(g) at fiber x puts v[g][x] at the block (slot h, slot g^{-1}h)
    cols = rows[sys_.action.src[:, :, None], group.mult[group.inverse][:, None, :]]  # (g, x, h, j)
    g = np.arange(group.order)[:, None, None, None, None]
    index = (g, x, rows[..., None], cols[..., None, :])
    v = fibers.scatter((group.order, n, dmax, dmax), [(index, rep.v_stack[:, :, None])])
    return EquivariantRep(sys_, SectionalModule(rep.module.space, dims), rho, v, regular_base=rep.module)


def _slot_rows(dims: Sequence[int], order: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """:func:`.fibers.block_rows` of the group-amplified module, whose fiber x
    is ``order`` slots h, each a copy of the base fiber x."""
    return fibers.block_rows(np.repeat(np.asarray(dims)[:, None], order, axis=1))


def _rows_of_slots(regular: EquivariantRep, slots) -> np.ndarray:
    """The rows (x, slot, i) of the given slots of a regular-type module,
    each slot checked to be a group element."""
    if regular.regular_base is None:
        raise ValueError("representation does not carry a slot structure")
    order = regular.system.group.order
    slots = np.fromiter(slots, dtype=int)
    if ((slots < 0) | (slots >= order)).any():
        raise ValueError(f"slots {slots.tolist()} are not all in [0, {order})")
    return _slot_rows(regular.regular_base.fiber_dims, order)[0][:, slots]


def _in_slots(regular: EquivariantRep, slots, vec: ModuleVector) -> ModuleVector:
    """The base-module vector ``vec`` placed into each of ``slots`` of a
    regular-type module."""
    rows = _rows_of_slots(regular, slots)
    if vec.module != regular.regular_base:
        raise ValueError("vector must live on the base module")
    n = regular.module.n_points
    put = ((np.arange(n)[:, None, None], rows), vec.stack[:, None])
    return ModuleVector(regular.module, fibers.scatter((n, max(regular.module.fiber_dims)), [put]))


def slot_embed(regular: EquivariantRep, h: int, vec: ModuleVector) -> ModuleVector:
    """Place a base-module vector into slot h of a regular-type module."""
    return _in_slots(regular, [h], vec)


def slot_restrict(regular: EquivariantRep, vec: ModuleVector, slots: Sequence[int]) -> ModuleVector:
    """Zero every group-indexed slot outside ``slots``."""
    rows = _rows_of_slots(regular, slots)
    if vec.module != regular.module:
        raise ValueError("vector must live on the regular module")
    keep = fibers.scatter(vec.stack.shape, [((np.arange(len(rows))[:, None, None], rows), 1.0)])
    return ModuleVector(regular.module, _freeze(np.where(keep != 0, vec.stack, 0)))


def direct_sum_reps(reps: Sequence[EquivariantRep]) -> EquivariantRep:
    mod = direct_sum([r.module for r in reps])
    sys_ = reps[0].system
    if any(r.system != sys_ for r in reps):
        raise ValueError("summands must share the system")
    n, order, src = sys_.n_points, sys_.group.order, sys_.action.src
    rows = fibers.block_rows(np.array([r.module.fiber_dims for r in reps]).T)[0]  # summand b at rows[x, b]
    dmax = max(mod.fiber_dims)
    k, g, x = np.arange(n)[:, None, None, None], np.arange(order)[:, None, None, None], np.arange(n)[:, None, None]
    rho_puts, v_puts = [], []
    for b, r in enumerate(reps):
        at = rows[:, b, : r.v_stack.shape[-1]]
        rho_puts.append(((k, x, at[:, :, None], at[:, None, :]), r.rho_stack))
        v_puts.append(((g, x, at[:, :, None], at[src][:, :, None, :]), r.v_stack))
    rho = fibers.scatter((n, n, dmax, dmax), rho_puts)
    v = fibers.scatter((order, n, dmax, dmax), v_puts)
    return EquivariantRep(sys_, mod, rho, v)


def tensor_rep(r1: EquivariantRep, r2: EquivariantRep):
    """The tensor product representation on the internal tensor product of the
    modules: rho acts on the left factor, v acts diagonally.

    In the coordinates (p, l, a) of :class:`.hilbmod.TensorProduct`, rho(e_k)
    at fiber m is the direct sum over p of rho1(e_k)_p (x) 1, and v(g) maps
    the block (g^{-1}p, g^{-1}m) to the block (p, m) by
    v1(g)_p (x) c(p, m) v2(g)_m c'(g^{-1}p, g^{-1}m), c and c' quotient maps.

    Returns ``(rep, tensor_product)`` so callers can embed simple tensors.
    Raises ValueError naming the point where either rho is not a family of
    orthogonal projections.
    """
    if r1.system != r2.system:
        raise ValueError("tensor factors must share the system")
    sys_ = r1.system
    _check_projection_rep(r1.rho_stack, r1.module.fiber_dims)
    tp = internal_tensor(r1.module, r2.rho_stack, r2.module)
    n, order, src = sys_.n_points, sys_.group.order, sys_.action.src
    dmax = max(tp.module.fiber_dims)

    # the blocks (p, m) of nonzero rank; a block of rank 0 is all padding
    # rows in tp.rows and zeros in tp.piece_pinv, so it reads as a source
    p, m = np.nonzero(tp.piece_coord.any(axis=(2, 3)))
    rows = tp.rows[p, m]

    k = np.arange(n)[:, None, None, None, None]
    rho = fibers.scatter(
        (n, n, dmax, dmax),
        [((k, m[:, None, None, None], rows[:, :, None], rows[:, None, :]), r1.rho_stack[:, p, :, :, None])],
    )

    # v(g) maps block (src[g, p], src[g, m]) to block (p, m), formed for
    # blocks of g of at most fibers.BLOCK_ELEMENTS entries
    def v_puts():
        for lo, hi in fibers.blocks(order, len(p) * tp.rows[0, 0].size ** 2):
            sp, sm = src[lo:hi, p], src[lo:hi, m]  # (g, block)
            c = tp.piece_coord[p, m] @ r2.v_stack[lo:hi, m] @ tp.piece_pinv[sp, sm]  # (g, block, a, b)
            g = np.arange(lo, hi)[:, None, None, None, None, None]
            index = (g, m[:, None, None, None, None], rows[:, :, :, None, None], tp.rows[sp, sm][:, :, None, None])
            yield index, r1.v_stack[lo:hi, p][:, :, :, None, :, None] * c[:, :, None, :, None, :]

    v = fibers.scatter((order, n, dmax, dmax), v_puts())
    rep = EquivariantRep(sys_, tp.module, rho, v)
    return rep, tp


def fell_absorption_unitary(rep: EquivariantRep):
    """The absorption unitary W from (module tensor group-amplified algebra)
    onto the group-amplified module, W(x (x) xi)(g) = x . xi(g).

    Returns ``(w_blocks, report, tensor_rep_pair, regular)`` where
    ``w_blocks[x]`` maps tensor fiber x onto the amplified fiber x.  The
    report covers isometry, surjectivity, linearity over the algebra and both
    intertwining relations, each located where its largest residual first
    sits: at ``x`` (``k, x`` for rho, ``g, x`` for v).  Each check's bound is
    ``DEFAULT_TOL`` times the :func:`.numutil.scale` of ``rep``'s stacks.
    """
    sys_ = rep.system
    n = rep.module.n_points
    areg = regular_rep(trivial_rep(sys_))
    trep, tp = tensor_rep(rep, areg)
    reg = regular_rep(rep)

    # W at fiber x sends the class of e_(x,l) (x) e_(x,a) to slot a, row l: row
    # a * d_x + l of W is piece_pinv[x, x, a] at the columns rows[x, x, l] of
    # the tensor fiber
    dt, dr = trep.module.fiber_dims, reg.module.fiber_dims
    row = _slot_rows(rep.module.fiber_dims, sys_.group.order)[0]  # (x, a, l)
    x = np.arange(n)
    put = ((x[:, None, None, None], row[..., None], tp.rows[x, x][:, None]), tp.piece_pinv[x, x][:, :, None])
    w = fibers.scatter((n, max(dr), max(dt)), [put])
    w_blocks = [w[y, : dr[y], : dt[y]] for y in range(n)]

    report = CheckReport()
    bound = DEFAULT_TOL * scale(rep.rho_stack, rep.v_stack)

    def add(name, residuals, *keys):
        worst = fibers.Worst()
        worst.update(residuals)
        report.add(name, worst.residual, bound, worst.where(*keys))

    wh = w.conj().swapaxes(-1, -2)
    add("isometry", fibers.entry_max(wh @ w - fibers.padded_identity(dt)), "x")
    add("surjectivity", fibers.entry_max(w @ wh - fibers.padded_identity(dr)), "x")
    report.add("dimension match", float(abs(trep.module.total_dim - reg.module.total_dim)), 0.5)
    add("intertwines rho", fibers.intertwining_residual(w, trep.rho_stack, reg.rho_stack), "k", "x")
    add("intertwines v", fibers.intertwining_residual(w, trep.v_stack, reg.v_stack, sys_.action.src), "g", "x")

    # A-linearity of W on a seeded spanning sample of simple tensors
    rng = np.random.default_rng(7)
    diffs = []
    for _ in range(4):
        x1 = random_vector(rep.module, rng)
        x2 = random_vector(areg.module, rng)
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        lhs, rhs = ((w @ tp.embed(x1, y).stack[..., None])[..., 0] for y in (module_action(x2, c), x2))
        diffs.append(np.abs(lhs - c[:, None] * rhs).max(axis=-1, initial=0.0))
    add("algebra linearity", np.max(diffs, axis=0), "x")
    return w_blocks, report, (trep, tp), reg


def is_cyclic(rep: EquivariantRep, vec: ModuleVector) -> bool:
    """Whether span{(rho(a) v(g) vec) . b} over the algebra basis and group
    exhausts the module (exact integer rank per fiber)."""
    translates = np.stack([rep.apply_v(g, vec).stack for g in range(rep.system.group.order)])
    cols = np.einsum("kpij,gpj->pigk", rep.rho_stack, translates).reshape(translates.shape[1:] + (-1,))
    return bool((matrix_rank(cols, DEFAULT_TOL) >= rep.module.fiber_dims).all())


def gns_from_pd(multiplier):
    """Reconstruct an equivariant representation with a cyclic vector whose
    diagonal coefficient reproduces a positive definite multiplier.

    The module is spanned by symbols [g, e_j, e_m] (the would-be vectors
    rho(e_j) v(g) xi . e_m) with gram
    ``<[g,a,b],[g',a',b']> = b* alpha_g(T_{g^{-1}g'}(alpha_g^{-1}(a* a'))) b'``,
    which the equivariance relations force for any realization.  Fiber p
    keeps the symbols with right label e_p, ordered (j, g); their gram is
    block diagonal, block j the criterion's kernel matrix at (p, j), and all
    n^2 blocks are quotiented in one call, with the cutoff of each fiber's
    gram (:func:`.numutil.gram_quotient`).
    So rho(e_j) is the 0/1 projection onto block j, and v(h) maps block j of
    fiber h^{-1}x to block h.j of fiber x by c(x, h.j) L_h c'(h^{-1}x, j), c
    and c' quotient maps and L_h the left translation of the symbols' g.
    The construction is validated against the coefficient it produces; a
    residual beyond tolerance raises rather than being patched over.
    """
    from .multiplier import _kernel_matrices, coefficient, is_positive_definite, multiplier_distance

    cert = is_positive_definite(multiplier)
    if not cert.verdict:
        raise NotPositiveDefiniteError(cert)

    sys_ = multiplier.system
    n, order, mult = sys_.n_points, sys_.group.order, sys_.group.mult
    perm, src, points = sys_.action.perm, sys_.action.src, np.arange(n)

    p, j = np.divmod(np.arange(n * n), n)
    kernels = _kernel_matrices(sys_, multiplier.stack[None], np.zeros_like(p), p, j).reshape(n, n, order, order)
    coord, pinv, ranks = gram_quotient(kernels, order)  # coord[p, j, a, g], pinv[p, j, g, a]
    rows, dims = fibers.block_rows(ranks)  # rows[p, j, a]: the coordinate of (j, a) in fiber p
    rmax, dmax = coord.shape[2], max(dims)

    rho = fibers.scatter((n, n, dmax, dmax), [((points[None, :, None], points[:, None, None], rows, rows), 1.0)])

    def v_puts():
        x = points[:, None]
        for lo, hi in fibers.blocks(order, n * n * order * max(rmax, 1)):
            h, hj, y = np.arange(lo, hi)[:, None, None], perm[lo:hi, None, :], src[lo:hi, :, None]  # over [h, x, j]
            # c(x, h.j) L_h as [h, x, j, g, a] = c(x, h.j)[a, hg], times c'(h^{-1}x, j)
            block = coord[x[..., None], hj[..., None], :, mult[lo:hi, None, None, :]].swapaxes(-1, -2) @ pinv[y, points]
            yield (h[..., None, None], x[..., None, None], rows[x, hj][..., None], rows[y, points][..., None, :]), block

    v = fibers.scatter((order, n, dmax, dmax), v_puts())
    rep = EquivariantRep(sys_, SectionalModule(sys_.space, dims), rho, v)

    xi = fibers.scatter((n, dmax), [((points[:, None, None], rows), coord[..., sys_.group.identity])])
    xi = ModuleVector(rep.module, xi)

    realized = coefficient(rep, xi, xi)
    gap = multiplier_distance(realized, multiplier)
    # cutting a null direction perturbs the coefficient by at most the
    # cutoff times the symbol count, so allow that much slack over tol
    if gap > order * n * DEFAULT_TOL * scale(multiplier.stack):
        raise ArithmeticError(
            f"reconstruction does not reproduce the multiplier (residual {gap:.3e}); "
            "refusing to return an unvalidated representation"
        )
    return rep, CyclicVector(rep, xi)


def unitarily_equivalent(r1: EquivariantRep, r2: EquivariantRep) -> Optional[list[np.ndarray]]:
    """Per-fiber unitaries W_x with W_x rho1(e_k)_x = rho2(e_k)_x W_x and
    W_x v1(g)_x = v2(g)_x W_{g^{-1}x}, or None.

    Decided as cocycle equivalence over point pairs.  By relation (i), v(g)
    maps the range H_{g^{-1}x, g^{-1}k} of rho(e_{g^{-1}k}) in fiber g^{-1}x
    onto H_{x,k}.  So in orthonormal bases B(x, k) of these pieces,
    u(g)_{x*n+k} = B(x,k)* v(g)_x B(g^{-1}x, g^{-1}k) is a cocycle over the
    diagonal action on pairs (x, k), and the representations are equivalent
    exactly when these cocycles are: piece ranks that differ give different
    fibers, hence None.  :func:`.cocycle.cocycle_equivalent` finds U, and
    W_x = sum_k B2(x,k) U(x*n+k) B1(x,k)* is returned if its intertwining
    residual is at most ``DEFAULT_TOL`` times the :func:`.numutil.scale` of
    the four stacks.  Raises ValueError naming the point where a rho is not a
    family of orthogonal projections.
    """
    from .cocycle import CocycleRep, cocycle_equivalent

    if r1.system != r2.system or r1.module.fiber_dims != r2.module.fiber_dims:
        return None
    sys_ = r1.system
    n, order, perm = sys_.n_points, sys_.group.order, sys_.action.perm
    dims, d = r1.module.fiber_dims, max(r1.module.fiber_dims)
    pairs = GroupAction(sys_.group, FiniteSpace(n * n), (perm[:, :, None] * n + perm[:, None, :]).reshape(order, -1))
    split = []
    for rep in (r1, r2):
        _check_projection_rep(rep.rho_stack, dims)
        # the pieces of fiber x are the ranges of rho(e_k) at x: group x, block k
        _, b, ranks = gram_quotient(rep.rho_stack.swapaxes(0, 1), np.asarray(dims)[:, None])
        r = b.shape[-1]
        b = b.reshape(n * n, d, r)  # b[x*n + k]: B(x, k), zero padded
        bh = b.conj().swapaxes(-1, -2).reshape(n, n, r, d)
        u = (bh @ rep.v_stack[:, :, None]).reshape(order, n * n, r, d) @ b[pairs.src]
        split.append((b, CocycleRep(pairs, SectionalModule(pairs.space, ranks.ravel()), u)))
    (b1, c1), (b2, c2) = split
    mats = cocycle_equivalent(c1, c2)
    if mats is None:
        return None
    u = fibers.stack([mats], c1.module.fiber_dims, np.array([c1.module.fiber_dims]))[0]
    w = (b2 @ u @ b1.conj().swapaxes(-1, -2)).reshape(n, n, d, d).sum(axis=1)
    w = [w[x, :dx, :dx] for x, dx in enumerate(dims)]
    bound = DEFAULT_TOL * scale(r1.rho_stack, r1.v_stack, r2.rho_stack, r2.v_stack)
    return w if _intertwiner_residual(r1, r2, w) <= bound else None


def _intertwiner_residual(r1: EquivariantRep, r2: EquivariantRep, mats: Sequence[np.ndarray]) -> float:
    """max |W rho1(e_k) - rho2(e_k) W| and |W_x v1(g)_x - v2(g)_x W_{g^{-1}x}|
    over all k, g and x, on the padded stacks; NaN propagates."""
    dims, src = r1.module.fiber_dims, r1.system.action.src
    w = fibers.stack([mats], dims, np.array([dims]))[0]
    rho = fibers.intertwining_residual(w, r1.rho_stack, r2.rho_stack)
    v = fibers.intertwining_residual(w, r1.v_stack, r2.v_stack, src)
    return float(np.concatenate([rho, v]).max(initial=0.0))
