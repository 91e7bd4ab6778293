"""The reduced crossed product of a finite system as a concrete matrix algebra.

The regular covariant representation acts on C^n amplified over the group;
the integrated form of the convolution algebra lands in a matrix algebra of
dimension n * |G| with basis Lambda(e_j . delta_g).  For a finite group the
image of the integrated form is the reduced crossed product, and amenability
collapses the full/reduced distinction, so this one object serves both.
Multipliers act on it through their induced maps, whose complete positivity
is certified by a basis-gram check that splits into independent blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fibers
from .core import DEFAULT_TOL, System, _freeze, _orbit_tables
from .multiplier import Multiplier, PdCertificate
from .numutil import lowest_eigenvector, max_abs, psd_check, scale
from .reporting import CheckReport


class NotInAlgebraError(ValueError):
    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"matrix lies outside the algebra (projection residual {residual:.3e})")


@dataclass(frozen=True, eq=False)
class CovariantRep:
    """A covariant pair on C^dim: pi_mats are the images of the basis
    idempotents, u_mats the group unitaries."""

    system: System
    dim: int
    pi_mats: tuple[np.ndarray, ...]
    u_mats: tuple[np.ndarray, ...]

    def __post_init__(self):
        n = self.system.n_points
        order = self.system.group.order
        if len(self.pi_mats) != n or len(self.u_mats) != order:
            raise ValueError("wrong number of generator matrices")
        pi = tuple(np.asarray(m, dtype=complex).reshape(self.dim, self.dim) for m in self.pi_mats)
        u = tuple(np.asarray(m, dtype=complex).reshape(self.dim, self.dim) for m in self.u_mats)
        object.__setattr__(self, "pi_mats", pi)
        object.__setattr__(self, "u_mats", u)


def verify_covariant(rep: CovariantRep, tol: float = DEFAULT_TOL) -> CheckReport:
    """Residuals of the covariant-pair laws: pi a *-representation of the
    basis idempotents, u a unitary homomorphism, and the covariance
    pi(alpha_g(e_j)) = u(g) pi(e_j) u(g)*, each within ``tol`` times the
    :func:`.numutil.scale` of all pi(e_j) and u(g), the bound it reports.

    A nonzero residual is located at the first pair in loop order attaining
    it: ``pi representation`` at (j, k), for |pi(e_j) pi(e_k) - delta_jk
    pi(e_j)| and, at j = k, |pi(e_j) - pi(e_j)*|, with the unit defect
    |sum_j pi(e_j) - 1| checked after all pairs and located at the first row
    attaining it, as ``row``; ``u unitary homomorphism`` at (g, h), for
    |u(gh) - u(g) u(h)| and, at h = g, |u(g) u(g)* - 1|; ``covariance`` at
    (g, j).

    A pair whose pi(e_j) are 0/1 diagonal matrices and whose u(g) are 0/1
    permutation matrices, such as the regular pair, has its laws computed on
    the diagonal masks and the permutations; the dense products are exact on
    such a pair, so the residuals and locations are the same.  Any other
    pair takes the dense products (:func:`_dense_laws`).  Entries large
    enough to overflow give inf or NaN residuals, which fail, and no
    warning."""
    monomial = _monomial_pair(rep)
    (pairs, unit), hom, cov = _dense_laws(rep) if monomial is None else _index_laws(rep.system, *monomial)
    bound = tol * scale(*rep.pi_mats, *rep.u_mats)
    report = CheckReport()
    if unit.residual > pairs.residual or (math.isnan(unit.residual) and not math.isnan(pairs.residual)):
        report.add("pi representation", unit.residual, bound, unit.where("row"))
    else:
        report.add("pi representation", pairs.residual, bound, pairs.where("j", "k"))
    report.add("u unitary homomorphism", hom.residual, bound, hom.where("g", "h"))
    report.add("covariance", cov.residual, bound, cov.where("g", "j"))
    return report


def _monomial_pair(rep: CovariantRep) -> tuple[np.ndarray, np.ndarray] | None:
    """``(masks, cols)`` when every pi(e_j) is the 0/1 diagonal matrix of
    ``masks[j]`` and every u(g) the 0/1 permutation matrix with its 1 in row
    r at column ``cols[g, r]``; None otherwise.  Each matrix is read exactly
    and on its own."""
    d = rep.dim
    rows = np.arange(d)
    masks = np.zeros((len(rep.pi_mats), d), dtype=bool)
    for j, m in enumerate(rep.pi_mats):
        r, c = np.divmod(np.flatnonzero(m != 0), d)
        if (r != c).any() or (m[r, c] != 1).any():
            return None
        masks[j, r] = True
    cols = np.empty((len(rep.u_mats), d), dtype=np.intp)
    for g, m in enumerate(rep.u_mats):
        r, c = np.divmod(np.flatnonzero(m != 0), d)
        if len(r) != d or (r != rows).any() or (m[r, c] != 1).any() or (np.bincount(c, minlength=d) != 1).any():
            return None
        cols[g] = c
    return masks, cols


def _index_laws(system: System, masks: np.ndarray, cols: np.ndarray):
    """The covariant-pair laws of a pair given by its diagonal masks and
    permutations (see :func:`_monomial_pair`), in the form of
    :func:`_dense_laws`.  On such a pair every difference the dense check
    forms is a matrix of integers: pi(e_j) pi(e_k) is the diagonal of
    masks[j] & masks[k], u(g) u(h) the permutation cols[h][cols[g]], and
    u(g) pi(e_j) u(g)* the diagonal of masks[j][cols[g]].  A difference of
    two distinct 0/1 diagonals or permutation matrices has max |entry| 1,
    the unit defect of a row is |count of masks holding it - 1|, and the
    adjoint and unitarity defects are 0."""
    n, order = system.n_points, system.group.order
    mult, perm = system.group.mult, system.action.perm
    d = masks.shape[1]
    hs = np.arange(order)[None, :, None]

    shared = masks.astype(float) @ masks.T.astype(float) > 0  # [j, k]: some row in both masks
    np.fill_diagonal(shared, False)
    pairs = fibers.Worst()
    pairs.update(shared.astype(float))
    unit = fibers.Worst()
    unit.update(np.abs(masks.sum(axis=0) - 1).astype(float))

    hom = fibers.Worst()
    for lo, hi in fibers.blocks(order, order * d):
        product = cols[hs, cols[lo:hi, None, :]]  # [g, h] = cols[h][cols[g]]
        hom.update((product != cols[mult[lo:hi]]).any(axis=-1).astype(float), lo)

    cov = fibers.Worst()
    for lo, hi in fibers.blocks(order, n * d):
        conj = masks[:, cols[lo:hi]].swapaxes(0, 1)  # [g, j] = masks[j][cols[g]]
        cov.update((masks[perm[lo:hi]] != conj).any(axis=-1).astype(float), lo)
    return (pairs, unit), hom, cov


@np.errstate(over="ignore", invalid="ignore")
def _dense_laws(rep: CovariantRep):
    """The covariant-pair laws from the dense products, as ``((pairs,
    unit), hom, cov)``: :class:`fibers.Worst` over (j, k), the rows of the
    unit defect, (g, h) and (g, j).  The products for one left factor and all
    right factors are one matmul against the right factors laid side by side
    (:func:`fibers.side_by_side`), formed for blocks of left factors of at
    most ``fibers.BLOCK_ELEMENTS`` entries."""
    sys_ = rep.system
    n, order, d = sys_.n_points, sys_.group.order, rep.dim
    mult, perm = sys_.group.mult, sys_.action.perm
    eye = np.eye(d)
    pi, u = np.stack(rep.pi_mats), np.stack(rep.u_mats)
    uh = u.conj().swapaxes(-1, -2)

    unit = fibers.Worst()
    unit.update(np.abs(pi.sum(axis=0) - eye).max(axis=-1, initial=0.0))
    pairs = fibers.Worst()
    pi_right = fibers.side_by_side(pi)
    for lo, hi in fibers.blocks(n, n * d * d):
        at = np.arange(hi - lo)
        prod = (pi[lo:hi] @ pi_right).reshape(hi - lo, d, n, d).transpose(0, 2, 1, 3)  # [j, k]
        prod[at, at + lo] -= pi[lo:hi]
        res = fibers.entry_max(prod)
        adjoint = fibers.entry_max(pi[lo:hi] - pi[lo:hi].conj().swapaxes(-1, -2))
        res[at, at + lo] = np.maximum(res[at, at + lo], adjoint)
        pairs.update(res, lo)

    hom = fibers.Worst()
    u_right = fibers.side_by_side(u)
    for lo, hi in fibers.blocks(order, order * d * d):
        at = np.arange(hi - lo)
        prod = (u[lo:hi] @ u_right).reshape(hi - lo, d, order, d).transpose(0, 2, 1, 3)  # [g, h]
        res = fibers.entry_max(u[mult[lo:hi]] - prod)
        unitary = fibers.entry_max(u[lo:hi] @ uh[lo:hi] - eye)
        res[at, at + lo] = np.maximum(res[at, at + lo], unitary)
        hom.update(res, lo)

    # alpha_g(e_j) = e_{g.j}
    cov = fibers.Worst()
    for lo, hi in fibers.blocks(order, n * d * d):
        left = (u[lo:hi] @ pi_right).reshape(hi - lo, d, n, d).transpose(0, 2, 1, 3)
        conj = (left.reshape(hi - lo, n * d, d) @ uh[lo:hi]).reshape(hi - lo, n, d, d)
        cov.update(fibers.entry_max(pi[perm[lo:hi]] - conj), lo)
    return (pairs, unit), hom, cov


def regular_covariant(system: System) -> CovariantRep:
    """The regular covariant pair built from the diagonal representation of
    C^n on itself: on the group amplification,
    (pi(a) xi)(h) = diag(alpha_h^{-1}(a)) xi(h) and (u(g) xi)(h) = xi(g^{-1}h).
    Row index is h * n + x.  Both are read off index tables: pi(e_j) is the
    diagonal 0/1 mask h.x == j, and u(g) has its 1 in row h * n + x at
    column (g^{-1}h) * n + x."""
    n, group = system.n_points, system.group
    d = n * group.order
    h, x = np.divmod(np.arange(d), n)
    point = system.action.perm.reshape(-1)  # h.x at row h * n + x
    pi = tuple(np.diag((point == j).astype(complex)) for j in range(n))
    # one array per matrix: a single (|G|, D, D) stack raised the peak RSS
    # of a process verifying the sigma_8 pair by about 1 MB
    eye = np.eye(d, dtype=complex)
    u = tuple(eye[cols] for cols in group.mult[group.inverse][:, h] * n + x)
    return CovariantRep(system, d, pi, u)


@dataclass(frozen=True, eq=False)
class ReducedCrossedProduct:
    """Concrete realization with basis b[g * n + j] = Lambda(e_j . delta_g).

    Every basis element is a 0/1 partial monomial matrix, and the algebra is
    closed form: b[g,j] b[h,k] = delta(j, g.k) b[gh, j] and
    b[g,j]^* = b[g^-1, g^-1.j].  These facts are stored as read-only integer
    tables: ``col_map[a, r]`` is the column of the nonzero entry in row r of
    b_a, or -1 where the row is zero; ``mult_index[a, b]`` is the basis index
    of b_a b_b and ``gram_index[a, b]`` that of b_a^* b_b, or -1 where the
    product is zero; ``adjoint_index[a]`` is the index of b_a^*.  No dense
    matrix is held: every operation reads these tables.
    """

    system: System
    col_map: np.ndarray          # (N, D) integer
    mult_index: np.ndarray       # (N, N) integer
    adjoint_index: np.ndarray    # (N,) integer
    gram_index: np.ndarray       # (N, N) integer

    @property
    def dim(self) -> int:
        return self.col_map.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.col_map.shape[1]


def build_reduced(system: System) -> ReducedCrossedProduct:
    """Assemble the reduced crossed product: the row -> column maps of the
    basis and the index tables of products, adjoints and basis products
    b_a^* b_b, all read off the group and action tables.

    The basis b[g,j] = pi(e_j) u(g) is the integrated form of the regular
    covariant pair: row h * n + x of b[g,j] is zero unless h.x = j, and then
    holds its 1 in the column of u(g) there, (g^{-1}h) * n + x.  The tables
    come from the closed forms.  Nothing is checked again: ``FiniteGroup``
    validated the identity, inverses and associativity, and ``GroupAction``
    that every ``perm[g]`` is a permutation and g -> perm[g] a homomorphism,
    which are the relations the pair needs (the pi(e_j) are 0/1 projections
    summing to 1, u a homomorphism, and covariance).  No dense matrix is
    formed.
    """
    n, order = system.n_points, system.group.order
    N = d = n * order
    mult, inv, perm = system.group.mult, system.group.inverse, system.action.perm
    h, x = np.divmod(np.arange(d), n)
    # basis index a = g * n + j over the axes (g, j); row r = h * n + x
    col_map = np.full((order, n, d), -1, dtype=np.intp)
    col_map[:, perm.reshape(-1), np.arange(d)] = mult[inv][:, h] * n + x
    col_map = col_map.reshape(N, d)

    j = np.arange(n)
    # b[g,j] b[h,k] = delta(j, g.k) b[gh, j], over the axes (g, j, h, k)
    mult_index = np.where(
        perm[:, None, None, :] == j[None, :, None, None], mult[:, None, :, None] * n + j[None, :, None, None], -1
    ).reshape(N, N)
    # b[g,j]^* = b[g^-1, g^-1.j]
    adjoint_index = (inv[:, None] * n + perm[inv]).reshape(N)
    gram_index = mult_index[adjoint_index]
    return ReducedCrossedProduct(
        system, _freeze(col_map), _freeze(mult_index), _freeze(adjoint_index), _freeze(gram_index)
    )


def fourier_coefficients(rcp: ReducedCrossedProduct, m: np.ndarray) -> np.ndarray:
    """Recover f with Lambda(f) = m; the conditional expectation onto each
    group coordinate.  The basis supports are disjoint, so the least-squares
    coordinate of b_a is the mean of m over its support.  Raises
    NotInAlgebraError when m is farther than ``DEFAULT_TOL * scale(m)``
    from the span."""
    d = rcp.ambient_dim
    m = np.asarray(m, dtype=complex).reshape(d, d)
    hit = rcp.col_map >= 0
    entries = np.where(hit, m[np.arange(d)[None, :], rcp.col_map], 0.0)
    coords = entries.sum(axis=1) / hit.sum(axis=1)
    a_idx, r_idx = np.nonzero(hit)
    recon = np.zeros((d, d), dtype=complex)
    recon[r_idx, rcp.col_map[a_idx, r_idx]] = coords[a_idx]
    residual = max_abs(m - recon)
    if residual > DEFAULT_TOL * scale(m):
        raise NotInAlgebraError(residual)
    return coords.reshape(rcp.system.group.order, rcp.system.n_points)


def induced_map(rcp: ReducedCrossedProduct, t: Multiplier) -> np.ndarray:
    """Coordinate matrix of Lambda(f) -> Lambda(T . f): block diagonal over
    the group, block g acting on the algebra index by the standard matrix of
    T_g."""
    if t.system != rcp.system:
        raise ValueError("multiplier lives on a different system")
    order, n, _ = t.stack.shape
    phi = np.zeros((order, n, order, n), dtype=complex)
    phi[np.arange(order), :, np.arange(order), :] = t.stack
    return phi.reshape(rcp.dim, rcp.dim)


def _components(size: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Label every node 0..size-1 by the smallest node of its connected
    component under the undirected edges (rows[i], cols[i]).

    Union-find in whole-array steps: compress every node onto its root, then
    hook the larger root of each edge whose ends differ onto the smaller.
    Roots only ever point to smaller roots, so the forest stays acyclic and
    each root is the minimum of its tree.
    """
    parent = np.arange(size)
    while True:
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        pr, pc = parent[rows], parent[cols]
        differ = pr != pc
        if not differ.any():
            return parent
        np.minimum.at(parent, np.maximum(pr[differ], pc[differ]), np.minimum(pr[differ], pc[differ]))


def _cp_entries(rcp: ReducedCrossedProduct, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero pattern of H = [phi(b_a^* b_b)] as (rows, cols, vals)."""
    D = rcp.ambient_dim
    pa, pb = np.nonzero(rcp.gram_index >= 0)
    q = rcp.gram_index[pa, pb]
    c, p = np.nonzero(phi[:, q])
    k, r = np.nonzero((rcp.col_map >= 0)[c])
    rows = pa[p[k]] * D + r
    cols = pb[p[k]] * D + rcp.col_map[c[k], r]
    return rows, cols, phi[c, q[p]][k]


def _component_blocks(
    size: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The diagonal blocks of the size x size matrix with the distinct
    entries (rows, cols, vals), one block per connected component of its
    symmetrized pattern; every entry lies in one of them.

    Returns ``comp``, the component of each index (numbered in order of their
    smallest index), ``offset`` and ``flat``: the block of component c, over
    its indices in increasing order, lies row-major in ``flat`` from
    ``offset[c]``.  Blocks are ordered by size and then by component, so the
    blocks of one size form one contiguous stack.
    """
    _, comp = np.unique(_components(size, rows, cols), return_inverse=True)
    sizes = np.bincount(comp)
    nodes = np.argsort(comp, kind="stable")
    starts = np.cumsum(sizes) - sizes
    local = np.empty(size, dtype=np.intp)
    local[nodes] = np.arange(size) - np.repeat(starts, sizes)
    by_size = np.argsort(sizes, kind="stable")
    area = sizes[by_size] ** 2
    offset = np.empty(len(sizes), dtype=np.intp)
    offset[by_size] = np.cumsum(area) - area
    entry_comp = comp[rows]
    at = local[rows] * sizes[entry_comp]
    at += offset[entry_comp]
    at += local[cols]
    flat = np.zeros(area.sum(), dtype=complex)
    flat[at] = vals
    return comp, offset, flat


def is_completely_positive(
    rcp: ReducedCrossedProduct, phi: np.ndarray, tol: float = DEFAULT_TOL
) -> PdCertificate:
    """Complete positivity of a coordinate map on the algebra.

    Tests the block matrix H = [phi(b_a^* b_b)] over the full basis, each
    block represented in the ambient (faithful) representation, for PSD;
    positivity of [phi(x_i^* x_j)] for arbitrary tuples follows by congruence
    with the coefficient matrix of the x_i in the basis.

    H is assembled sparsely from the exact tables: block (a, b) vanishes
    where b_a^* b_b = 0 and otherwise, with q = gram_index[a, b], holds
    phi[c, q] at (r, col_map[c, r]) for each basis element c and row r of
    its support.  Ordering the index set by the connected components of the
    symmetrized nonzero pattern is a permutation that makes H block
    diagonal, so H is PSD exactly when every component block is; the blocks
    of one size go through one :func:`numutil.psd_check` with the scale of
    the whole matrix.  Entries outside the blocks are zero on both sides, so
    the scale, the Hermitian defect and the verdict are those of the dense
    matrix.  On failure the lowest eigenvector of the block with the smallest
    eigenvalue (one ``eigh``) is returned embedded in the N * D index space.
    A non-finite ``phi`` raises ValueError naming its first such entry.
    """
    N = rcp.dim
    D = rcp.ambient_dim
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (N, N):
        raise ValueError(f"coordinate map must be {N} x {N}")
    if not np.isfinite(phi).all():
        raise ValueError(f"coordinate map entry {np.argwhere(~np.isfinite(phi))[0].tolist()} is not finite")

    # the entry lists live only inside the two helpers, so they are freed
    # before the eigensolves
    comp, offset, flat = _component_blocks(N * D, *_cp_entries(rcp, phi))
    sizes = np.bincount(comp)

    matrix_scale = scale(flat)
    verdict, hd, lam_min, worst = True, 0.0, None, None
    # components of one size are one contiguous stack: a single batched check
    for s in np.unique(sizes):
        members = np.flatnonzero(sizes == s)
        start = offset[members[0]]
        blocks = flat[start : start + len(members) * s * s].reshape(len(members), s, s)
        _, passed, lam, defect = psd_check(blocks, matrix_scale, tol)
        verdict &= bool(passed.all())
        hd = max(hd, float(defect.max()))
        i = int(np.argmin(lam))
        if worst is None or lam[i] < lam_min:
            lam_min, worst = float(lam[i]), (members[i], blocks[i])

    eigenvector = None
    if not verdict:
        eigenvector = np.zeros(N * D, dtype=complex)
        eigenvector[comp == worst[0]] = lowest_eigenvector(worst[1])
    return PdCertificate(
        verdict=bool(verdict),
        min_eigenvalue=lam_min,
        hermitian_defect=float(hd),
        eigenvector=eigenvector,
    )


def center_dimension(rcp: ReducedCrossedProduct) -> int:
    """Dimension of the center, counted from the group and action tables.

    C(X) x| G is the direct sum over the orbits O of M_|O|(C*(G_x)) for any
    x in O (Green's imprimitivity), and the center of the group algebra of
    the stabilizer G_x has one dimension per conjugacy class of G_x.  So the
    dimension is the sum over the orbits of the number of classes of a point
    stabilizer.  Each orbit is represented by its smallest point, and each
    class by its smallest element: k is one when no h k h^-1 (h in G_x) is
    smaller."""
    group, perm = rcp.system.group, rcp.system.action.perm
    total = 0
    for x in _orbit_tables(rcp.system.action)[0]:
        stab = np.flatnonzero(perm[:, x] == x)
        conj = group.mult[group.mult[stab[:, None], stab], group.inverse[stab][:, None]]  # [h, k] = h k h^-1
        total += int((conj.min(axis=0) == stab).sum())
    return total


def is_commutative(rcp: ReducedCrossedProduct) -> bool:
    """Whether every two basis elements commute.  A product of two basis
    elements is a basis element or 0, so the algebra is commutative exactly
    when ``mult_index`` is symmetric."""
    return bool(np.array_equal(rcp.mult_index, rcp.mult_index.T))
