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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fibers
from .core import DEFAULT_TOL, System, _freeze, act_on_algebra
from .multiplier import Multiplier, PdCertificate
from .numutil import max_abs
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

    def pi(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=complex).reshape(self.system.n_points)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for j, m in enumerate(self.pi_mats):
            out += a[j] * m
        return out


@np.errstate(over="ignore", invalid="ignore")
def verify_covariant(rep: CovariantRep, tol: float = DEFAULT_TOL) -> CheckReport:
    """Residuals of the covariant-pair laws: pi a *-representation of the
    basis idempotents, u a unitary homomorphism, and the covariance
    pi(alpha_g(e_j)) = u(g) pi(e_j) u(g)*.  The products for one left factor
    and all right factors are one matmul against the right factors laid side
    by side, formed for blocks of left factors of at most
    ``fibers.BLOCK_ELEMENTS`` entries.  A nonzero covariance residual is
    located at the first (g, j) in loop order attaining it.  Entries large
    enough to overflow give inf or NaN residuals, which fail, and no
    warning."""
    report = CheckReport()
    sys_ = rep.system
    n, order, d = sys_.n_points, sys_.group.order, rep.dim
    mult, perm = sys_.group.mult, sys_.action.perm
    eye = np.eye(d)
    pi, u = np.stack(rep.pi_mats), np.stack(rep.u_mats)
    uh = u.conj().swapaxes(-1, -2)
    side_by_side = lambda m: m.transpose(1, 0, 2).reshape(d, -1)  # noqa: E731

    worst = fibers.Worst()
    worst.update(fibers.entry_max(pi.sum(axis=0) - eye)[None])
    worst.update(fibers.entry_max(pi - pi.conj().swapaxes(-1, -2)))
    pi_right = side_by_side(pi)
    for lo, hi in fibers.blocks(n, n * d * d):
        prod = (pi[lo:hi] @ pi_right).reshape(hi - lo, d, n, d).transpose(0, 2, 1, 3)
        prod[np.arange(hi - lo), np.arange(lo, hi)] -= pi[lo:hi]
        worst.update(fibers.entry_max(prod))
    report.add("pi representation", worst.residual, tol)

    worst = fibers.Worst()
    worst.update(fibers.entry_max(u @ uh - eye))
    u_right = side_by_side(u)
    for lo, hi in fibers.blocks(order, order * d * d):
        prod = (u[lo:hi] @ u_right).reshape(hi - lo, d, order, d).transpose(0, 2, 1, 3)
        worst.update(fibers.entry_max(u[mult[lo:hi]] - prod))
    report.add("u unitary homomorphism", worst.residual, tol)

    # alpha_g(e_j) = e_{g.j}
    worst = fibers.Worst()
    for lo, hi in fibers.blocks(order, n * d * d):
        left = (u[lo:hi] @ pi_right).reshape(hi - lo, d, n, d).transpose(0, 2, 1, 3)
        conj = (left.reshape(hi - lo, n * d, d) @ uh[lo:hi]).reshape(hi - lo, n, d, d)
        worst.update(fibers.entry_max(pi[perm[lo:hi]] - conj), lo)
    report.add("covariance", worst.residual, tol, worst.where("g", "j"))
    return report


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


def convolve(system: System, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """(f1 * f2)(g) = sum_h f1(h) alpha_h(f2(h^{-1} g)); functions are arrays
    of shape (|G|, n)."""
    order, n = system.group.order, system.n_points
    f1 = np.asarray(f1, dtype=complex).reshape(order, n)
    f2 = np.asarray(f2, dtype=complex).reshape(order, n)
    out = np.zeros((order, n), dtype=complex)
    for g in range(order):
        for h in range(order):
            out[g] += f1[h] * act_on_algebra(system.action, h, f2[system.group.mul(system.group.inv(h), g)])
    return out


def involution(system: System, f: np.ndarray) -> np.ndarray:
    """f*(g) = alpha_g(f(g^{-1}))^* (conjugation on C^n)."""
    order, n = system.group.order, system.n_points
    f = np.asarray(f, dtype=complex).reshape(order, n)
    out = np.zeros((order, n), dtype=complex)
    for g in range(order):
        out[g] = act_on_algebra(system.action, g, f[system.group.inv(g)]).conj()
    return out


def delta_function(system: System, g: int, a: np.ndarray) -> np.ndarray:
    """The finitely supported function a . delta_g."""
    out = np.zeros((system.group.order, system.n_points), dtype=complex)
    out[g] = np.asarray(a, dtype=complex)
    return out


def integrated_form(rep: CovariantRep, f: np.ndarray) -> np.ndarray:
    """Lambda(f) = sum_g pi(f(g)) u(g)."""
    sys_ = rep.system
    f = np.asarray(f, dtype=complex).reshape(sys_.group.order, sys_.n_points)
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for g in sys_.group.elements():
        if f[g].any():  # a zero coefficient adds an exact zero
            out += rep.pi(f[g]) @ rep.u_mats[g]
    return out


@dataclass(frozen=True, eq=False)
class ReducedCrossedProduct:
    """Concrete realization with basis b[g * n + j] = Lambda(e_j . delta_g).

    Every basis element is a 0/1 partial monomial matrix, and the algebra is
    closed form: b[g,j] b[h,k] = delta(j, g.k) b[gh, j] and
    b[g,j]^* = b[g^-1, g^-1.j].  These facts are stored as read-only integer
    tables: ``col_map[a, r]`` is the column of the nonzero entry in row r of
    b_a, or -1 where the row is zero; ``mult_index[a, b]`` is the basis index
    of b_a b_b and ``gram_index[a, b]`` that of b_a^* b_b, or -1 where the
    product is zero; ``adjoint_index[a]`` is the index of b_a^*.

    The dense views are derived when first read and are read-only: ``rep``
    is the regular covariant pair (:func:`regular_covariant`), ``basis``
    (N, D, D) holds the matrices b_a, ``mult_table[a, b]`` the one-hot
    coordinates of b_a b_b, ``adjoint_table[a]`` those of b_a^* and
    ``gram_coords[a, b]`` those of b_a^* b_b.
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

    @cached_property
    def rep(self) -> CovariantRep:
        return regular_covariant(self.system)

    @cached_property
    def basis(self) -> np.ndarray:
        N, d = self.col_map.shape
        out = np.zeros((N, d, d), dtype=complex)
        a, r = np.nonzero(self.col_map >= 0)
        out[a, r, self.col_map[a, r]] = 1.0
        return _freeze(out)

    @cached_property
    def mult_table(self) -> np.ndarray:
        return _freeze(_one_hot(self.mult_index, self.dim))

    @cached_property
    def adjoint_table(self) -> np.ndarray:
        return _freeze(_one_hot(self.adjoint_index, self.dim))

    @cached_property
    def gram_coords(self) -> np.ndarray:
        return _freeze(_one_hot(self.gram_index, self.dim))

    def index(self, g: int, j: int) -> int:
        return g * self.system.n_points + j

    def from_coords(self, coords: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(coords, dtype=complex), self.basis, axes=1)


def _one_hot(index: np.ndarray, size: int) -> np.ndarray:
    """Coordinates of the basis elements named by index; zero where it is -1."""
    out = np.zeros(index.shape + (size,), dtype=complex)
    hit = index >= 0
    out[hit, index[hit]] = 1.0
    return out


def build_reduced(system: System, tol: float = DEFAULT_TOL) -> ReducedCrossedProduct:
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
    formed; see :class:`ReducedCrossedProduct` for the views derived on
    demand.  ``tol`` is accepted for signature compatibility; nothing here
    rounds.
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


def fourier_coefficients(rcp: ReducedCrossedProduct, m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Recover f with Lambda(f) = m; the conditional expectation onto each
    group coordinate.  The basis supports are disjoint, so the least-squares
    coordinate of b_a is the mean of m over its support.  Raises
    NotInAlgebraError when the matrix does not lie in the span."""
    d = rcp.ambient_dim
    m = np.asarray(m, dtype=complex).reshape(d, d)
    hit = rcp.col_map >= 0
    entries = np.where(hit, m[np.arange(d)[None, :], rcp.col_map], 0.0)
    coords = entries.sum(axis=1) / hit.sum(axis=1)
    a_idx, r_idx = np.nonzero(hit)
    recon = np.zeros((d, d), dtype=complex)
    recon[r_idx, rcp.col_map[a_idx, r_idx]] = coords[a_idx]
    residual = max_abs(m - recon)
    if residual > tol * (1.0 + max_abs(m)):
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
    of one size go through one batched ``eigh``.  Entries outside the blocks
    are zero on both sides, so the scale, the Hermitian defect and the
    verdict are those of the dense matrix.  On failure the eigenvector of the worst block is
    returned embedded in the full N * D index space.
    """
    N = rcp.dim
    D = rcp.ambient_dim
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (N, N):
        raise ValueError(f"coordinate map must be {N} x {N}")

    # the entry lists live only inside the two helpers, so they are freed
    # before the eigensolves
    comp, offset, flat = _component_blocks(N * D, *_cp_entries(rcp, phi))
    sizes = np.bincount(comp)

    scale = 1.0 + max_abs(flat)
    hd = 0.0
    lam_min, worst, worst_vec = np.inf, 0, None
    # components of one size are one contiguous stack: a single batched eigh
    for s in np.unique(sizes):
        members = np.flatnonzero(sizes == s)
        start = offset[members[0]]
        blocks = flat[start : start + len(members) * s * s].reshape(len(members), s, s)
        adjoints = blocks.conj().transpose(0, 2, 1)
        hd = max(hd, max_abs(blocks - adjoints))
        herm = blocks + adjoints
        herm /= 2
        lam, vecs = np.linalg.eigh(herm)
        i = int(np.argmin(lam[:, 0]))
        if lam[i, 0] < lam_min:
            lam_min, worst, worst_vec = float(lam[i, 0]), members[i], vecs[i, :, 0]

    verdict = hd <= tol * scale and lam_min >= -tol * scale
    eigenvector = None
    if not verdict:
        eigenvector = np.zeros(N * D, dtype=complex)
        eigenvector[comp == worst] = worst_vec
    return PdCertificate(
        verdict=bool(verdict),
        min_eigenvalue=lam_min,
        hermitian_defect=float(hd),
        eigenvector=eigenvector,
    )


def center_dimension(rcp: ReducedCrossedProduct, tol: float = DEFAULT_TOL) -> int:
    """Dimension of the center, counted from the group and action tables.

    C(X) x| G is the direct sum over the orbits O of M_|O|(C*(G_x)) for any
    x in O (Green's imprimitivity), and the center of the group algebra of
    the stabilizer G_x has one dimension per conjugacy class of G_x.  So the
    dimension is the sum over the orbits of the number of classes of a point
    stabilizer.  Each orbit is represented by its smallest point, and each
    class by its smallest element: k is one when no h k h^-1 (h in G_x) is
    smaller.  ``tol`` is accepted for signature compatibility; nothing here
    rounds."""
    group, perm = rcp.system.group, rcp.system.action.perm
    total = 0
    for x in np.flatnonzero(perm.min(axis=0) == np.arange(rcp.system.n_points)):
        stab = np.flatnonzero(perm[:, x] == x)
        conj = group.mult[group.mult[stab[:, None], stab], group.inverse[stab][:, None]]  # [h, k] = h k h^-1
        total += int((conj.min(axis=0) == stab).sum())
    return total


def is_commutative(rcp: ReducedCrossedProduct, tol: float = DEFAULT_TOL) -> bool:
    """Whether every two basis elements commute.  A product of two basis
    elements is a basis element or 0, so the algebra is commutative exactly
    when ``mult_index`` is symmetric.  ``tol`` is accepted for signature
    compatibility, as in :func:`build_reduced`; nothing here rounds."""
    return bool(np.array_equal(rcp.mult_index, rcp.mult_index.T))
