"""Sectional Hilbert C^n-modules over a finite base.

A Hilbert module over C^n (functions on n points) is, up to unitary, a tuple
of finite-dimensional Hilbert-space fibers, one per point, with pointwise
right action and fiberwise inner product.  Zero-dimensional fibers are legal
everywhere.  Inner products are linear in the second slot, antilinear in the
first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import fibers
from .core import DEFAULT_TOL, FiniteSpace, _freeze
from .numutil import gram_quotient, matrix_rank, max_abs, psd_check, scale


class NotAModuleError(ValueError):
    """Raised when presented data violates a named module axiom."""

    def __init__(self, axiom: str, detail: str = ""):
        self.axiom = axiom
        super().__init__(f"not a Hilbert module: {axiom}" + (f" ({detail})" if detail else ""))


@dataclass(frozen=True)
class SectionalModule:
    space: FiniteSpace
    fiber_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.fiber_dims)
        if len(dims) != self.space.size:
            raise ValueError("fiber_dims must list one dimension per point")
        if any(d < 0 for d in dims):
            raise ValueError("fiber dimensions must be nonnegative")
        object.__setattr__(self, "fiber_dims", dims)

    @property
    def n_points(self) -> int:
        return self.space.size

    @property
    def total_dim(self) -> int:
        return sum(self.fiber_dims)

    def offsets(self) -> list[int]:
        """Start offset of each fiber block in the flattened coordinate order."""
        out, acc = [], 0
        for d in self.fiber_dims:
            out.append(acc)
            acc += d
        return out


@dataclass(frozen=True, eq=False, init=False)
class ModuleVector:
    """A section: one vector per fiber.

    ``components`` may be given as one vector per point or as the zero-padded
    (n, d_max) array of them, vector x in the first d_x entries of row x
    (padding checked as :mod:`.fibers` checks it).  The section is held once,
    in the read-only, C-contiguous complex array ``stack`` of that shape;
    ``components``, the tuple of its per-fiber views, is built on first read
    and kept.
    """

    module: SectionalModule
    stack: np.ndarray = field(repr=False)

    def __init__(self, module: SectionalModule, components):
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "stack", fibers.stack(components, module.fiber_dims))

    @cached_property
    def components(self) -> tuple[np.ndarray, ...]:
        return tuple(self.stack[x, :d] for x, d in enumerate(self.module.fiber_dims))

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        _same_module(self, other)
        return ModuleVector(self.module, _freeze(self.stack + other.stack))

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        _same_module(self, other)
        return ModuleVector(self.module, _freeze(self.stack - other.stack))

    def __mul__(self, scalar: complex) -> "ModuleVector":
        return _scaled(self, scalar)

    __rmul__ = __mul__


def _scaled(vec: ModuleVector, factors) -> ModuleVector:
    """The section ``factors * vec.stack``, the factors zeroed on the padding,
    where a non-finite factor times a padding zero would make NaN."""
    mask = fibers.fiber_mask(vec.module.fiber_dims)
    return ModuleVector(vec.module, _freeze(np.where(mask, factors, 0) * vec.stack))


def _same_module(a, b) -> None:
    if a.module != b.module:
        raise ValueError("vectors live on different modules")


def basis_vector(module: SectionalModule, x: int, i: int) -> ModuleVector:
    """The section supported at point x equal to the i-th fiber basis vector."""
    if not (0 <= x < module.n_points and 0 <= i < module.fiber_dims[x]):
        raise ValueError(f"no basis vector {i} at point {x} of fiber dimensions {module.fiber_dims}")
    return ModuleVector(module, fibers.scatter((module.n_points, max(module.fiber_dims)), [((x, i), 1.0)]))


def random_vector(module: SectionalModule, rng: np.random.Generator) -> ModuleVector:
    """A section with standard complex normal entries, fiber by fiber."""
    return ModuleVector(
        module, tuple(rng.normal(size=d) + 1j * rng.normal(size=d) for d in module.fiber_dims)
    )


def inner_product(xi: ModuleVector, eta: ModuleVector) -> np.ndarray:
    """The C^n-valued inner product, component x = <xi(x), eta(x)>."""
    _same_module(xi, eta)
    return np.einsum("xi,xi->x", xi.stack.conj(), eta.stack)


def module_action(vec: ModuleVector, a: np.ndarray) -> ModuleVector:
    """The right action (xi . a)(x) = a_x xi(x)."""
    return _scaled(vec, np.asarray(a, dtype=complex).reshape(vec.module.n_points, 1))


def module_norm(xi: ModuleVector) -> float:
    """sup-norm of <xi, xi> to the half: sqrt(max_x ||xi(x)||^2)."""
    return float(np.sqrt((np.abs(xi.stack) ** 2).sum(axis=-1).max()))


def trivial_module(space: FiniteSpace) -> SectionalModule:
    """C^n over itself: every fiber is one-dimensional."""
    return SectionalModule(space, (1,) * space.size)


def direct_sum(modules: Sequence[SectionalModule]) -> SectionalModule:
    if not modules:
        raise ValueError("direct sum of an empty family is not defined")
    space = modules[0].space
    if any(m.space != space for m in modules):
        raise ValueError("direct summands must share the base space")
    dims = tuple(sum(m.fiber_dims[x] for m in modules) for x in space.points())
    return SectionalModule(space, dims)


@dataclass(frozen=True)
class Sectionalization:
    """Result of rewriting an abstractly-presented module in sectional form.

    ``coord_maps[k]`` sends an abstract coordinate vector to the fiber-k
    coordinates of its image; the map preserves the C^n-valued inner product.
    """

    module: SectionalModule
    coord_maps: tuple[np.ndarray, ...]

    def apply(self, x: np.ndarray) -> ModuleVector:
        x = np.asarray(x, dtype=complex)
        return ModuleVector(self.module, tuple(m @ x for m in self.coord_maps))


def sectionalize(space: FiniteSpace, action_mats: np.ndarray, gram: np.ndarray) -> Sectionalization:
    """Rewrite a module presented on C^dim in sectional form.

    ``action_mats[k]`` is the matrix of the right action by the basis
    idempotent e_k, and ``gram[k][i, j]`` the k-th component of the inner
    product of the i-th and j-th abstract basis vectors.  Fiber k is the image
    of the k-th action idempotent, carrying the k-th component of the gram.
    Each axiom holds within ``DEFAULT_TOL`` times the :func:`.numutil.scale`
    of the array it is about, or :class:`NotAModuleError` names it.
    """
    n = space.size
    L = np.asarray(action_mats, dtype=complex)
    G = np.asarray(gram, dtype=complex)
    if L.ndim != 3 or L.shape[0] != n or L.shape[1] != L.shape[2]:
        raise ValueError("action_mats must have shape (n, dim, dim)")
    dim = L.shape[1]
    if G.shape != (n, dim, dim):
        raise ValueError("gram must have shape (n, dim, dim)")

    for name, arr in (("action_mats", L), ("gram", G)):
        bad = np.argwhere(~np.isfinite(arr)).tolist()
        if bad:
            raise NotAModuleError("finiteness", f"{name}{bad[0]} is not finite")
    # each check passes only on a true comparison, so an overflow to NaN fails one
    bound_L = DEFAULT_TOL * scale(L)
    for k in range(n):
        if not max_abs(L[k] @ L[k] - L[k]) <= bound_L:
            raise NotAModuleError("idempotent", f"action of e_{k} is not idempotent")
        for l in range(n):
            if l != k and not max_abs(L[k] @ L[l]) <= bound_L:
                raise NotAModuleError("orthogonality", f"e_{k} and e_{l} actions overlap")
    if not max_abs(L.sum(axis=0) - np.eye(dim)) <= bound_L:
        raise NotAModuleError("unital", "action idempotents do not sum to the identity")

    scale_G = scale(G)
    hermitian, positive, _, _ = psd_check(G, scale_G, DEFAULT_TOL)
    for k in range(n):
        if not hermitian[k]:
            raise NotAModuleError("conjugate-symmetry", f"component {k} of the gram is not Hermitian")
        if not positive[k]:
            raise NotAModuleError("positivity", f"component {k} of the gram is indefinite")
        for l in range(n):
            target = G[k] if l == k else np.zeros_like(G[k])
            if not max_abs(G[k] @ L[l] - target) <= DEFAULT_TOL * scale_G:
                raise NotAModuleError(
                    "compatibility", f"<x, y.e_{l}> has unexpected support in component {k}"
                )
    total = sum(G[k] for k in range(n))
    # each component passed within tolerance, so the sum is judged by its Hermitian part alone
    if not psd_check((total + total.conj().T) / 2, scale_G, DEFAULT_TOL)[1]:
        raise NotAModuleError("positivity", "total gram is indefinite")

    dims, coord_maps = [], []
    for k in range(n):
        # an orthonormal basis of the range of the k-th idempotent
        rank = matrix_rank(L[k], DEFAULT_TOL)
        V = np.linalg.svd(L[k])[0][:, :rank]
        try:
            _, pinv, kept = gram_quotient((V.conj().T @ G[k] @ V)[None, None], rank)
        except ValueError:
            raise NotAModuleError("positivity", f"fiber {k} gram is indefinite") from None
        if kept[0, 0] < rank:
            raise NotAModuleError(
                "definiteness", f"fiber {k} carries a nonzero vector of zero length"
            )
        B = V @ pinv[0, 0]
        dims.append(rank)
        coord_maps.append(B.conj().T @ G[k] @ L[k])
    module = SectionalModule(space, tuple(dims))
    return Sectionalization(module, tuple(coord_maps))


def banach_stone_operator(
    module: SectionalModule, sigma: Sequence[int], u_mats: Sequence[np.ndarray]
) -> np.ndarray:
    """Assemble the section-space matrix of (V xi)(x) = u(x) xi(sigma(x)):
    in fiber-block coordinates, block (x, sigma(x)) holds u(x) and every
    other block is zero."""
    dims = module.fiber_dims
    off = module.offsets()
    total = module.total_dim
    out = np.zeros((total, total), dtype=complex)
    for x in module.space.points():
        y = int(sigma[x])
        u = np.asarray(u_mats[x], dtype=complex).reshape(dims[x], dims[y])
        out[off[x] : off[x] + dims[x], off[y] : off[y] + dims[y]] = u
    return out


@np.errstate(over="ignore", invalid="ignore")
def _check_projection_rep(rho: np.ndarray, dims: Sequence[int]) -> None:
    """Raise ValueError naming the first point x where the blocks
    ``rho[k, x, :d_x, :d_x]`` of a padded stack are not orthogonal projections
    summing to one within ``DEFAULT_TOL * scale`` of the blocks at x;
    non-finite entries fail there, without a warning."""
    if len(rho) != len(dims):
        raise ValueError("a representation of C^n needs one generator per point")
    # one copy with the blocks of a point adjacent: the products over strided
    # (k, x) views took 25% longer at n = 16
    by_point = np.ascontiguousarray(rho.swapaxes(0, 1))
    for x, d in enumerate(dims):
        if d == 0:
            continue
        blocks = by_point[x, :, :d, :d]
        bound = DEFAULT_TOL * scale(blocks)
        prod = blocks[:, None] @ blocks[None]  # [k, l]: b_k b_l
        prod[np.arange(len(blocks)), np.arange(len(blocks))] -= blocks
        adjoint = (blocks - blocks.conj().swapaxes(-1, -2))[:, None]
        # bad[k, 0]: b_k is not self-adjoint; bad[k, 1 + l]: b_k b_l != delta_kl b_k.
        # Row-major order is that of a loop over k, then over l.
        bad = ~(np.abs(np.concatenate([adjoint, prod], axis=1)).max(axis=(-2, -1)) <= bound)
        if bad.any():
            k, l = divmod(int(bad.argmax()), bad.shape[1])
            if l == 0:
                raise ValueError(f"generator {k} is not self-adjoint at point {x}")
            raise ValueError(f"generators {k},{l - 1} are not orthogonal idempotents at point {x}")
        if not np.abs(blocks.sum(axis=0) - np.eye(d)).max() <= bound:
            raise ValueError(f"generators do not sum to the identity at point {x}")


@dataclass(frozen=True)
class TensorProduct:
    """Internal tensor product of two sectional modules over C^n.

    ``piece_coord[p, m]`` and ``piece_pinv[p, m]`` are the zero-padded
    quotient map of rho2(e_p) at m and its right inverse.  Fiber m has the
    coordinates (p, l, a), l a basis index of the left fiber p and a one of
    that quotient, at ``rows[p, m, l, a]`` (one past the largest fiber for
    padding); the class of x (x) y there is x(p)_l (piece_coord[p, m] y(m))_a.
    """

    left: SectionalModule
    right: SectionalModule
    module: SectionalModule
    rows: np.ndarray = field(repr=False)
    piece_coord: np.ndarray = field(repr=False)
    piece_pinv: np.ndarray = field(repr=False)

    def embed(self, x1: ModuleVector, x2: ModuleVector) -> ModuleVector:
        """The class of the simple tensor x1 (x) x2."""
        if x1.module != self.left or x2.module != self.right:
            raise ValueError("simple tensor factors live on the wrong modules")
        n = self.module.n_points
        prod = (self.piece_coord @ x2.stack[:, :, None])[..., 0]  # (p, m, a)
        put = ((np.arange(n)[:, None, None], self.rows), x1.stack[:, None, :, None] * prod[:, :, None, :])
        return ModuleVector(self.module, fibers.scatter((n, max(self.module.fiber_dims)), [put]))


def internal_tensor(x1: SectionalModule, rho2, x2: SectionalModule) -> TensorProduct:
    """The internal tensor product of x1 and x2 with respect to the
    representation rho2 of C^n on x2, given as the blocks ``rho2[k][x]`` of
    its generators or as their zero-padded (n, n, d_max, d_max) stack (see
    :mod:`.fibers`).

    The semi-inner product of simple tensors is
    ``<x (x) y, x' (x) y'> = <y, rho2(<x, x'>) y'>``; each fiber of the result
    is the quotient of the simple-tensor span by the null space of the
    corresponding gram.  That gram is block diagonal with the projection
    rho2(e_p) at every basis vector of x1's fiber p, so each projection at
    m is quotiented once, over the nonzero fibers of x1 (with the cutoff of
    :func:`.numutil.gram_quotient`, which names an indefinite block by
    (m, p)), and placed along the basis.
    """
    if x1.space != x2.space:
        raise ValueError("tensor factors must share the base space")
    rho2 = fibers.stack(rho2, x2.fiber_dims, np.broadcast_to(x2.fiber_dims, (len(rho2), x2.n_points)))
    _check_projection_rep(rho2, x2.fiber_dims)

    n, d1 = x1.n_points, np.asarray(x1.fiber_dims)
    coord, pinv, ranks = gram_quotient(rho2.swapaxes(0, 1), np.outer(x2.fiber_dims, d1 > 0))  # ranks[m, p]
    # fiber m is the blocks (p, l), l < d1[p], of ranks[m, p] coordinates a each
    l = np.arange(d1.max())
    rows, dims = fibers.block_rows(np.where(l < d1[:, None], ranks[:, :, None], 0).reshape(n, n * len(l)))
    rows = rows.reshape(n, n, len(l), rows.shape[-1]).swapaxes(0, 1)
    module = SectionalModule(x1.space, dims)
    return TensorProduct(x1, x2, module, rows, coord.swapaxes(0, 1), pinv.swapaxes(0, 1))
