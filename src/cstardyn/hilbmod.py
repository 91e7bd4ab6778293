"""Sectional Hilbert C^n-modules over a finite base.

A Hilbert module over C^n (functions on n points) is, up to unitary, a tuple
of finite-dimensional Hilbert-space fibers, one per point, with pointwise
right action and fiberwise inner product.  Zero-dimensional fibers are legal
everywhere.  Inner products are linear in the second slot, antilinear in the
first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DEFAULT_TOL, FiniteSpace, _freeze


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


@dataclass(frozen=True, eq=False)
class ModuleVector:
    module: SectionalModule
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        comps = []
        for x, d in enumerate(self.module.fiber_dims):
            c = np.asarray(self.components[x], dtype=complex).reshape(d)
            comps.append(_freeze(c))
        object.__setattr__(self, "components", tuple(comps))

    def flat(self) -> np.ndarray:
        if not self.components:
            return np.zeros(0, dtype=complex)
        return np.concatenate(self.components)

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        _same_module(self, other)
        return ModuleVector(self.module, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        _same_module(self, other)
        return ModuleVector(self.module, tuple(a - b for a, b in zip(self.components, other.components)))

    def __mul__(self, scalar: complex) -> "ModuleVector":
        return ModuleVector(self.module, tuple(scalar * c for c in self.components))

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class ModuleOperator:
    """A fiber-preserving (adjointable) operator: one d_x by d_x block per point."""

    module: SectionalModule
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        blocks = []
        for x, d in enumerate(self.module.fiber_dims):
            b = np.asarray(self.blocks[x], dtype=complex).reshape(d, d)
            blocks.append(_freeze(b))
        object.__setattr__(self, "blocks", tuple(blocks))

    def apply(self, vec: ModuleVector) -> ModuleVector:
        if vec.module != self.module:
            raise ValueError("operator and vector live on different modules")
        return ModuleVector(self.module, tuple(b @ c for b, c in zip(self.blocks, vec.components)))

    def adjoint(self) -> "ModuleOperator":
        return ModuleOperator(self.module, tuple(b.conj().T for b in self.blocks))

    def compose(self, other: "ModuleOperator") -> "ModuleOperator":
        if other.module != self.module:
            raise ValueError("operators live on different modules")
        return ModuleOperator(self.module, tuple(a @ b for a, b in zip(self.blocks, other.blocks)))


def _same_module(a, b) -> None:
    if a.module != b.module:
        raise ValueError("vectors live on different modules")


def zero_vector(module: SectionalModule) -> ModuleVector:
    return ModuleVector(module, tuple(np.zeros(d, dtype=complex) for d in module.fiber_dims))


def basis_vector(module: SectionalModule, x: int, i: int) -> ModuleVector:
    """The section supported at point x equal to the i-th fiber basis vector."""
    comps = [np.zeros(d, dtype=complex) for d in module.fiber_dims]
    comps[x][i] = 1.0
    return ModuleVector(module, tuple(comps))


def basis_vectors(module: SectionalModule) -> list[ModuleVector]:
    return [basis_vector(module, x, i) for x in module.space.points() for i in range(module.fiber_dims[x])]


def inner_product(xi: ModuleVector, eta: ModuleVector) -> np.ndarray:
    """The C^n-valued inner product, component x = <xi(x), eta(x)>."""
    _same_module(xi, eta)
    return np.array([np.vdot(a, b) for a, b in zip(xi.components, eta.components)])


def module_action(vec: ModuleVector, a: np.ndarray) -> ModuleVector:
    """The right action (xi . a)(x) = a_x xi(x)."""
    a = np.asarray(a, dtype=complex).reshape(vec.module.n_points)
    return ModuleVector(vec.module, tuple(a[x] * c for x, c in enumerate(vec.components)))


def module_norm(xi: ModuleVector) -> float:
    """sup-norm of <xi, xi> to the half: sqrt(max_x ||xi(x)||^2)."""
    if not xi.components:
        return 0.0
    return float(np.sqrt(max((np.abs(c) ** 2).sum().real for c in xi.components)))


def trivial_module(space: FiniteSpace) -> SectionalModule:
    """C^n over itself: every fiber is one-dimensional."""
    return SectionalModule(space, (1,) * space.size)


def canonical_rep(module: SectionalModule) -> list[ModuleOperator]:
    """Generators of the pointwise-scalar representation of C^n: e_k acts as
    the identity on fiber k and zero elsewhere."""
    gens = []
    for k in module.space.points():
        blocks = [
            (np.eye(d, dtype=complex) if x == k else np.zeros((d, d), dtype=complex))
            for x, d in enumerate(module.fiber_dims)
        ]
        gens.append(ModuleOperator(module, tuple(blocks)))
    return gens


def direct_sum(modules: Sequence[SectionalModule]) -> SectionalModule:
    if not modules:
        raise ValueError("direct sum of an empty family is not defined")
    space = modules[0].space
    if any(m.space != space for m in modules):
        raise ValueError("direct summands must share the base space")
    dims = tuple(sum(m.fiber_dims[x] for m in modules) for x in space.points())
    return SectionalModule(space, dims)


def direct_sum_embed(modules: Sequence[SectionalModule], index: int, vec: ModuleVector) -> ModuleVector:
    """Canonical injection of the index-th summand into the direct sum."""
    if vec.module != modules[index]:
        raise ValueError("vector does not live on the indicated summand")
    total = direct_sum(modules)
    comps = []
    for x in total.space.points():
        parts = []
        for i, m in enumerate(modules):
            if i == index:
                parts.append(vec.components[x])
            else:
                parts.append(np.zeros(m.fiber_dims[x], dtype=complex))
        comps.append(np.concatenate(parts) if parts else np.zeros(0, dtype=complex))
    return ModuleVector(total, tuple(comps))


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


def sectionalize(
    space: FiniteSpace,
    action_mats: np.ndarray,
    gram: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> Sectionalization:
    """Rewrite a module presented on C^dim in sectional form.

    ``action_mats[k]`` is the matrix of the right action by the basis
    idempotent e_k, and ``gram[k][i, j]`` the k-th component of the inner
    product of the i-th and j-th abstract basis vectors.  Fiber k is the image
    of the k-th action idempotent, carrying the k-th component of the gram.
    Raises :class:`NotAModuleError` naming the first violated axiom.
    """
    n = space.size
    L = np.asarray(action_mats, dtype=complex)
    G = np.asarray(gram, dtype=complex)
    if L.ndim != 3 or L.shape[0] != n or L.shape[1] != L.shape[2]:
        raise ValueError("action_mats must have shape (n, dim, dim)")
    dim = L.shape[1]
    if G.shape != (n, dim, dim):
        raise ValueError("gram must have shape (n, dim, dim)")

    scale_L = 1.0 + max(np.abs(L).max(), 1.0)
    for k in range(n):
        if np.abs(L[k] @ L[k] - L[k]).max() > tol * scale_L:
            raise NotAModuleError("idempotent", f"action of e_{k} is not idempotent")
        for l in range(n):
            if l != k and np.abs(L[k] @ L[l]).max() > tol * scale_L:
                raise NotAModuleError("orthogonality", f"e_{k} and e_{l} actions overlap")
    if np.abs(L.sum(axis=0) - np.eye(dim)).max() > tol * scale_L:
        raise NotAModuleError("unital", "action idempotents do not sum to the identity")

    scale_G = 1.0 + np.abs(G).max()
    for k in range(n):
        if np.abs(G[k] - G[k].conj().T).max() > tol * scale_G:
            raise NotAModuleError("conjugate-symmetry", f"component {k} of the gram is not Hermitian")
        if np.linalg.eigvalsh((G[k] + G[k].conj().T) / 2).min() < -tol * scale_G:
            raise NotAModuleError("positivity", f"component {k} of the gram is indefinite")
        for l in range(n):
            target = G[k] if l == k else np.zeros_like(G[k])
            if np.abs(G[k] @ L[l] - target).max() > tol * scale_G:
                raise NotAModuleError(
                    "compatibility", f"<x, y.e_{l}> has unexpected support in component {k}"
                )
    total = sum(G[k] for k in range(n))
    if np.linalg.eigvalsh((total + total.conj().T) / 2).min() < -tol * scale_G:
        raise NotAModuleError("positivity", "total gram is indefinite")

    dims, coord_maps = [], []
    for k in range(n):
        # basis of the range of the k-th idempotent
        if dim == 0:
            dims.append(0)
            coord_maps.append(np.zeros((0, 0), dtype=complex))
            continue
        u, s, _ = np.linalg.svd(L[k])
        rank = int((s > tol * (1.0 + (s[0] if len(s) else 0.0))).sum())
        V = u[:, :rank]
        M = V.conj().T @ G[k] @ V
        M = (M + M.conj().T) / 2
        lam, Q = np.linalg.eigh(M) if rank else (np.zeros(0), np.zeros((0, 0)))
        cutoff = tol * (1.0 + (lam.max() if len(lam) else 0.0))
        if len(lam) and lam.min() < -cutoff:
            raise NotAModuleError("positivity", f"fiber {k} gram is indefinite")
        keep = lam > cutoff
        if rank and not keep.all():
            raise NotAModuleError(
                "definiteness", f"fiber {k} carries a nonzero vector of zero length"
            )
        B = V @ Q / np.sqrt(np.where(keep, lam, 1.0))[None, :] if rank else np.zeros((dim, 0))
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


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def _check_projection_rep(rho: Sequence[ModuleOperator], module: SectionalModule, tol: float) -> None:
    if len(rho) != module.n_points:
        raise ValueError("a representation of C^n needs one generator per point")
    for k, op in enumerate(rho):
        if op.module != module:
            raise ValueError("representation generators must act on the target module")
    for x, d in enumerate(module.fiber_dims):
        if d == 0:
            continue
        blocks = [op.blocks[x] for op in rho]
        scale = 1.0 + max(np.abs(b).max() for b in blocks)
        for k, b in enumerate(blocks):
            if np.abs(b - b.conj().T).max() > tol * scale:
                raise ValueError(f"generator {k} is not self-adjoint at point {x}")
            for l, b2 in enumerate(blocks):
                target = b if l == k else np.zeros_like(b)
                if np.abs(b @ b2 - target).max() > tol * scale:
                    raise ValueError(f"generators {k},{l} are not orthogonal idempotents at point {x}")
        if np.abs(sum(blocks) - np.eye(d)).max() > tol * scale:
            raise ValueError(f"generators do not sum to the identity at point {x}")


@dataclass(frozen=True)
class TensorProduct:
    """Internal tensor product of two sectional modules over C^n.

    ``coord[m]`` maps a simple-tensor coefficient vector (index (i, a) with i
    a flattened basis index of the left module and a a fiber-m basis index of
    the right one) isometrically onto the quotient fiber; ``coord_pinv[m]``
    is a right inverse choosing a representative coefficient vector.
    """

    left: SectionalModule
    right: SectionalModule
    module: SectionalModule
    coord: tuple[np.ndarray, ...]
    coord_pinv: tuple[np.ndarray, ...]

    def embed(self, x1: ModuleVector, x2: ModuleVector) -> ModuleVector:
        """The class of the simple tensor x1 (x) x2."""
        if x1.module != self.left or x2.module != self.right:
            raise ValueError("simple tensor factors live on the wrong modules")
        flat1 = x1.flat()
        comps = []
        for m in self.module.space.points():
            c = np.kron(flat1, x2.components[m])
            comps.append(self.coord[m] @ c)
        return ModuleVector(self.module, tuple(comps))


def internal_tensor(
    x1: SectionalModule,
    rho2: Sequence[ModuleOperator],
    x2: SectionalModule,
    tol: float = DEFAULT_TOL,
) -> TensorProduct:
    """The internal tensor product of x1 and x2 with respect to the
    representation rho2 of C^n on x2.

    The semi-inner product of simple tensors is
    ``<x (x) y, x' (x) y'> = <y, rho2(<x, x'>) y'>``; each fiber of the result
    is the quotient of the simple-tensor span by the null space of the
    corresponding gram, with eigenvalues below ``tol * (1 + max)`` cut off.
    """
    if x1.space != x2.space:
        raise ValueError("tensor factors must share the base space")
    _check_projection_rep(rho2, x2, tol)

    D1 = x1.total_dim
    fiber_of = [p for p in x1.space.points() for _ in range(x1.fiber_dims[p])]
    dims, coords, pinvs = [], [], []
    for m in x2.space.points():
        d2 = x2.fiber_dims[m]
        gram = _block_diag([rho2[fiber_of[i]].blocks[m] for i in range(D1)]) if D1 else np.zeros((0, 0))
        size = D1 * d2
        gram = gram.reshape(size, size) if size else np.zeros((0, 0))
        gram = (gram + gram.conj().T) / 2
        lam, V = np.linalg.eigh(gram) if size else (np.zeros(0), np.zeros((0, 0)))
        cutoff = tol * (1.0 + (lam.max() if len(lam) else 0.0))
        if len(lam) and lam.min() < -cutoff:
            raise ValueError(f"tensor gram at point {m} is indefinite")
        keep = lam > cutoff
        lk, Vk = lam[keep], V[:, keep]
        dims.append(int(keep.sum()))
        coords.append(np.sqrt(lk)[:, None] * Vk.conj().T)
        pinvs.append(Vk / np.sqrt(lk)[None, :])
    module = SectionalModule(x1.space, tuple(dims))
    return TensorProduct(x1, x2, module, tuple(coords), tuple(pinvs))
