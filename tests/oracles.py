"""Helpers and reference implementations that only the tests use."""

import json
import math

import numpy as np

from cstardyn.cocycle import EquivariantMap, rho_from_sigma
from cstardyn.core import DEFAULT_TOL, FiniteGroup, GroupAction, System
from cstardyn.cyclic_examples import _sigma_sections, omega_example_rep, omega_example_vectors, sigma_bundle, sigma_example_rep
from cstardyn.hilbmod import ModuleVector, basis_vector
from cstardyn.multiplier import Multiplier, _kernel_matrices, coefficient
from cstardyn.numutil import psd_check, scale


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bits (so -0.0 differs from 0.0)."""
    bits = [np.ascontiguousarray(m).view(np.uint64) for m in (a, b)]
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(*bits)


def through_json(obj):
    return json.loads(json.dumps(obj))


def null_space(m: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the null space of m, as columns.

    Singular values below ``tol * (1 + sigma_max)`` count as zero.  A tall m
    takes the thin SVD, never forming its (rows x rows) U factor; a wide m
    needs the full ``vh``, whose rows past the row count are null vectors.
    """
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return np.eye(m.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    cutoff = tol * (1.0 + (s[0] if len(s) else 0.0))
    rank = int((s > cutoff).sum())
    return vh[rank:].conj().T


def reference_tensor_coords(tp) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The dense per-fiber maps of an internal tensor product, assembled from
    its block pieces as :class:`cstardyn.hilbmod.TensorProduct` once stored
    them: ``coord[m]`` maps a simple-tensor coefficient vector (index
    i * d2_m + b, i a flattened basis index of the left module and b a
    fiber-m basis index of the right one) onto the quotient fiber m, and
    ``coord_pinv[m]`` is its right inverse.

    Block i of coord[m] takes the columns i * d2_m + b to the rows of
    (fiber_of[i], l_i, a); the row past the fibers collects the padding.
    """
    n, d1, dims = tp.left.n_points, np.asarray(tp.left.fiber_dims), tp.module.fiber_dims
    fiber_of = np.repeat(np.arange(n), d1)
    basis = np.arange(len(fiber_of))
    at = tp.rows.swapaxes(0, 1)[:, np.arange(d1.max()) < d1[:, None]]  # (m, i, a)
    coords, pinvs = [], []
    for m, d in enumerate(tp.right.fiber_dims):
        r, c = at[m, :, :, None], basis[:, None, None] * d + np.arange(d)
        coord = np.zeros((max(dims) + 1, len(basis) * d), dtype=complex)
        coord[r, c] = tp.piece_coord[fiber_of, m, :, :d]
        pinv = np.zeros((len(basis) * d, max(dims) + 1), dtype=complex)
        pinv[c.swapaxes(1, 2), r.swapaxes(1, 2)] = tp.piece_pinv[fiber_of, m, :d]
        coords.append(coord[: dims[m]])
        pinvs.append(pinv[:, : dims[m]])
    return coords, pinvs


def reference_block_quotient(blocks, tol: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """The list-based gram quotient that :func:`cstardyn.numutil.gram_quotient`
    replaced: one block-diagonal gram given as its square diagonal blocks,
    one batched ``eigh`` per block size, the cutoff ``tol * (1 + max(0,
    lambda_max))`` over all blocks, and per block ``(coord, pinv)`` over its
    kept eigenpairs (lambda, V): ``sqrt(lambda) V*`` and ``V / sqrt(lambda)``.
    Raises ValueError naming the first block with an eigenvalue below
    ``-cutoff``.
    """
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    eig = {}
    for size in {len(b) for b in blocks}:
        idx = [i for i, b in enumerate(blocks) if len(b) == size]
        stack = np.stack([blocks[i] for i in idx])
        eig.update(zip(idx, zip(*np.linalg.eigh((stack + stack.conj().swapaxes(-1, -2)) / 2))))
    cutoff = tol * (1.0 + np.concatenate([lam for lam, _ in eig.values()] + [np.zeros(0)]).max(initial=0.0))
    out = []
    for i in range(len(blocks)):
        lam, vecs = eig[i]
        if len(lam) and lam[0] < -cutoff:
            raise ValueError(f"gram block {i} is indefinite (eigenvalue {lam[0]:.3e} below -{cutoff:.3e})")
        keep = lam > cutoff
        root, kept = np.sqrt(lam[keep]), vecs[:, keep]
        out.append((root[:, None] * kept.conj().T, kept / root))
    return out


def complex_to_json(z: complex) -> list[float]:
    """One complex number as its [re, im] pair."""
    z = complex(z)
    return [z.real, z.imag]


def reference_matrix_to_json(m: np.ndarray) -> list:
    """Rows of [re, im] pairs, one :func:`complex_to_json` call per entry, as
    :func:`cstardyn.serialize.matrix_to_json` encoded them one at a time."""
    return [[complex_to_json(z) for z in row] for row in np.asarray(m, dtype=complex)]


def basis_vectors(module) -> list:
    """The basis sections of a module, fiber by fiber."""
    return [basis_vector(module, x, i) for x in module.space.points() for i in range(module.fiber_dims[x])]


def rho_blocks(rep) -> tuple:
    """The blocks of rho(e_k) at each fiber x of a representation, indexed
    ``[k][x]``, as views of ``rep.rho_stack``."""
    dims = rep.module.fiber_dims
    return tuple(tuple(gen[x, :d, :d] for x, d in enumerate(dims)) for gen in rep.rho_stack)


def identity_pullback(c):
    """The representation over the identity base map whose group part is
    the cocycle ``c``."""
    return rho_from_sigma(EquivariantMap(c.action, tuple(range(c.action.space.size))), c)


def omega_matrix_unit_coefficient(n: int, k: int, l: int, p: int):
    """The matrix unit (k, l, p) of the omega_n family as one coefficient of
    the example helpers, as :func:`cstardyn.cyclic_examples.matrix_unit_family`
    builds it in a batch."""
    return coefficient(omega_example_rep(n, k, l), *omega_example_vectors(n, k, p))


def sigma_matrix_unit_coefficient(n: int, k: int, l: int, p: int):
    """The sigma_n counterpart of :func:`omega_matrix_unit_coefficient`."""
    return coefficient(sigma_example_rep(n), *sigma_example_vectors(n, k, l, p))


def reference_psd_check(blocks: np.ndarray, scale, tol: float):
    """The rule of the former ``core.psd_certificate``, one matrix at a time
    over a (..., s, s) stack: Hermitian when max|m - m*| <= tol * scale, and
    PSD when also the smallest eigenvalue of (m + m*) / 2 is >= -tol *
    scale.  A matrix with a non-finite entry, where the former rule raised,
    is neither, with the eigenvalue NaN; an empty one passes with 0.
    ``scale`` broadcasts to the leading axes.  Returns ``(hermitian, passed,
    lam_min, defect)``."""
    lead = blocks.shape[:-2]
    scale = np.broadcast_to(scale, lead)
    hermitian, passed = np.zeros(lead, dtype=bool), np.zeros(lead, dtype=bool)
    lam_min, defect = np.zeros(lead), np.zeros(lead)
    for i in np.ndindex(lead):
        m = blocks[i]
        if not m.shape[0]:
            hermitian[i] = passed[i] = True
            continue
        with np.errstate(invalid="ignore"):
            defect[i] = np.abs(m - m.conj().T).max()
        if not np.isfinite(m).all():
            lam_min[i] = np.nan
            continue
        lam_min[i] = np.linalg.eigvalsh((m + m.conj().T) / 2)[0]
        hermitian[i] = defect[i] <= tol * scale[i]
        passed[i] = hermitian[i] and lam_min[i] >= -tol * scale[i]
    return hermitian, passed, lam_min, defect


def reference_bound(tol: float, mats) -> float:
    """``tol * (1 + max|entry|)`` over the matrices ``mats``, read one at a
    time, and NaN when an entry is not finite: the bound a report's checks
    apply to the object the matrices make up."""
    peaks = [float(np.abs(m).max()) for m in mats if np.size(m)]
    return tol * (1.0 + max(peaks, default=0.0)) if all(map(math.isfinite, peaks)) else math.nan


def max_abs_over(arrays) -> float:
    """Largest |entry| over several arrays, 0.0 for none.  NaN propagates,
    where a ``max(res, max_abs(a))`` fold would drop it."""
    return float(np.max([np.abs(a).max(initial=0.0) for a in arrays], initial=0.0))


def padded_scatter(shape: tuple, puts) -> np.ndarray:
    """Test-only oracle for :func:`cstardyn.fibers.scatter`: the builders'
    former scatter into a zero stack one longer on every axis, where an
    index one past the end lands in the extra row, sliced back to ``shape``."""
    out = np.zeros(tuple(s + 1 for s in shape), dtype=complex)
    for index, values in puts:
        out[index] = values
    return out[tuple(slice(s) for s in shape)]


def act_on_algebra(action, g: int, a: np.ndarray) -> np.ndarray:
    """The induced *-automorphism of C^n: (alpha_g a)_x = a_{g^{-1} x}."""
    a = np.asarray(a, dtype=complex)
    n = action.space.size
    if a.shape != (n,):
        raise ValueError(f"algebra element must be a vector of length {n}")
    return a[action.src[g]]


def is_psd(m: np.ndarray) -> bool:
    """Whether a square complex matrix is positive semidefinite, by
    :func:`cstardyn.numutil.psd_check` at ``DEFAULT_TOL`` and its scale."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return bool(psd_check(m, scale(m), DEFAULT_TOL)[1])


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product with elements packed as a*|G2| + b."""
    o1, o2 = g1.order, g2.order
    mult = g1.mult[:, None, :, None] * o2 + g2.mult[None, :, None, :]
    return FiniteGroup(o1 * o2, mult.reshape(o1 * o2, o1 * o2))


def relabeled_system(system, rng: np.random.Generator):
    """An isomorphic copy of a system with group elements and points renamed
    by seeded permutations, redrawn until the identity is not element 0."""
    group, action = system.group, system.action
    while True:
        sg, px = rng.permutation(group.order), rng.permutation(action.space.size)
        if sg[group.identity] != 0 or group.order == 1:
            break
    mult = np.empty_like(group.mult)
    mult[sg[:, None], sg[None, :]] = sg[group.mult]
    perm = np.empty_like(action.perm)
    perm[sg[:, None], px[None, :]] = px[action.perm]
    return System(GroupAction(FiniteGroup(group.order, mult), action.space, perm))


def covariant_pi(rep, a: np.ndarray) -> np.ndarray:
    """pi(a) = sum_j a_j pi(e_j) of a covariant pair, summed in index order."""
    a = np.asarray(a, dtype=complex).reshape(rep.system.n_points)
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for j, m in enumerate(rep.pi_mats):
        out += a[j] * m
    return out


def integrated_form(rep, f: np.ndarray) -> np.ndarray:
    """Lambda(f) = sum_g pi(f(g)) u(g) of a covariant pair, for f of shape
    (|G|, n); a zero coefficient adds nothing."""
    sys_ = rep.system
    f = np.asarray(f, dtype=complex).reshape(sys_.group.order, sys_.n_points)
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for g in sys_.group.elements():
        if f[g].any():
            out += covariant_pi(rep, f[g]) @ rep.u_mats[g]
    return out


def dense_basis(rcp) -> np.ndarray:
    """The basis matrices b_a of a reduced crossed product as one (N, D, D)
    stack, each with a 1 at (r, col_map[a, r]) wherever col_map is not -1."""
    N, d = rcp.col_map.shape
    out = np.zeros((N, d, d), dtype=complex)
    a, r = np.nonzero(rcp.col_map >= 0)
    out[a, r, rcp.col_map[a, r]] = 1.0
    return out


def one_hot(index: np.ndarray, size: int) -> np.ndarray:
    """Coordinates of the basis elements named by an index table (a
    product, adjoint or gram table of a reduced crossed product); zero where
    it is -1."""
    out = np.zeros(index.shape + (size,), dtype=complex)
    hit = index >= 0
    out[hit, index[hit]] = 1.0
    return out


def sigma_example_vectors(n: int, k: int, l: int, p: int) -> tuple:
    """Vectors whose coefficient against
    :func:`cstardyn.cyclic_examples.sigma_example_rep` is the matrix unit
    E_{kl} supported at group element p: e_l in component k, and the
    constant section at e_{l-p}."""
    module = sigma_bundle(n)
    xi, eta = _sigma_sections(n, np.array([k]), np.array([l]), np.array([p]))
    return ModuleVector(module, xi[0]), ModuleVector(module, eta[0])


def matrix_unit_target(system, k: int, l: int, p: int) -> Multiplier:
    """The multiplier m -> delta_{p,m} E_{kl}."""
    n = system.n_points
    mats = np.zeros((system.group.order, n, n), dtype=complex)
    mats[p, k, l] = 1.0
    return Multiplier(system, mats)


def from_group_function(system, mu) -> Multiplier:
    """The multiplier T(g, a) = mu(g) a induced by a function on the group."""
    n = system.n_points
    mu = np.asarray(mu, dtype=complex).reshape(system.group.order)
    return Multiplier(system, mu[:, None, None] * np.eye(n))


def group_function_is_positive_definite(system, mu) -> bool:
    """Classical positive definiteness of a function on the group: the matrix
    [mu(g^{-1} h)] over the full group enumeration is PSD (:func:`is_psd`)."""
    group = system.group
    return is_psd(np.asarray(mu, dtype=complex)[group.mult[group.inverse]])


def criterion_matrix(t, x: int, k: int) -> np.ndarray:
    """The fiberwise criterion's kernel matrix of ``t`` at base point x and
    basis index k, one gather of :func:`cstardyn.multiplier._kernel_matrices`."""
    return _kernel_matrices(t.system, t.stack[None], *np.array([[0], [x], [k]]))[0]


def residual_of(report, name: str) -> float:
    """The largest residual of a report's checks called ``name``."""
    return max(c.residual for c in report.checks if c.name == name)
