"""Helpers and reference implementations that only the tests use."""

import math

import numpy as np

from cstardyn.cocycle import EquivariantMap, rho_from_sigma
from cstardyn.cyclic_examples import omega_example_rep, omega_example_vectors, sigma_example_rep, sigma_example_vectors
from cstardyn.hilbmod import basis_vector
from cstardyn.multiplier import coefficient


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


def identity_pullback(c):
    """The representation over the identity base map whose group part is
    the cocycle ``c``."""
    return rho_from_sigma(EquivariantMap(c.action, tuple(range(c.action.space.size))), c)


def omega_matrix_unit_coefficient(n: int, k: int, l: int, p: int):
    """The matrix unit (k, l, p) of the omega_n family as one coefficient of
    the public helpers, as :func:`cstardyn.cyclic_examples.matrix_unit_family`
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
