"""Small dense-linear-algebra helpers used across modules, and the tolerance scale."""

from __future__ import annotations

import numpy as np


def scale(*arrays, axis=None):
    """``1 + max|entry|`` over ``arrays``, the package's one tolerance scale:
    a residual passes when it is at most ``tol`` times the scale of the data
    judged.  With ``axis``, one scale per index of the remaining axes.  No
    entries give 1, and a NaN or infinite entry gives NaN, so that every
    comparison against it fails."""
    peak = 0.0
    for a in arrays:
        peak = np.maximum(peak, np.abs(a).max(axis=axis, initial=0.0))
    out = np.where(np.isfinite(peak), 1.0 + peak, np.nan)
    return float(out) if axis is None else out


def nearest_unitary(a: np.ndarray) -> np.ndarray | None:
    """Unitary polar factor of a square matrix, or None when singular."""
    a = np.asarray(a, dtype=complex)
    if a.shape[0] != a.shape[1]:
        return None
    if a.shape[0] == 0:
        return a.copy()
    u, s, vh = np.linalg.svd(a)
    # a fixed cutoff: it decides when a caller draws again, not a verdict
    if s.min() <= 1e-12 * scale(s):
        return None
    return u @ vh


def matrix_rank(columns: np.ndarray, tol: float):
    """Rank: the singular values above ``tol * scale`` of the spectrum; for
    a stack of matrices, the array of their ranks."""
    s = np.linalg.svd(np.asarray(columns, dtype=complex), compute_uv=False)
    ranks = (s > tol * scale(s, axis=-1)[..., None]).sum(axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def max_abs(a: np.ndarray) -> float:
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def psd_check(blocks: np.ndarray, scale, tol: float):
    """The package's one positivity rule, over a (..., s, s) stack: a block
    passes when its Hermitian defect max|b - b*| is at most ``tol * scale``
    (``scale`` broadcasts to the leading axes) and the smallest eigenvalue of
    its Hermitian part (b + b*) / 2 is at least ``-tol * scale``.  Only
    ``eigvalsh`` runs.  Every comparison fails on NaN, and a block with a
    non-finite entry, whose defect is then non-finite, skips the eigensolve
    and is neither Hermitian nor PSD, with ``lam_min`` NaN.  An empty block
    passes with ``lam_min`` 0.  Returns ``(hermitian, passed, lam_min,
    defect)``, each of the leading shape."""
    adjoint = blocks.conj().swapaxes(-1, -2)
    with np.errstate(invalid="ignore", over="ignore"):
        defect = np.abs(blocks - adjoint).max(axis=(-2, -1), initial=0.0)
        finite = np.isfinite(defect)  # on finite input no mask of the blocks is taken
        if finite.all():
            lam_min = np.linalg.eigvalsh((blocks + adjoint) / 2)[..., 0] if blocks.shape[-1] else np.zeros(defect.shape)
        else:
            lam_min = np.full(defect.shape, np.nan)
            lam_min[finite] = np.linalg.eigvalsh((blocks[finite] + adjoint[finite]) / 2)[..., 0]
    return (*psd_verdict(lam_min, defect, scale, tol), lam_min, defect)


def psd_verdict(lam_min, defect, scale, tol: float):
    """``(hermitian, passed)`` of :func:`psd_check` from the smallest
    eigenvalues and defects it found, for a ``scale`` known only later."""
    with np.errstate(invalid="ignore", over="ignore"):
        hermitian = np.isfinite(defect) & (defect <= tol * scale)
        return hermitian, hermitian & (lam_min >= -tol * scale)


def lowest_eigenvector(block: np.ndarray) -> np.ndarray:
    """Lowest eigenvector of the Hermitian part of a block (one ``eigh``)."""
    return np.linalg.eigh((block + block.conj().T) / 2)[1][:, 0]


def gram_quotient(blocks: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quotient groups of Hermitian grams by their null spaces.

    ``blocks`` is a zero-padded (G, K, D, D) stack and block (g, k), in the
    top-left corner of its slot, is ``sizes[g, k]`` square (``sizes``
    broadcasts to (G, K)).  Group g is one block-diagonal gram, and its
    eigenvalues at or below the cutoff ``DEFAULT_TOL * scale`` of its
    spectrum clipped at 0 count as zero.  The blocks of one size go through
    one batched ``eigh`` of their Hermitian parts.

    Returns the zero-padded ``(coord, pinv, ranks)``, R = ``ranks.max()``.
    Block (g, k) keeps its top ``ranks[g, k]`` eigenpairs (lambda, V), in
    ascending order: ``coord[g, k]`` (R x D) is ``sqrt(lambda) V*``, so that
    ``coord* coord`` is the block, and ``pinv[g, k]`` (D x R) its right
    inverse ``V / sqrt(lambda)``.  Raises ValueError naming the first block
    (g, k) with an eigenvalue below ``-cutoff`` or a non-finite entry.
    """
    from .core import DEFAULT_TOL  # core imports this module
    blocks = np.asarray(blocks, dtype=complex)
    sizes = np.broadcast_to(sizes, blocks.shape[:2])
    finite = np.isfinite(blocks).all(axis=(-2, -1))
    lam, vecs = np.zeros(blocks.shape[:3]), np.zeros_like(blocks)
    for s in np.unique(sizes[sizes > 0]).tolist():
        g, k = np.nonzero((sizes == s) & finite)
        b = blocks[g, k, :s, :s]
        lam[g, k, :s], vecs[g, k, :s, :s] = np.linalg.eigh((b + b.conj().swapaxes(-1, -2)) / 2)
    cutoff = DEFAULT_TOL * scale(np.maximum(lam, 0.0), axis=(1, 2))[:, None]
    low = np.where(finite, lam.min(axis=-1, initial=0.0), np.nan)  # a non-finite block fails as NaN
    bad = ~(low >= -cutoff)
    if bad.any():
        g, k = np.argwhere(bad)[0].tolist()
        raise ValueError(f"gram block ({g}, {k}) is indefinite (eigenvalue {low[g, k]:.3e} below -{cutoff[g, 0]:.3e})")
    ranks = (lam > cutoff[..., None]).sum(axis=-1)
    # the kept eigenpairs of block (g, k) are its last ranks[g, k] below sizes[g, k]
    kept = np.arange(ranks.max(initial=0)) < ranks[..., None]
    at = np.where(kept, sizes[..., None] - ranks[..., None] + np.arange(kept.shape[-1]), 0)
    root = np.sqrt(np.where(kept, np.take_along_axis(lam, at, -1), 1.0))
    vec = np.where(kept[..., None, :], np.take_along_axis(vecs, at[..., None, :], -1), 0)
    return root[..., None] * vec.conj().swapaxes(-1, -2), vec / root[..., None, :], ranks
