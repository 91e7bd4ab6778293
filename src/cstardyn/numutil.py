"""Small dense-linear-algebra helpers used across modules."""

from __future__ import annotations

import numpy as np


def nearest_unitary(a: np.ndarray) -> np.ndarray | None:
    """Unitary polar factor of a square matrix, or None when singular."""
    a = np.asarray(a, dtype=complex)
    if a.shape[0] != a.shape[1]:
        return None
    if a.shape[0] == 0:
        return a.copy()
    u, s, vh = np.linalg.svd(a)
    if s.min() <= 1e-12 * (1.0 + s.max()):
        return None
    return u @ vh


def matrix_rank(columns: np.ndarray, tol: float) -> int:
    """Rank with the package's relative singular-value cutoff."""
    columns = np.asarray(columns, dtype=complex)
    if columns.size == 0:
        return 0
    s = np.linalg.svd(columns, compute_uv=False)
    return int((s > tol * (1.0 + s[0])).sum())


def max_abs(a: np.ndarray) -> float:
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def max_abs_over(arrays) -> float:
    """Largest |entry| over several arrays, 0.0 for none.  NaN propagates,
    where a ``max(res, max_abs(a))`` fold would drop it."""
    return float(np.max([max_abs(a) for a in arrays], initial=0.0))


def gram_quotient(blocks, tol: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Quotient a block-diagonal Hermitian gram by its null space, given its
    square diagonal blocks (0 x 0 ones included), block by block.

    The Hermitian parts of the blocks of one size go through one batched
    ``eigh``.  Eigenvalues at or below ``tol * (1 + max(0, lambda_max))``,
    lambda_max the largest over all blocks, count as zero.  Returns, per
    block, ``(coord, pinv)`` over its kept eigenpairs (lambda, V): the
    coordinate map ``sqrt(lambda) V*``, with ``coord* coord`` the block, and
    its right inverse ``V / sqrt(lambda)``.  Raises ValueError naming the
    first block with an eigenvalue below ``-cutoff``.
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
