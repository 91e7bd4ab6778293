"""Linear-algebra helpers that only the test oracles use."""

import numpy as np


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
