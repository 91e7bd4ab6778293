"""Stacked fiber matrices and the batched checks on them.

Equivariant and cocycle representations carry one matrix per group element g
and point x, mapping fiber g^{-1}x into fiber x.  They store these matrices
only as one zero-padded array of shape (|G|, n, d_max, d_max), each matrix in
the top-left corner of its slot, and the per-(g, x) matrices are read-only
views of it (:func:`fiber_views`).  The verifiers check their laws with
whole-array gathers, matmuls and reductions over the ``src``, ``mult`` and
``perm`` tables.  Each residual is the max |entry| of the same differences a
loop over (g, h, x) would form, NaN propagates into it, and :class:`Worst`
keeps the first location attaining it.  Work over pairs of group elements
runs in blocks of left elements of at most ``BLOCK_ELEMENTS`` matrix entries
(one left element always fits), so the working set does not grow with |G|^2.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import GroupAction, _freeze

# 2**13 complex entries (128 KiB) per temporary.  Blocks of 2**16 made the
# covariant-pair check on sigma_8 60% slower, most likely because their
# 1 MiB temporaries are mapped and faulted in afresh for every block.
BLOCK_ELEMENTS = 2**13


def stack_fibers(action: GroupAction, dims: Sequence[int], mats) -> np.ndarray:
    """The read-only (|G|, n, d_max, d_max) stack of the matrices
    ``mats[g][x]`` of shape (d_x, d_{g^{-1}x}), each in the top-left corner
    of its slot and zeros elsewhere.

    ``mats`` is either that stack already, as an array of four axes (see
    :func:`_padded`), or nested per-(g, x) sequences, each matrix coerced
    and reshaped on its own.
    """
    cols = np.asarray(dims)[action.src]
    if isinstance(mats, np.ndarray) and mats.ndim == 4:
        return _padded(mats, dims, cols)
    dmax = max(dims)
    stack = np.zeros((len(cols), len(dims), dmax, dmax), dtype=complex)
    for g, per_point in enumerate(cols.tolist()):
        for x, (r, c) in enumerate(zip(dims, per_point)):
            stack[g, x, :r, :c] = np.asarray(mats[g][x], dtype=complex).reshape(r, c)
    return _freeze(stack)


def stack_blocks(blocks, dims: Sequence[int]) -> np.ndarray:
    """Square per-point blocks ``blocks[k][x]`` (d_x by d_x) as one read-only
    zero-padded array of shape (len(blocks), n, d_max, d_max); ``blocks`` may
    be that array already (see :func:`_padded`)."""
    if isinstance(blocks, np.ndarray) and blocks.ndim == 4:
        return _padded(blocks, dims, np.broadcast_to(np.asarray(dims), (len(blocks), len(dims))))
    dmax = max(dims)
    out = np.zeros((len(blocks), len(dims), dmax, dmax), dtype=complex)
    for k, per_point in enumerate(blocks):
        for x, d in enumerate(dims):
            out[k, x, :d, :d] = per_point[x]
    return _freeze(out)


def _padded(stack: np.ndarray, rows: Sequence[int], cols: np.ndarray) -> np.ndarray:
    """A given padded stack whose matrix (k, x) has shape (rows[x], cols[k, x]),
    checked for its shape and for zeros outside those corners.  It is held
    as given when it is already complex, C-contiguous and read-only (the
    package never writes to read-only arrays), and copied otherwise."""
    dmax = max(rows)
    if stack.shape != cols.shape + (dmax, dmax):
        raise ValueError(f"padded stack has shape {stack.shape}, expected {cols.shape + (dmax, dmax)}")
    i = np.arange(dmax)
    inside = (i[:, None] < np.asarray(rows)[:, None, None]) & (i < cols[:, :, None, None])
    if (stack[~inside] != 0).any():
        raise ValueError("padded stack has nonzero entries outside the fiber matrices")
    if stack.dtype == complex and stack.flags.c_contiguous and not stack.flags.writeable:
        return stack
    return _freeze(np.array(stack, dtype=complex, order="C"))


def fiber_views(action: GroupAction, dims: Sequence[int], stack: np.ndarray) -> tuple:
    """The per-(g, x) views ``stack[g, x, :d_x, :d_{g^{-1}x}]``, read-only
    when the stack is."""
    cols = np.asarray(dims)[action.src].tolist()
    return tuple(
        tuple(stack[g, x, :r, : per_point[x]] for x, r in enumerate(dims)) for g, per_point in enumerate(cols)
    )


def stack_sections(components: Sequence[np.ndarray], dims: Sequence[int]) -> np.ndarray:
    """The components of a section as one zero-padded (n, d_max) array."""
    out = np.zeros((len(dims), max(dims)), dtype=complex)
    for x, d in enumerate(dims):
        out[x, :d] = components[x]
    return out


def fiber_mask(dims: Sequence[int]) -> np.ndarray:
    """``mask[x, i]`` is whether i < d_x, i.e. a real coordinate of fiber x."""
    return np.arange(max(dims)) < np.asarray(dims)[:, None]


def padded_identity(dims: Sequence[int]) -> np.ndarray:
    """The identity of each fiber x, zero padded to (n, d_max, d_max)."""
    return fiber_mask(dims)[:, :, None] * np.eye(max(dims))


def entry_max(a: np.ndarray) -> np.ndarray:
    """max |entry| over the last two axes (0 for empty matrices); NaN propagates."""
    return np.abs(a).max(axis=(-2, -1), initial=0.0)


def blocks(count: int, per_item: int):
    """Ranges [lo, hi) covering ``count`` items of ``per_item`` entries each,
    at most ``BLOCK_ELEMENTS`` entries per range and never less than one item."""
    step = max(1, BLOCK_ELEMENTS // max(1, per_item))
    for lo in range(0, count, step):
        yield lo, min(count, lo + step)


def intertwining_residual(w: np.ndarray, a: np.ndarray, b: np.ndarray, src=None) -> np.ndarray:
    """max |W_x A(k)_x - B(k)_x W_{src[k, x]}| per (k, x), for padded stacks
    ``w`` (n, r, c), ``a`` (K, n, c, c) and ``b`` (K, n, r, r); ``src``
    (K, n) defaults to W_x on both sides.  Formed for blocks of k of at most
    ``BLOCK_ELEMENTS`` product entries; NaN propagates."""
    count, n = a.shape[:2]
    out = np.empty((count, n))
    for lo, hi in blocks(count, w.size):
        right = w if src is None else w[src[lo:hi]]
        out[lo:hi] = entry_max(w @ a[lo:hi] - b[lo:hi] @ right)
    return out


class Worst:
    """The largest residual seen so far and the first index attaining it.

    Residual arrays arrive in order of their first axis (``offset`` is the
    position of their first row); a NaN beats every number, and the first
    NaN is kept.
    """

    def __init__(self):
        self.residual = 0.0
        self.index: tuple[int, ...] | None = None

    def update(self, res: np.ndarray, offset: int = 0) -> None:
        if res.size == 0 or math.isnan(self.residual):
            return
        i = int(np.argmax(res))  # the first NaN, else the first maximum
        value = float(res.flat[i])
        if self.index is None or value > self.residual or math.isnan(value):
            first, *rest = np.unravel_index(i, res.shape)
            self.residual = value
            self.index = (int(first) + offset, *(int(r) for r in rest))

    def update_max(self, mag: np.ndarray, offset: int = 0, axes=(-2, -1), order=None) -> None:
        """:meth:`update` with the maxima of the magnitudes ``mag`` over
        ``axes`` at each location, the remaining axes put in ``order``.
        Those maxima are only formed when the largest magnitude can change
        the result, since numpy reduces short axes slowly; the outcome is the
        same either way."""
        top = mag.max(initial=0.0)
        if top > self.residual or (math.isnan(top) and not math.isnan(self.residual)):
            res = mag.max(axis=axes, initial=0.0)
            self.update(res if order is None else res.transpose(order), offset)

    def where(self, *names: str) -> dict | None:
        """The index keyed by ``names``, or None when every residual is 0."""
        if self.index is None or self.residual == 0.0:
            return None
        return dict(zip(names, self.index))


def side_by_side(factors: np.ndarray) -> np.ndarray:
    """The factors ``(..., k, r, c)`` laid side by side as ``(..., r, k * c)``,
    factor i in columns [i * c, (i + 1) * c), so that one matmul of a left
    factor against them forms all k products, laid out the same way."""
    k, r, c = factors.shape[-3:]
    return np.moveaxis(factors, -3, -2).reshape(factors.shape[:-3] + (r, k * c))


@np.errstate(over="ignore", invalid="ignore")
def group_law(action: GroupAction, dims: Sequence[int], stack: np.ndarray):
    """Unitarity, the homomorphism (cocycle) identity and u(x, e) = id for
    a stacked family u[g][x]: fiber g^{-1}x -> fiber x.

    Returns ``(unitarity, homomorphism, identity)``: the first two as
    ``(residual, where)`` with ``where`` keyed ``g, x`` and ``g, h, x``, the
    last as a residual.  Unitarity is max(|u*u - 1|, |uu* - 1|) per (g, x);
    the homomorphism residual is |u[gh][x] - u[g][x] u[h][g^{-1}x]|.  The
    products for one (g, x) and every h are one matmul of u[g][x] against
    the u[h][g^{-1}x] laid side by side, formed for blocks of left elements
    g of at most ``BLOCK_ELEMENTS`` entries.  Entries large enough to
    overflow give inf or NaN residuals, without a warning.
    """
    group = action.group
    order, src = group.order, action.src
    n, d = stack.shape[1], stack.shape[-1]
    eye = padded_identity(dims)

    uh = stack.conj().swapaxes(-1, -2)
    unitary = Worst()
    unitary.update_max(np.maximum(np.abs(uh @ stack - eye[src]), np.abs(stack @ uh - eye)))

    # right[y] holds u[h][y] for every h side by side; the targets u[gh][x]
    # are gathered from it in the layout of the products
    right = side_by_side(stack.swapaxes(0, 1))
    by_h = right.reshape(n, d, order, d)
    hom = Worst()
    for lo, hi in blocks(order, stack.size):
        prod = (stack[lo:hi] @ right[src[lo:hi]]).reshape(hi - lo, n, d, order, d)  # (g, x, row, h, col)
        target = by_h.take(group.mult[lo:hi], axis=2).transpose(2, 0, 1, 3, 4)
        hom.update_max(np.abs(target - prod), lo, axes=(2, 4), order=(0, 2, 1))

    identity = float(entry_max(stack[group.identity] - eye).max())
    return (
        (unitary.residual, unitary.where("g", "x")),
        (hom.residual, hom.where("g", "h", "x")),
        identity,
    )
