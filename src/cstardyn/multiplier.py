"""Multipliers, positive definiteness, Fourier-Stieltjes operations.

A multiplier assigns to each group element a linear self-map of C^n, stored
as its standard n x n matrix.  The span of the positive definite ones is the
Fourier-Stieltjes algebra; for a finite group every multiplier has finite
support, so no separate Fourier-algebra type exists and the finite-support
constructions live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import fibers
from .core import DEFAULT_TOL, System
from .equivrep import EquivariantRep, _in_slots, regular_rep, slot_embed, slot_restrict
from .hilbmod import ModuleVector, module_norm
from .numutil import lowest_eigenvector, matrix_rank, max_abs, psd_check, psd_verdict, scale


@dataclass(frozen=True, eq=False, init=False)
class Multiplier:
    """A multiplier on a system: one n x n matrix per group element.

    ``mats`` may be given as any sequence of matrices or as one array.  The
    matrices are held once, in the read-only complex array ``stack`` of shape
    (|G|, n, n); ``mats``, the tuple of its per-element views, is built on
    first read and kept.
    """

    system: System
    stack: np.ndarray

    def __init__(self, system: System, mats):
        if len(mats) != system.group.order:
            raise ValueError("one matrix per group element required")
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "stack", _frozen_stack(system, mats))

    @cached_property
    def mats(self) -> tuple[np.ndarray, ...]:
        return tuple(self.stack)

    @classmethod
    def _each_of(cls, system: System, stack: np.ndarray) -> list["Multiplier"]:
        """One multiplier per entry of an (S, |G|, n, n) stack, which is
        checked and frozen once as a whole; each holds a view of it."""
        out = [object.__new__(cls) for _ in range(len(stack))]
        for t, mats in zip(out, _frozen_stack(system, stack, (len(stack),))):
            object.__setattr__(t, "system", system)
            object.__setattr__(t, "stack", mats)
        return out

    def support(self) -> list[int]:
        """The g with an entry of T_g above ``DEFAULT_TOL * scale(stack)``."""
        return np.flatnonzero(np.abs(self.stack).max(axis=(1, 2)) > DEFAULT_TOL * scale(self.stack)).tolist()

    def __add__(self, other: "Multiplier") -> "Multiplier":
        _same_system(self, other)
        return Multiplier(self.system, self.stack + other.stack)

    def __sub__(self, other: "Multiplier") -> "Multiplier":
        _same_system(self, other)
        return Multiplier(self.system, self.stack - other.stack)

    def __mul__(self, scalar: complex) -> "Multiplier":
        return Multiplier(self.system, scalar * self.stack)

    __rmul__ = __mul__


def _frozen_stack(system: System, mats, count: tuple = ()) -> np.ndarray:
    """``mats`` as a read-only complex array of shape count + (|G|, n, n),
    checked finite."""
    n = system.n_points
    stack = np.array(mats, dtype=complex).reshape(count + (system.group.order, n, n))
    if not np.isfinite(stack).all():
        raise ValueError("multiplier matrices must be finite")
    stack.flags.writeable = False
    return stack


def _same_system(a, b) -> None:
    if a.system != b.system:
        raise ValueError("multipliers live on different systems")


def unit_multiplier(system: System) -> Multiplier:
    n = system.n_points
    return Multiplier(system, np.broadcast_to(np.eye(n), (system.group.order, n, n)))


def multiplier_distance(t: Multiplier, s: Multiplier) -> float:
    _same_system(t, s)
    return max_abs(t.stack - s.stack)


def op_norm_inf(m: np.ndarray) -> float:
    """Operator norm of a matrix on C^n with the sup norm (max abs row sum);
    for a stack of matrices, the largest over the stack."""
    m = np.asarray(m)
    return float(np.abs(m).sum(axis=-1).max()) if m.size else 0.0


def coefficient(rep: EquivariantRep, xi: ModuleVector, eta: ModuleVector) -> Multiplier:
    """The coefficient multiplier T(g, a) = <xi, rho(a) v(g) eta>: column j of
    T_g is the C^n-valued inner product of xi with rho(e_j) v(g) eta.  The
    one-pair call of :func:`_coefficients`."""
    if xi.module != rep.module or eta.module != rep.module:
        raise ValueError("coefficient vectors must live on the representation module")
    return Multiplier(rep.system, _coefficients(rep, xi.stack[None], eta.stack[None])[0])


def _coefficients(rep: EquivariantRep, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The stacks (F, |G|, n, n) of the coefficients <xi_f, rho(a) v(g) eta_f>
    for sections given as zero-padded (F, n, d_max) arrays (the stacks of
    :class:`.hilbmod.ModuleVector`): one contraction over (g, x, j) on the
    padded stacks, with every sum taken in the same order for any F."""
    shifted = np.einsum("gxij,fgxj->fgxi", rep.v_stack, eta[:, rep.system.action.src])  # (v(g) eta)(x)
    left = np.einsum("fxi,jxik->fjxk", xi.conj(), rep.rho_stack)  # xi(x)* rho(e_j)
    return np.einsum("fjxk,fgxk->fgxj", left, shifted)


@dataclass(frozen=True)
class PdCertificate:
    """Outcome of a positive-definiteness check.

    On success ``min_eigenvalue`` is the smallest eigenvalue encountered.  On
    failure the witness locates a violating kernel matrix: for the fiberwise
    criterion the (point, basis) pair and an eigenvector; for the sampling
    oracle the drawn tuple of group elements and algebra vectors.
    """

    verdict: bool
    min_eigenvalue: float
    hermitian_defect: float = 0.0
    point: Optional[int] = None
    basis: Optional[int] = None
    eigenvector: Optional[np.ndarray] = None
    sample_groups: Optional[tuple[int, ...]] = None
    sample_vectors: Optional[np.ndarray] = None

    def as_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "min_eigenvalue": None if math.isinf(self.min_eigenvalue) else self.min_eigenvalue,
            "hermitian_defect": self.hermitian_defect,
        }
        if self.point is not None:
            out["point"] = self.point
        if self.basis is not None:
            out["basis"] = self.basis
        if self.sample_groups is not None:
            out["sample_groups"] = list(self.sample_groups)
        return out


# Trials after the first are drawn and checked this many at a time, their
# kernels formed in runs of at most _GATHER gathered entries ((p + 2)(r + 2)
# per kernel entry of a group of p points reading r; one pair always fits)
# and eigen-solved in batches of about fibers.BLOCK_ELEMENTS entries.
_WINDOW = 256
_GATHER = 2**15


def _kernel_matrices(system: System, stack: np.ndarray, s: np.ndarray, x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The group-indexed kernel matrices of multipliers ``stack[s]`` at base
    points ``x`` and basis indices ``k`` (1-D index arrays of one length B),
    gathered at once: ``K[b][i, j] = stack[s_b, g_i^{-1} g_j, g_i^{-1} x_b,
    g_i^{-1} k_b]``, of shape (B, |G|, |G|)."""
    group, src = system.group, system.action.src
    rows = group.mult[group.inverse]  # rows[i, j] = g_i^{-1} g_j
    return stack[s[:, None, None], rows, src[:, x].T[:, :, None], src[:, k].T[:, :, None]]


def _fiberwise_checks(system: System, stack: np.ndarray, tol: float):
    """The fiberwise criterion for a stack of S multipliers on one system.

    ``stack`` is (S, |G|, n, n).  The kernel matrices of all S * n * n
    triples (s, x, k) are gathered, in blocks of at most
    ``fibers.BLOCK_ELEMENTS`` entries (one matrix always fits), and each
    block goes through one :func:`numutil.psd_check`, every kernel against
    its own :func:`numutil.scale`.
    Returns the verdicts (S,), the smallest eigenvalues and defects
    (S, n * n) and the witness (x, k) index of each multiplier (S,).
    """
    S, order, n, _ = stack.shape
    checks = []
    for lo, hi in fibers.blocks(S * n * n, order * order):
        kern = _kernel_matrices(system, stack, *np.unravel_index(np.arange(lo, hi), (S, n, n)))
        checks.append(psd_check(kern, scale(kern, axis=(1, 2)), tol))
    hermitian, passed, lam0, hd = (np.concatenate(a).reshape(S, n * n) for a in zip(*checks))
    # the first (x, k) in loop order with the largest score is the witness
    worst = np.argmax(-lam0 + np.where(hermitian, 0.0, hd), axis=1)
    return passed.all(axis=1), lam0, hd, worst


def _fiberwise_certificates(system: System, stack: np.ndarray, tol: float) -> list[PdCertificate]:
    """One certificate per multiplier of ``stack``, as
    :func:`is_positive_definite` describes it."""
    verdicts, lam0, hd, worst = _fiberwise_checks(system, stack, tol)
    n = system.n_points
    return [
        PdCertificate(
            verdict=bool(ok),
            min_eigenvalue=float(lam0[i].min()),
            hermitian_defect=float(hd[i, w]),
            point=int(w // n),
            basis=int(w % n),
            eigenvector=None if ok else lowest_eigenvector(
                _kernel_matrices(system, stack, *np.array([[i], [w // n], [w % n]]))[0]
            ),
        )
        for i, (ok, w) in enumerate(zip(verdicts, worst))
    ]


def is_positive_definite(t: Multiplier, tol: float = DEFAULT_TOL) -> PdCertificate:
    """Fiberwise positive-definiteness criterion.

    For commutative coefficients the kernel condition over all finite tuples
    reduces to: for every base point x and basis index k, the group-indexed
    matrix whose entry (i, j) is the x-component of
    alpha_{g_i}(T_{g_i^{-1} g_j}(alpha_{g_i}^{-1}(e_k))) is PSD
    (:func:`_kernel_matrices`).  The reduction rests on the idempotent
    decomposition a*b = sum_k conj(a_k) b_k e_k, which makes the tuple
    condition a sum of independent quadratic forms, one per (x, k);
    :func:`pd_sample_oracle` cross-validates it against the raw definition.

    All n^2 kernel matrices come from one gather, in blocks of at most
    ``fibers.BLOCK_ELEMENTS`` entries, and go through
    :func:`numutil.psd_check`, each with its own :func:`numutil.scale`.  The
    certificate's (point, basis) is the first (x, k) in loop order with the
    largest score, minus the smallest eigenvalue plus any defect beyond
    tolerance, and carries that matrix's defect (and, on failure, its lowest
    eigenvector, from one ``eigh`` of it alone); ``min_eigenvalue`` is the
    smallest eigenvalue over all (x, k).
    """
    return _fiberwise_certificates(t.system, t.stack[None], tol)[0]


def _kernel_table(t: Multiplier) -> np.ndarray:
    """The operators of the oracle's kernel entries, one per pair of group
    elements: ``A[i, j][x, y] = stack[g_i^{-1} g_j, g_i^{-1} x, y]``, of shape
    (|G|, |G|, n, n).  Applied to c taken at the points g_i y, row x is
    alpha_{g_i}(T_{g_i^{-1} g_j}(alpha_{g_i}^{-1} c)) at x.  Only the rows
    are permuted, so the sum over y runs in the matrices' own column order.
    """
    group, src = t.system.group, t.system.action.src
    return t.stack[group.mult[group.inverse][:, :, None], src[:, None, :]]


def _read_groups(t: Multiplier, table: np.ndarray):
    """The points grouped by equal read sets R(x) = {g_i y : table[i, j][x,
    y] != 0}: the (K, n) read-set masks and, per shape (p points, r = |R|),
    ``(k0, k1, pts, at, sub)``: its groups [k0, k1), their points (K_c, p),
    ``at[k, i]`` = g_i y over the columns y with g_i y in R, ascending
    (K_c, |G|, r), and the table there, ``sub[k, i, j]`` (K_c, |G|, |G|, p, r)."""
    perm = t.system.action.perm
    order, n = perm.shape
    g, x, y = np.nonzero(table.any(axis=1))
    reads = np.zeros((n, n), dtype=bool)
    reads[x, perm[g, y]] = True
    members, shapes = {}, {}
    for x, read in enumerate(reads):
        members.setdefault(read.tobytes(), []).append(x)
    for pts in members.values():
        shapes.setdefault((len(pts), int(reads[pts[0]].sum())), []).append(pts)
    el, sets, classes, k0 = np.arange(order), [], [], 0
    for (_, r), groups in shapes.items():
        pts = np.array(groups)
        sets.append(reads[pts[:, 0]])
        cols = np.nonzero(sets[-1][:, perm])[2].reshape(len(pts), order, r)
        sub = table[el[:, None, None, None], el[:, None, None], pts[:, None, None, :, None], cols[:, :, None, None, :]]
        classes.append((k0, k0 + len(pts), pts, perm[el[:, None], cols], sub))
        k0 += len(pts)
    return np.concatenate(sets), classes


def _sub_kernels(sub, at, kk, m, start, row_of, gs, amps) -> np.ndarray:
    """The sub-kernel entries (i, j), pair by pair, (sum m^2, p), of pairs of
    groups ``kk`` (one shape of :func:`_read_groups`) with visible rows
    ``row_of[start : start + m]``: row x of ``sub[k, g_i, g_j]`` applied to
    conj(a_i) a_j at ``at[k, g_i]``."""
    (K, order, r), mm = at.shape, m * m
    pair = np.repeat(np.arange(len(m)), mm)
    i, j = np.divmod(np.arange(len(pair)) - np.repeat(np.cumsum(mm) - mm, mm), m[pair])
    ri, rj = row_of[start[pair] + i], row_of[start[pair] + j]
    ki, n = kk[pair] * order + gs[ri], amps.shape[1]  # flat (k, g_i), gathered as one index
    z = at.reshape(K * order, r)[ki]  # (E, r): the points g_i y that row i reads
    w = amps.reshape(-1)[ri[:, None] * n + z].conj() * amps.reshape(-1)[rj[:, None] * n + z]
    return np.einsum("exc,ec->ex", sub.reshape(K * order * order, *sub.shape[3:])[ki * order + gs[rj]], w)


def _trial_checks(groups: tuple, gs: np.ndarray, amps: np.ndarray, lengths: np.ndarray, tol: float):
    """The kernel condition for tuples of ``lengths`` (T,), one after another
    in ``gs`` (R,) and ``amps`` (R, n): per trial and point (T, n), the
    smallest eigenvalue of the kernel's Hermitian part, its defect, and
    whether it fails :func:`numutil.psd_check` at the trial's scale, each
    kernel formed on its visible entries (see :func:`pd_sample_oracle`)."""
    sets, classes = groups
    count, n = len(lengths), amps.shape[1]
    mins, hd, peak = np.zeros((count, n)), np.zeros((count, n)), np.zeros(count)
    # the visible (group, row) pairs, group by group and rows in draw order
    k_of, row_of = np.nonzero(sets @ (amps != 0).T)
    size = np.bincount(k_of * count + np.repeat(np.arange(count), lengths)[row_of], minlength=len(sets) * count)
    first, size = (np.cumsum(size) - size).reshape(-1, count), size.reshape(-1, count)
    held = {}  # sub-length m -> kernels, trials, points; solved by m, judged once the scales are known
    def solve():
        for size_m, parts in held.items():
            kern, t, x = parts[0] if len(parts) == 1 else (np.concatenate(a) for a in zip(*parts))
            np.maximum.at(peak, t, np.abs(kern).max(axis=(1, 2)))
            _, _, lam, hd[t, x] = psd_check(kern, 1.0, tol)
            mins[t, x] = np.where(size_m < lengths[t], np.minimum(lam, 0.0), lam)
        held.clear()
    for k0, k1, pts, at, sub in classes:
        # the shape's (group, trial) pairs by sub-length m, in runs of at most _GATHER;
        # m = 0 keeps the empty block's zeros
        kk, tt = np.divmod(np.argsort(size[k0:k1], axis=None, kind="stable"), count)
        m, start = size[k0 + kk, tt], first[k0 + kk, tt]
        p, r = sub.shape[3:]
        t, x = np.repeat(tt, p), pts[kk].reshape(-1)
        cuts = (np.flatnonzero(np.diff(np.cumsum(m * m * (p + 2) * (r + 2)) // _GATHER)) + 1).tolist()
        for c0, c1 in zip([0, *cuts], [*cuts, len(m)]):
            b = _sub_kernels(sub, at, kk[c0:c1], m[c0:c1], start[c0:c1], row_of, gs, amps)
            if b.size + sum(part[0].size for parts in held.values() for part in parts) > fibers.BLOCK_ELEMENTS:
                solve()
            e0 = 0
            for size_m, k in enumerate(np.bincount(m[c0:c1]).tolist()):
                c, e1 = c0 + k, e0 + k * size_m * size_m
                if size_m and k:
                    kern = b[e0:e1].reshape(k, size_m, size_m, p).transpose(0, 3, 1, 2).reshape(k * p, size_m, size_m)
                    held.setdefault(size_m, []).append((kern, t[c0 * p : c * p], x[c0 * p : c * p]))
                c0, e0 = c, e1
    solve()
    _, ok = psd_verdict(mins, hd, scale(peak[:, None], axis=1)[:, None], tol)
    return mins, hd, ~ok


def pd_sample_oracle(
    t: Multiplier, trials: int = 1000, seed: int = 42, tol: float = DEFAULT_TOL
) -> PdCertificate:
    """Randomized test of the defining kernel condition.

    Draws tuples (g_1..g_N, a_1..a_N) with N uniform in [1, 2|G|] and sparse
    complex Gaussian algebra vectors (each coordinate kept with probability
    1/2), builds the C^n-valued kernel matrix and requires it PSD at every
    base point, up to ``tol`` times the :func:`numutil.scale` of each trial's
    kernel.  The kernel entries' operators A are tabulated once per call
    (:func:`_kernel_table`, O(|G|^2 n^2)), and the points with equal read
    sets R(x) = {g_i y : A[i, j][x, y] != 0} grouped (:func:`_read_groups`).
    At x, every term of the row and column of a tuple entry whose amplitude
    vanishes on R(x) is zero, so that entry is hidden: the kernel's spectrum
    is that of the sub-kernel on the visible entries plus zeros, and the
    smallest eigenvalue with an entry hidden is min(the sub-kernel's, 0.0).
    Each visible entry is the same sum over y, less exact zeros.

    Trial 0 is drawn and checked alone, so a multiplier that fails at once
    costs one small kernel; the rest are drawn and checked in windows of
    ``_WINDOW`` trials.  Each window draws, in this order, the tuple lengths
    of all its trials, then all their group indices, then all amplitudes and
    the 0/1 mask applied to them.  The search stops at the first window
    with a violation and returns its lowest-indexed violating trial in draw
    order, at that trial's first bad point, with the drawn tuple as a
    reproducible witness.  On success
    ``min_eigenvalue`` is the minimum over all trials.
    """
    if trials < 1:
        raise ValueError("at least one trial required")
    order = t.system.group.order
    n = t.system.n_points
    groups = _read_groups(t, _kernel_table(t))
    rng = np.random.default_rng(seed)
    min_seen = math.inf
    done = 0
    while done < trials:
        size = 1 if done == 0 else min(_WINDOW, trials - done)
        done += size
        lengths = rng.integers(1, 2 * order + 1, size=size)
        starts = np.concatenate(([0], np.cumsum(lengths)))
        total = int(starts[-1])
        gs = rng.integers(0, order, size=total)
        amps = rng.normal(size=(total, n)) + 1j * rng.normal(size=(total, n))
        amps *= rng.integers(0, 2, size=(total, n))
        mins, hd, bad = _trial_checks(groups, gs, amps, lengths, tol)
        min_seen = min(min_seen, float(mins.min()))
        failing = np.flatnonzero(bad.any(axis=1))
        if failing.size:
            k = int(failing[0])
            x = int(np.argmax(bad[k]))
            rows = slice(starts[k], starts[k + 1])
            return PdCertificate(
                verdict=False,
                min_eigenvalue=float(mins[k, x]),
                hermitian_defect=float(hd[k, x]),
                point=x,
                sample_groups=tuple(int(g) for g in gs[rows]),
                sample_vectors=amps[rows],
            )
    return PdCertificate(verdict=True, min_eigenvalue=min_seen if math.isfinite(min_seen) else 0.0)


@dataclass(frozen=True)
class NormBounds:
    """An interval certificate for the Fourier-Stieltjes norm; the exact norm
    is an infimum over all representations and is never reported as a point."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper + DEFAULT_TOL * scale(self.lower):
            raise ValueError(
                f"inconsistent bounds: lower {self.lower} exceeds upper {self.upper}"
            )


def norm_bounds(t: Multiplier) -> NormBounds:
    """lower = sup_g ||T_g|| (sup-norm operator norm); upper = infinity, as
    no closed form for an upper bound is computed yet."""
    return NormBounds(op_norm_inf(t.stack), math.inf)


def truncate_realization(
    rep: EquivariantRep,
    xi: ModuleVector,
    eta: ModuleVector,
    s1: Sequence[int],
    s2: Sequence[int],
) -> tuple[Multiplier, NormBounds]:
    """Truncate a coefficient of a group-amplified representation to slot sets.

    Returns the finitely supported coefficient of the restricted vectors plus
    bounds on the deviation from the untruncated coefficient: the lower bound
    is the computed sup_g ||(T - T_eps)_g||, the upper bound the estimate
    ||xi_off|| ||eta|| + ||xi_on|| ||eta_off||.  Support of the truncation is
    contained in S1 . S2^{-1} (equal to S1 when S2 = {identity}).
    """
    if rep.regular_base is None:
        raise ValueError("truncation requires a group-amplified representation")
    xi_on = slot_restrict(rep, xi, s1)
    eta_on = slot_restrict(rep, eta, s2)
    t_full = coefficient(rep, xi, eta)
    t_eps = coefficient(rep, xi_on, eta_on)
    xi_off = xi - xi_on
    eta_off = eta - eta_on
    bound = module_norm(xi_off) * module_norm(eta) + module_norm(xi_on) * module_norm(eta_off)
    lower = op_norm_inf(t_full.stack - t_eps.stack)
    trunc_sup = op_norm_inf(t_eps.stack)
    if trunc_sup > module_norm(xi_on) * module_norm(eta_on) + DEFAULT_TOL * scale(t_eps.stack):
        raise ArithmeticError("truncated coefficient exceeds its vector-norm bound")
    return t_eps, NormBounds(lower, bound)


def realize_via_regular(t: Multiplier, rep: EquivariantRep, xi: ModuleVector, eta: ModuleVector):
    """Re-realize a finitely supported coefficient on the group-amplified
    representation: xi spread over the support slots, eta in the identity
    slot.  The output coefficient reproduces the input exactly.  The triple
    must realize ``t`` within ``DEFAULT_TOL * scale(t.stack)``.
    """
    if multiplier_distance(coefficient(rep, xi, eta), t) > DEFAULT_TOL * scale(t.stack):
        raise ValueError("the supplied triple does not realize the multiplier")
    support = t.support()
    if not support:
        raise ValueError("multiplier has empty support")
    reg = regular_rep(rep)
    return reg, _in_slots(reg, support, xi), slot_embed(reg, rep.system.group.identity, eta)


def span_dimension(ms: Sequence[Multiplier], tol: float = DEFAULT_TOL) -> int:
    """Dimension of the span inside the |G| n^2-dimensional multiplier space."""
    if not ms:
        return 0
    for m in ms[1:]:
        _same_system(ms[0], m)
    rows = np.stack([m.stack.ravel() for m in ms])
    return matrix_rank(rows, tol)


TRACE_CONE_NOTE = (
    "trace-cone note: the sampled generators follow the documented closed-form "
    "matrices for the two rank-one families. For the trivial-action system every "
    "sample has a real second trace and a nonnegative first trace, and the attained "
    "region is {(a, b): a >= |b|}, strictly smaller than the documented [0, inf) x R. "
    "For the shift-action system the documented matrices attain non-real second "
    "traces (suggesting [0, inf) x C rather than R x C), but mixed-sign patterns "
    "fail the positive-definiteness certificate: they violate the Hermitian pairing "
    "T_1 = F conj(T_1) F forced by the kernel condition, and diagonal coefficients "
    "of genuine shift-system representations always have a real second trace. The "
    "separation reported here therefore distinguishes the documented generator "
    "families as printed, not certified positive-definite cones; per-sample "
    "certificates are attached so the discrepancy stays visible."
)


@dataclass(frozen=True, eq=False)
class TraceSample:
    """One sampled cone element with its componentwise traces and certificate."""

    trace0: complex
    trace1: complex
    multiplier: Multiplier
    positive_definite: bool


def _squared_moduli(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """|xi_i|^2 and |eta_i|^2 as the rows of a (..., 2, 2) array.  The modulus
    is the C library's hypot, as for a complex scalar; numpy's vectorized
    complex abs can differ from it in the last bit."""
    return np.square(np.stack([np.hypot(v.real, v.imag) for v in (xi, eta)], axis=-2))


def _omega2_terms(eps: np.ndarray, xi: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form generator pairs (T_0, T_1) of the trivial-action family,
    for signs ``eps`` (..., 4) and vectors ``xi``, ``eta`` (..., 2)."""
    sq = _squared_moduli(xi, eta)
    t1 = eps.reshape(eps.shape[:-1] + (2, 2)) * sq
    return sq.astype(complex), t1.astype(complex)


def _sigma2_terms(eps: np.ndarray, xi: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form generator pairs (T_0, T_1) of the shift-action family,
    for signs ``eps`` (..., 2) and vectors ``xi``, ``eta`` (..., 2)."""
    sq = _squared_moduli(xi, eta)
    e0, e1 = eps[..., 0], eps[..., 1]
    x0, x1, y0, y1 = xi[..., 0], xi[..., 1], eta[..., 0], eta[..., 1]
    top = np.stack([e0 * np.conj(x0) * y1, e1 * np.conj(x1) * y0], axis=-1)
    bottom = np.stack([e0 * np.conj(y0) * x1, e1 * np.conj(y1) * x0], axis=-1)
    return sq.astype(complex), np.stack([top, bottom], axis=-2)


def trace_image_sample(system: System, count: int, seed: int = 42, tol: float = DEFAULT_TOL) -> list[TraceSample]:
    """Sample the componentwise-trace image of nonnegative combinations of the
    closed-form rank-one generators for the two order-2 cyclic systems.

    Supported systems: Z_2 acting trivially on two points, and Z_2 acting by
    the flip.  Each sample carries its positive-definiteness certificate; see
    ``TRACE_CONE_NOTE`` for why the shift-system generators are reported
    as printed rather than being forced through the certificate.

    All samples are drawn with whole-array calls, in this order: the term
    counts of all samples (uniform in [1, 3]); the weights of all
    ``count * 3`` term slots (uniform in [0, 1), set to exactly 0 in
    the slots beyond a sample's term count); the signs of every slot (four
    from {-1, 0, 1} for the trivial action, two from {-1, 1} for the flip);
    the real, then the imaginary parts of xi; the same for eta.  A sample is
    the weighted sum of its slots' generator pairs, accumulated in slot
    order.  The sample stack is checked once as a whole, and all samples are
    certified together by the fiberwise criterion of
    :func:`is_positive_definite`; each sample's multiplier is a view of it.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if system.group.order != 2 or system.n_points != 2:
        raise ValueError("trace sampling is defined for the two order-2 systems")
    # trivial action fixes the points; the flip swaps them
    trivial = system.action.apply(1, 0) == 0
    signs, width, terms = ([-1, 0, 1], 4, _omega2_terms) if trivial else ([-1, 1], 2, _sigma2_terms)

    max_terms = 3
    rng = np.random.default_rng(seed)
    slots = (count, max_terms)
    used = rng.integers(1, max_terms + 1, size=count)
    weights = rng.random(slots) * (np.arange(max_terms) < used[:, None])
    eps = rng.choice(signs, size=slots + (width,))
    xi = rng.normal(size=slots + (2,)) + 1j * rng.normal(size=slots + (2,))
    eta = rng.normal(size=slots + (2,)) + 1j * rng.normal(size=slots + (2,))
    t0, t1 = terms(eps, xi, eta)
    w = weights[:, :, None, None]
    stack = np.stack([(w * t0).sum(axis=1), (w * t1).sum(axis=1)], axis=1)  # (count, |G|, 2, 2)
    samples = Multiplier._each_of(system, stack)
    traces = np.trace(stack, axis1=2, axis2=3).tolist()
    verdicts = _fiberwise_checks(system, stack, tol)[0].tolist()
    return [
        TraceSample(trace0=tr[0], trace1=tr[1], multiplier=t, positive_definite=ok)
        for t, tr, ok in zip(samples, traces, verdicts)
    ]
