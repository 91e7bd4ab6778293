"""JSON schemas for systems, modules, representations, cocycles, multipliers.

Complex numbers serialize as [re, im] pairs throughout.  Floats survive the
round trip bit-for-bit (shortest-repr encoding on both sides).  Decoding
rejects wrong shapes and non-finite numbers (NaN, Infinity) with a ``ValueError``.

The per-(g, x) matrices of a representation or cocycle decode straight into
its zero-padded stack (see :mod:`.fibers`), with one array conversion per
class of matrix shapes: one for the whole family when all fibers have the
same dimension.  When a conversion fails, the decoder reads the payload
again in its own order, one matrix at a time: a representation's rho blocks
first, then for each g its base permutation before its matrices.  The first
bad matrix or permutation raises.  A base permutation must be the action's n
integers, and each list of per-point matrices must hold exactly n matrices.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import fibers
from .cocycle import CocycleRep
from .core import FiniteGroup, FiniteSpace, GroupAction, System, _freeze, cyclic_group
from .equivrep import EquivariantRep
from .hilbmod import SectionalModule
from .multiplier import Multiplier


def _complex_array(obj, shape: tuple) -> np.ndarray:
    """The complex array of ``shape`` held by nested [re, im] pairs, from one
    array conversion whose floats are reinterpreted bit for bit (the sign of
    a zero too).  A None in ``shape`` takes the length found; an axis of
    length 0 ends the nesting (``[]`` is a matrix without rows)."""
    arr = np.array(obj, dtype=float)
    if arr.shape != shape + (2,):
        empty = arr.size == 0 and arr.ndim <= len(shape)
        found = arr.shape + (0,) * (len(shape) - arr.ndim) if empty else arr.shape[:-1]
        want = tuple(f if s is None else s for s, f in zip(shape, found))
        if len(found) != len(shape) or arr.shape != (want + (2,))[: arr.ndim if empty else None]:
            raise ValueError(f"payload holds an array of shape {arr.shape}, expected {shape} of [re, im] pairs")
        if empty:
            return np.zeros(want, dtype=complex)
        shape = want
    flat = arr.ravel()
    # a sum of squares is finite unless an entry is not (or the sum overflows,
    # which the entrywise test below then clears)
    with np.errstate(over="ignore"):
        total = flat.dot(flat)
    if not math.isfinite(total):
        finite = np.isfinite(arr).all(axis=-1)
        if not finite.all():
            re, im = arr[~finite][0]
            raise ValueError(f"non-finite number in payload: [{re}, {im}]")
    return arr.view(complex).reshape(shape)


def matrix_to_json(m: np.ndarray) -> list:
    """Rows of [re, im] pairs, from one conversion of the float view."""
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(m.shape + (2,)).tolist()


def matrix_from_json(obj, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """A matrix from its rows of [re, im] pairs, decoded bit for bit with one
    array conversion; ``rows`` and ``cols``, when given, are required.  Raises
    ``ValueError`` for any other shape and for a non-finite number (``null``
    reads as NaN), ``OverflowError`` for an integer beyond the float range."""
    return _complex_array(obj, (rows, cols))


def system_to_json(system: System) -> dict:
    return {
        "group": {"order": system.group.order, "mult": system.group.mult.tolist()},
        "space": system.n_points,
        "perm": system.action.perm.tolist(),
    }


def system_from_json(obj: dict) -> System:
    group_obj = obj["group"]
    if "cyclic" in group_obj:
        group = cyclic_group(int(group_obj["cyclic"]))
    else:
        group = FiniteGroup(int(group_obj["order"]), np.array(group_obj["mult"], dtype=np.intp))
    space = FiniteSpace(int(obj["space"]))
    if "perm" in obj:
        perm = np.array(obj["perm"], dtype=np.intp)
    else:
        perm = np.tile(np.arange(space.size), (group.order, 1))
    return System(GroupAction(group, space, perm))


def multiplier_to_json(t: Multiplier) -> dict:
    return {str(g): matrix_to_json(m) for g, m in enumerate(t.stack)}


def multiplier_from_json(obj: dict, system: System) -> Multiplier:
    order, n = system.group.order, system.n_points
    return Multiplier(system, _complex_array([obj[str(g)] for g in range(order)], (order, n, n)))


def rep_to_json(rep: EquivariantRep) -> dict:
    """Base permutations per group element plus per-point matrices, and the
    algebra generators as per-fiber blocks."""
    action = rep.system.action
    dims = rep.module.fiber_dims
    return {
        "fiberDims": list(dims),
        "rho": [[matrix_to_json(gen[x, :d, :d]) for x, d in enumerate(dims)] for gen in rep.rho_stack],
        "v": {
            str(g): {
                "srcPerm": action.src[g].tolist(),
                "mats": [matrix_to_json(m) for m in mats],
            }
            for g, mats in enumerate(rep.v_mats)
        },
    }


def rep_from_json(obj: dict, system: System) -> EquivariantRep:
    module = SectionalModule(system.space, tuple(int(d) for d in obj["fiberDims"]))
    dims, src = module.fiber_dims, system.action.src
    cols = np.asarray(dims)[src]
    try:
        rho = _stack_from_json(obj["rho"], dims, np.broadcast_to(dims, (len(obj["rho"]), len(dims))))
        entries = [obj["v"][str(g)] for g in range(system.group.order)]
        v = _stack_from_json([e["mats"] for e in entries], dims, cols)
        decoded = _equal_ints([e["srcPerm"] for e in entries], src)
    except _MALFORMED:
        decoded = False
    if not decoded:  # read again in payload order: the first bad matrix or permutation raises
        rho = fibers.stack_blocks([_matrices(gen, dims, dims) for gen in obj["rho"]], dims)
        v = []
        for g, per_point in enumerate(cols.tolist()):
            entry = obj["v"][str(g)]
            if not _equal_ints(entry["srcPerm"], src[g]):
                raise ValueError(f"serialized base permutation of element {g} does not match the action")
            v.append(_matrices(entry["mats"], dims, per_point))
    return EquivariantRep(system, module, rho, v)


def _matrices(mats, rows, cols) -> list[np.ndarray]:
    """The matrices ``mats[x]`` of shape (rows[x], cols[x]), each converted
    on its own in the order of x, so the first bad one raises; none may follow."""
    out = [_complex_array(mats[x], (r, c)) for x, (r, c) in enumerate(zip(rows, cols))]
    if len(mats) != len(out):
        raise ValueError(f"payload holds {len(mats)} matrices, expected {len(out)}, one per point")
    return out


# what decoding a malformed payload raises (see cli._decoding)
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, OverflowError, AttributeError)


def _stack_from_json(family, rows: tuple, cols: np.ndarray) -> np.ndarray:
    """The zero-padded (K, n, d_max, d_max) stack of the matrices
    ``family[k][x]`` of shape (rows[x], cols[k, x]), each ``family[k]``
    exactly n long, from one array conversion per shape class; the whole
    family at once when every fiber has the same dimension."""
    count, n = cols.shape
    if any(len(mats) != n for mats in family):
        raise ValueError("a list of per-point matrices is not one per point")
    if len(set(rows)) == 1:
        return _freeze(_complex_array(family, (count, n, rows[0], rows[0])))
    stack = np.zeros((count, n, max(rows), max(rows)), dtype=complex)
    shapes = np.broadcast_to(rows, (count, n)) * (max(rows) + 1) + cols
    for shape in np.unique(shapes).tolist():
        r, c = divmod(shape, max(rows) + 1)
        ks, xs = np.nonzero(shapes == shape)
        mats = [family[k][x] for k, x in zip(ks.tolist(), xs.tolist())]
        stack[ks, xs, :r, :c] = _complex_array(mats, (len(mats), r, c))
    return _freeze(stack)


def _equal_ints(obj, table: np.ndarray) -> bool:
    """Whether ``obj`` holds exactly the integers of ``table``, in its shape;
    a JSON true or false, which numpy reads as 1 or 0, is no integer."""
    arr = np.array(obj)
    if not (arr.dtype.kind in "iu" and arr.shape == table.shape and (arr == table).all()):
        return False
    return bool not in set(map(type, itertools.chain.from_iterable(obj if table.ndim == 2 else [obj])))


def cocycle_to_json(c: CocycleRep) -> dict:
    n = c.module.n_points
    return {
        "fiberDims": list(c.module.fiber_dims),
        "u": {
            str(g): {str(x): matrix_to_json(c.u[g][x]) for x in range(n)}
            for g in range(c.action.group.order)
        },
    }


def cocycle_from_json(obj: dict, system: System) -> CocycleRep:
    module = SectionalModule(system.space, tuple(int(d) for d in obj["fiberDims"]))
    dims = module.fiber_dims
    cols = np.asarray(dims)[system.action.src]
    points = [str(x) for x in range(module.n_points)]
    try:
        family = [[entry[x] for x in points] for entry in (obj["u"][str(g)] for g in range(system.group.order))]
        u = _stack_from_json(family, dims, cols)
    except _MALFORMED:  # read again in payload order: the first bad matrix raises
        u = [_matrices([obj["u"][str(g)][x] for x in points], dims, c) for g, c in enumerate(cols.tolist())]
    return CocycleRep(system.action, module, u)
